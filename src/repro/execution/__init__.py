"""In-memory execution engine used to validate shared plans end to end."""

from .backends import DEFAULT_BACKEND, available_backends, resolve_backend
from .columnar import ColumnBatch, ColumnarExecutor
from .data import Database, Row, example1_database, tiny_tpcd_database
from .evaluate import (
    AmbiguousColumn,
    ColumnNotFound,
    evaluate_predicate,
    resolve_column,
    total_order_key,
)
from .executor import ExecutionError, Executor
from .sql import DuckDBExecutor, SQLExecutor, SQLiteExecutor

__all__ = [
    "Database",
    "Row",
    "example1_database",
    "tiny_tpcd_database",
    "AmbiguousColumn",
    "ColumnNotFound",
    "evaluate_predicate",
    "resolve_column",
    "total_order_key",
    "ExecutionError",
    "Executor",
    "ColumnBatch",
    "ColumnarExecutor",
    "SQLExecutor",
    "SQLiteExecutor",
    "DuckDBExecutor",
    "DEFAULT_BACKEND",
    "available_backends",
    "resolve_backend",
]
