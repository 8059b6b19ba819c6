"""The resource-consumption cost model.

The paper's experiments use "standard resource consumption estimates which
contain an I/O component and a CPU component, with seek time as 10 msec,
transfer time of 2 msec/block for read and 4 msec/block for write, and CPU
cost of 0.2 msec/block of data processed", a block size of 4KB, and 6MB of
memory per operator (128MB in a second configuration).  All costs produced
by this module are in milliseconds; the experiment harness converts to
seconds for reporting.

The physical operators match the original rule set: relation scan, indexed
selection, (block and index) nested-loop join, merge join, external sort and
sort-based aggregation, plus the materialize / read-materialized operators
the MQO layer introduces.  Costs are composable: an operator's cost covers
only its own work, and the plan DP adds children costs (inputs are assumed
to be pipelined, as in the Volcano iterator model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

__all__ = ["CostParameters", "CostModel", "DEFAULT_COST_PARAMETERS"]


@dataclass(frozen=True)
class CostParameters:
    """The calibration constants of the cost model (paper's Section 6 values)."""

    block_size: int = 4096
    seek_ms: float = 10.0
    read_ms_per_block: float = 2.0
    write_ms_per_block: float = 4.0
    cpu_ms_per_block: float = 0.2
    work_mem_bytes: int = 6 * 1024 * 1024

    @property
    def memory_blocks(self) -> int:
        """Number of in-memory buffer blocks available to one operator."""
        return max(3, self.work_mem_bytes // self.block_size)

    def with_memory(self, work_mem_bytes: int) -> "CostParameters":
        """A copy with a different per-operator memory budget (e.g. 128MB)."""
        return replace(self, work_mem_bytes=work_mem_bytes)


#: The configuration used for Experiment 1/2 (6MB per operator).
DEFAULT_COST_PARAMETERS = CostParameters()


@dataclass(frozen=True)
class CostModel:
    """Cost formulas for every physical operator, in milliseconds.

    Each method takes cardinalities (rows) and row widths (bytes) and
    returns the operator's own cost; plan-level composition is the
    optimizer's job.  A join's ``*_blocks`` form takes the block counts the
    plan DP works out once per group; its rows/width method feeds it :meth:`blocks`.
    """

    parameters: CostParameters = DEFAULT_COST_PARAMETERS

    # -- helpers -----------------------------------------------------------

    def blocks(self, rows: float, row_width: float) -> float:
        """Number of blocks occupied by ``rows`` rows of ``row_width`` bytes."""
        if rows <= 0:
            return 1.0
        return max(1.0, math.ceil(rows * row_width / self.parameters.block_size))

    def _cpu(self, blocks: float) -> float:
        return blocks * self.parameters.cpu_ms_per_block

    def _read(self, blocks: float) -> float:
        return blocks * self.parameters.read_ms_per_block

    def _write(self, blocks: float) -> float:
        return blocks * self.parameters.write_ms_per_block

    # -- scans -------------------------------------------------------------

    def table_scan(self, rows: float, row_width: float) -> float:
        """Sequential scan of a stored relation."""
        b = self.blocks(rows, row_width)
        return self.parameters.seek_ms + self._read(b) + self._cpu(b)

    def indexed_selection(
        self, rows: float, row_width: float, selectivity: float
    ) -> float:
        """Clustered-index selection reading only the matching fraction.

        The clustered index keeps matching rows contiguous, so the I/O is the
        selected fraction of the relation's blocks plus one seek.
        """
        selectivity = min(max(selectivity, 0.0), 1.0)
        total_blocks = self.blocks(rows, row_width)
        matching = max(1.0, math.ceil(total_blocks * selectivity))
        return self.parameters.seek_ms + self._read(matching) + self._cpu(matching)

    # -- pipelined unary operators ------------------------------------------

    def filter(self, input_rows: float, row_width: float) -> float:
        """Predicate evaluation over a pipelined input (CPU only)."""
        return self._cpu(self.blocks(input_rows, row_width))

    def project(self, input_rows: float, row_width: float) -> float:
        """Column pruning over a pipelined input (CPU only, negligible)."""
        return self._cpu(self.blocks(input_rows, row_width)) * 0.5

    # -- sorting -------------------------------------------------------------

    def sort(self, rows: float, row_width: float) -> float:
        """External merge sort of a pipelined input.

        In-memory sorts cost only CPU; larger inputs pay one run-generation
        pass plus ``ceil(log_{M-1}(runs))`` merge passes of read+write I/O.
        """
        b = self.blocks(rows, row_width)
        memory = self.parameters.memory_blocks
        if b <= memory:
            return self._cpu(b) * 2.0
        runs = math.ceil(b / memory)
        fan_in = max(memory - 1, 2)
        merge_passes = max(1, math.ceil(math.log(runs, fan_in)))
        io_passes = 1 + merge_passes  # run generation + merges
        return (
            2.0 * self.parameters.seek_ms * io_passes
            + io_passes * (self._read(b) + self._write(b))
            + self._cpu(b) * io_passes
        )

    # -- joins ----------------------------------------------------------------

    def merge_join(
        self,
        left_rows: float,
        left_width: float,
        right_rows: float,
        right_width: float,
        output_rows: float,
    ) -> float:
        """Merge join of two inputs already sorted on the join keys (CPU only)."""
        return self.merge_join_blocks(
            self.blocks(left_rows, left_width),
            self.blocks(right_rows, right_width),
            self.blocks(output_rows, left_width + right_width),
        )

    def merge_join_blocks(self, left: float, right: float, output: float) -> float:
        """:meth:`merge_join` of inputs and an output of ``left``/``right``/``output`` blocks."""
        return self._cpu(left + right) + self._cpu(output) * 0.5

    def nested_loop_join(
        self,
        outer_rows: float,
        outer_width: float,
        inner_rows: float,
        inner_width: float,
        inner_is_stored: bool,
    ) -> float:
        """Block nested-loops join."""
        return self.nested_loop_join_blocks(
            self.blocks(outer_rows, outer_width),
            self.blocks(inner_rows, inner_width),
            inner_is_stored,
        )

    def nested_loop_join_blocks(self, outer: float, inner: float, inner_is_stored: bool) -> float:
        """:meth:`nested_loop_join` of an outer and an inner of ``outer``/``inner`` blocks.

        The outer input is consumed once (its cost is charged to its own
        sub-plan); the inner input must be rescanned once per outer chunk.
        If the inner is not a stored relation it is first spooled to a
        temporary file (one write pass), and every pass after the first one
        re-reads it from disk.
        """
        chunk = max(self.parameters.memory_blocks - 2, 1)
        passes = max(1, math.ceil(outer / chunk))
        cost = self._cpu(outer + passes * inner)
        rescans = passes if not inner_is_stored else passes - 1
        if not inner_is_stored:
            cost += self.parameters.seek_ms + self._write(inner)
        if rescans > 0:
            cost += rescans * (self.parameters.seek_ms + self._read(inner))
        return cost

    def index_nested_loop_join(
        self,
        outer_rows: float,
        inner_rows: float,
        inner_width: float,
        inner_distinct_keys: float,
    ) -> float:
        """Index nested-loops join probing a clustered index on the inner relation.

        Each outer row triggers one index lookup reading the contiguous block
        range holding its matches.
        """
        inner_blocks = self.blocks(inner_rows, inner_width)
        matches_per_probe = inner_rows / max(inner_distinct_keys, 1.0)
        blocks_per_probe = max(
            1.0, matches_per_probe * inner_width / self.parameters.block_size
        )
        per_probe = self.parameters.seek_ms * 0.5 + self._read(blocks_per_probe)
        probe_cost = outer_rows * per_probe
        # Probing can never be costlier than scanning the whole inner per chunk
        # of outer rows; cap it at a full-scan equivalent to avoid pathologies
        # for very large outer inputs.
        cap = outer_rows * self._cpu(1.0) + max(outer_rows / 1000.0, 1.0) * (
            self.parameters.seek_ms + self._read(inner_blocks)
        )
        return min(probe_cost, cap) + self._cpu(self.blocks(outer_rows, 8.0))

    # -- aggregation -----------------------------------------------------------

    def sort_aggregate(self, input_rows: float, input_width: float) -> float:
        """Sort-based aggregation over an input sorted on the grouping keys."""
        return self._cpu(self.blocks(input_rows, input_width))

    def scalar_aggregate(self, input_rows: float, input_width: float) -> float:
        """Aggregation without grouping (single output row)."""
        return self._cpu(self.blocks(input_rows, input_width))

    # -- materialization (the MQO operators) -------------------------------------

    def materialize(self, rows: float, row_width: float) -> float:
        """Write an intermediate result sequentially to disk for sharing."""
        b = self.blocks(rows, row_width)
        return self.parameters.seek_ms + self._write(b)

    def read_materialized(self, rows: float, row_width: float) -> float:
        """Re-read a previously materialized result (sequential scan)."""
        b = self.blocks(rows, row_width)
        return self.parameters.seek_ms + self._read(b) + self._cpu(b)
