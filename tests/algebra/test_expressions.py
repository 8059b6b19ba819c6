"""Unit tests for scalar expressions, predicates and entailment."""

import pytest

from repro.algebra.expressions import (
    AggregateExpr,
    AggregateFunction,
    And,
    Between,
    ColumnRef,
    Comparison,
    ComparisonOp,
    InList,
    Literal,
    Or,
    TruePredicate,
    between,
    col,
    conjunction,
    conjuncts,
    disjunction,
    eq,
    ge,
    gt,
    in_list,
    is_equijoin_predicate,
    is_join_predicate,
    le,
    lit,
    lt,
    ne,
    referenced_columns,
    referenced_qualifiers,
    single_column,
)


class TestColumnRef:
    def test_qualifier_parsing(self):
        assert col("n1.n_name") == ColumnRef("n_name", "n1")
        assert col("o_orderdate") == ColumnRef("o_orderdate", None)
        assert str(col("n1.n_name")) == "n1.n_name"

    def test_with_qualifier(self):
        assert col("x").with_qualifier("t") == ColumnRef("x", "t")


class TestConstructors:
    def test_comparison_builders(self):
        assert eq("a", 1) == Comparison(col("a"), ComparisonOp.EQ, lit(1))
        assert ne("a", 1).op is ComparisonOp.NE
        assert lt("a", 1).op is ComparisonOp.LT
        assert le("a", 1).op is ComparisonOp.LE
        assert gt("a", 1).op is ComparisonOp.GT
        assert ge("a", 1).op is ComparisonOp.GE

    def test_column_to_column(self):
        predicate = eq(col("a"), col("b"))
        assert isinstance(predicate.right, ColumnRef)
        assert is_join_predicate(predicate)
        assert is_equijoin_predicate(predicate)
        assert not is_equijoin_predicate(lt(col("a"), col("b")))
        assert not is_join_predicate(eq("a", 5))

    def test_between_and_in(self):
        b = between("a", 1, 10)
        assert isinstance(b, Between)
        assert b.low == lit(1) and b.high == lit(10)
        i = in_list("a", [1, 2, 3])
        assert isinstance(i, InList)
        assert len(i.values) == 3

    def test_operator_flip(self):
        assert ComparisonOp.LT.flip() is ComparisonOp.GT
        assert ComparisonOp.EQ.flip() is ComparisonOp.EQ


class TestConjunctionDisjunction:
    def test_conjunction_flattens(self):
        p = conjunction([eq("a", 1), conjunction([eq("b", 2), eq("c", 3)])])
        assert isinstance(p, And)
        assert len(conjuncts(p)) == 3

    def test_conjunction_of_nothing_is_true(self):
        assert isinstance(conjunction([]), TruePredicate)
        assert conjuncts(TruePredicate()) == ()
        assert conjuncts(None) == ()

    def test_single_conjunct_unwrapped(self):
        assert conjunction([eq("a", 1)]) == eq("a", 1)

    def test_disjunction_dedups(self):
        p = disjunction([eq("a", 1), eq("a", 1)])
        assert p == eq("a", 1)
        q = disjunction([eq("a", 1), eq("a", 2)])
        assert isinstance(q, Or)

    def test_predicate_operators(self):
        p = eq("a", 1) & eq("b", 2)
        assert isinstance(p, And)
        q = eq("a", 1) | eq("a", 2)
        assert isinstance(q, Or)


class TestReferences:
    def test_referenced_columns(self):
        p = conjunction([eq(col("t1.a"), col("t2.b")), lt(col("t1.c"), 5)])
        assert referenced_columns(p) == {col("t1.a"), col("t2.b"), col("t1.c")}
        assert referenced_qualifiers(p) == {"t1", "t2"}

    def test_single_column(self):
        assert single_column(lt(col("a"), 5)) == col("a")
        assert single_column(eq(col("a"), col("b"))) is None
        assert single_column(between(col("a"), 1, 2)) == col("a")


class TestAggregates:
    def test_aggregate_expr_str(self):
        a = AggregateExpr(AggregateFunction.SUM, col("l_extendedprice"), "revenue")
        assert "sum" in str(a)
        assert "revenue" in str(a)

    def test_count_star(self):
        a = AggregateExpr(AggregateFunction.COUNT, None, "n")
        assert "*" in str(a)
