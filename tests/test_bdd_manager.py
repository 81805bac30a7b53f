"""Unit tests for the ROBDD manager."""

import itertools

import pytest

from repro.errors import BddError
from repro.bdd.manager import ONE, ZERO, BddManager


@pytest.fixture
def mgr():
    return BddManager(["a", "b", "c"])


class TestPrimitives:
    def test_var_and_nvar(self, mgr):
        a = mgr.var("a")
        na = mgr.nvar("a")
        assert mgr.evaluate(a, {"a": True})
        assert not mgr.evaluate(a, {"a": False})
        assert mgr.evaluate(na, {"a": False})

    def test_unknown_variable_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.var("zzz")

    def test_duplicate_variables_rejected(self):
        with pytest.raises(BddError):
            BddManager(["a", "a"])

    def test_reduction_no_redundant_nodes(self, mgr):
        # ite(a, x, x) must collapse to x.
        b = mgr.var("b")
        f = mgr.ite(mgr.var("a"), b, b)
        assert f == b

    def test_unique_table_sharing(self, mgr):
        f1 = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        f2 = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        assert f1 == f2


class TestOperations:
    def _truth(self, mgr, f, names):
        table = []
        for bits in itertools.product([False, True], repeat=len(names)):
            table.append(mgr.evaluate(f, dict(zip(names, bits))))
        return table

    def test_and(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        assert self._truth(mgr, f, ["a", "b"]) == [False, False, False, True]

    def test_or(self, mgr):
        f = mgr.apply_or(mgr.var("a"), mgr.var("b"))
        assert self._truth(mgr, f, ["a", "b"]) == [False, True, True, True]

    def test_xor(self, mgr):
        f = mgr.apply_xor(mgr.var("a"), mgr.var("b"))
        assert self._truth(mgr, f, ["a", "b"]) == [False, True, True, False]

    def test_not(self, mgr):
        f = mgr.apply_not(mgr.var("a"))
        assert self._truth(mgr, f, ["a"]) == [True, False]

    def test_double_not_is_identity(self, mgr):
        a = mgr.var("a")
        assert mgr.apply_not(mgr.apply_not(a)) == a

    def test_terminal_cases(self, mgr):
        a = mgr.var("a")
        assert mgr.apply_and(a, ZERO) == ZERO
        assert mgr.apply_and(a, ONE) == a
        assert mgr.apply_or(a, ONE) == ONE
        assert mgr.apply_or(a, ZERO) == a

    def test_ite_select(self, mgr):
        f = mgr.ite(mgr.var("a"), mgr.var("b"), mgr.var("c"))
        for a, b, c in itertools.product([False, True], repeat=3):
            expected = b if a else c
            assert mgr.evaluate(f, {"a": a, "b": b, "c": c}) == expected

    def test_apply_many_and(self, mgr):
        f = mgr.apply_many("and", [mgr.var("a"), mgr.var("b"), mgr.var("c")])
        assert mgr.evaluate(f, {"a": True, "b": True, "c": True})
        assert not mgr.evaluate(f, {"a": True, "b": False, "c": True})

    def test_apply_many_empty_raises(self, mgr):
        with pytest.raises(BddError):
            mgr.apply_many("and", [])

    def test_apply_many_unknown_op(self, mgr):
        with pytest.raises(BddError):
            mgr.apply_many("nand", [mgr.var("a")])

    def test_complement_via_xor_one(self, mgr):
        a = mgr.var("a")
        assert mgr.apply_xor(a, ONE) == mgr.apply_not(a)


class TestProbability:
    def test_var_probability(self, mgr):
        assert mgr.probability(mgr.var("a"), {"a": 0.3}) == pytest.approx(0.3)

    def test_and_probability_independent(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        p = mgr.probability(f, {"a": 0.3, "b": 0.5})
        assert p == pytest.approx(0.15)

    def test_or_probability(self, mgr):
        f = mgr.apply_or(mgr.var("a"), mgr.var("b"))
        p = mgr.probability(f, {"a": 0.3, "b": 0.5})
        assert p == pytest.approx(0.3 + 0.5 - 0.15)

    def test_terminals(self, mgr):
        assert mgr.probability(ZERO, {}) == 0.0
        assert mgr.probability(ONE, {}) == 1.0

    def test_missing_probability_defaults_half(self, mgr):
        f = mgr.var("a")
        assert mgr.probability(f, {}) == pytest.approx(0.5)

    def test_xor_probability(self, mgr):
        f = mgr.apply_xor(mgr.var("a"), mgr.var("b"))
        p = mgr.probability(f, {"a": 0.9, "b": 0.9})
        assert p == pytest.approx(2 * 0.9 * 0.1)

    def test_shared_variable_correlation_handled(self, mgr):
        # f = a AND NOT a == 0 — BDDs handle reconvergence exactly.
        f = mgr.apply_and(mgr.var("a"), mgr.apply_not(mgr.var("a")))
        assert f == ZERO


class TestAnalysis:
    def test_dag_size_of_var(self, mgr):
        assert mgr.dag_size([mgr.var("a")]) == 1

    def test_dag_size_shares_nodes(self, mgr):
        f = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        g = mgr.apply_and(mgr.var("a"), mgr.var("b"))
        assert mgr.dag_size([f, g]) == mgr.dag_size([f])

    def test_dag_size_of_terminals(self, mgr):
        assert mgr.dag_size([ZERO, ONE]) == 0



class TestBudget:
    def test_node_budget_enforced(self):
        names = [f"x{i}" for i in range(24)]
        small = BddManager(names, max_nodes=16)
        with pytest.raises(BddError):
            acc = ONE
            for name in names:
                acc = small.apply_xor(acc, small.var(name))

    def test_node_count_grows(self, mgr):
        before = mgr.node_count
        mgr.apply_and(mgr.var("a"), mgr.var("b"))
        assert mgr.node_count > before


class TestVariableOrderingEffects:
    def test_order_changes_size(self):
        # f = (a1 & b1) | (a2 & b2) | (a3 & b3): interleaved order is
        # linear, separated order is exponential — the classic example.
        inter = BddManager(["a1", "b1", "a2", "b2", "a3", "b3"])
        sep = BddManager(["a1", "a2", "a3", "b1", "b2", "b3"])

        def build(m):
            terms = [
                m.apply_and(m.var(f"a{i}"), m.var(f"b{i}")) for i in (1, 2, 3)
            ]
            return m.apply_many("or", terms)

        fi = build(inter)
        fs = build(sep)
        assert inter.dag_size([fi]) < sep.dag_size([fs])
