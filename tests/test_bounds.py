"""Exact interval bounds and the bound-based truth function."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsem import (
    AggFunc,
    AggregateAtom,
    ArithmeticOverflowError,
    Comparison,
    Literal,
    TooLargeError,
    exact_bounds,
)
from aggsem.bounds import bnd_truth, interval_truth
from aggsem.oracle import brute_bounds, brute_sat_ult, brute_sat_ult_upper, random_aggregate_atom
from aggsem.ternary import all_consistent_pairs
from aggsem.truth import TruthValue

from .test_eval2 import agg
from .conftest import pair

T, U, F = TruthValue.TRUE, TruthValue.UNDEFINED, TruthValue.FALSE


# ---------------------------------------------------------------------------
# exact_bounds
# ---------------------------------------------------------------------------


def test_sum_bounds_mixed_signs():
    bounds = exact_bounds(agg("sum", [(1, "p"), (-1, "q")], ">=", 0), pair(("p", "q"), (), ("p", "q")))
    assert (bounds.lb.value, bounds.ub.value) == (-1, 1)
    assert bounds.empty_possible and not bounds.empty_certain


def test_sum_bounds_complementary_conditions_are_correlated():
    # both branches of the single atom contribute weight 1: the value is fixed
    bounds = exact_bounds(agg("sum", [(1, "p"), (1, "~p")], "=", 1), pair(("p",), (), ("p",)))
    assert (bounds.lb.value, bounds.ub.value) == (1, 1)
    assert not bounds.empty_possible


def test_prod_bounds_sign_flips():
    bounds = exact_bounds(agg("prod", [(2, "p"), (-3, "q")], ">", 0), pair(("p", "q"), (), ("p", "q")))
    assert (bounds.lb.value, bounds.ub.value) == (-6, 2)
    assert bounds.empty_possible and not bounds.empty_certain


def test_card_bounds_ignore_weights():
    bounds = exact_bounds(agg("card", [(5, "p"), (-7, "q")], ">=", 1), pair(("p", "q"), ("p",), ("p", "q")))
    assert (bounds.lb.value, bounds.ub.value) == (1, 2)


def test_min_bounds_with_possible_emptiness():
    bounds = exact_bounds(agg("min", [(4, "p")], ">", 0), pair(("p",), (), ("p",)))
    assert (bounds.lb.value, bounds.ub.value) == (4, 4)
    assert bounds.empty_possible and not bounds.empty_certain


def test_bounds_all_undefined():
    bounds = exact_bounds(agg("avg", [(4, "p")], ">", 0), pair(("p", "q"), (), ()))
    assert not bounds.lb.defined and not bounds.ub.defined
    assert bounds.empty_certain


def test_bounds_reject_inconsistent_pair():
    from aggsem import InconsistentPairError, Interpretation, InterpretationPair

    bad = InterpretationPair(Interpretation.of(("p",), "p"), Interpretation.of(("p",)))
    with pytest.raises(InconsistentPairError):
        exact_bounds(agg("sum", [(1, "p")], ">", 0), bad)


BIG, HUGE = 1 << 62, 1 << 40


@pytest.mark.parametrize(
    "func, entries, lower, message",
    [
        ("sum", [(BIG, "p"), (BIG, "q")], (), f"sum {1 << 63} "),
        ("sum", [(-BIG, "p"), (-BIG, "q"), (-1, "r")], (), f"sum {-(1 << 63) - 1} "),
        ("sum", [(-BIG, "p"), (-BIG, "q"), (-1, "r")], ("p", "q"), f"sum {-(1 << 63) - 1} "),
        ("prod", [(HUGE, "p"), (HUGE, "q")], (), f"product {1 << 80} "),
        ("prod", [(-HUGE, "p"), (HUGE, "q")], (), f"product {-(1 << 80)} "),
    ],
)
def test_sum_prod_bounds_overflow(func, entries, lower, message):
    universe = ("p", "q", "r")
    at = pair(universe, lower, universe)
    with pytest.raises(ArithmeticOverflowError) as error:
        exact_bounds(agg(func, entries, ">=", 0), at)
    assert str(error.value) == message + "leaves the signed 64-bit range"


def test_prod_bounds_reach_two_to_the_62():
    at = pair(("p", "q", "r"), (), ("p", "q", "r"))
    bounds = exact_bounds(agg("prod", [(1 << 31, "p"), (1 << 31, "q")], ">=", 0), at)
    assert (bounds.lb.value, bounds.ub.value) == (1, 1 << 62)


def test_min_branch_enumeration_cap():
    atoms = [f"a{i}" for i in range(21)]
    a = agg("min", [(1, name) for name in atoms], ">", 0)
    with pytest.raises(TooLargeError):
        exact_bounds(a, pair(tuple(atoms), (), tuple(atoms)))


# ---------------------------------------------------------------------------
# bnd_truth
# ---------------------------------------------------------------------------


def test_bnd_truth_refuted_equality():
    assert bnd_truth(agg("sum", [(1, "p"), (-1, "q")], "=", 2), pair(("p", "q"), (), ("p", "q"))) is F


def test_bnd_truth_forced_equality():
    assert bnd_truth(agg("sum", [(1, "p"), (1, "~p")], "=", 1), pair(("p",), (), ("p",))) is T


def test_bnd_truth_exact_pair_is_two_valued():
    assert bnd_truth(agg("sum", [(1, "p")], ">", 0), pair(("p",), "p", "p")) is T


def test_bnd_truth_undecided_interval():
    assert bnd_truth(agg("sum", [(1, "p")], ">", 0), pair(("p",), (), ("p",))) is U


def test_bnd_truth_inequality_gap_stays_undefined():
    # achievable sums {1, 3}: the sweep knows 2 is missed, the bounds do not
    a_ne = agg("sum", [(2, "p"), (1, "q")], "!=", 2)
    a_eq = agg("sum", [(2, "p"), (1, "q")], "=", 2)
    at = pair(("p", "q"), ("q",), ("p", "q"))
    assert bnd_truth(a_ne, at) is U
    assert interval_truth(a_ne, at) is T
    assert bnd_truth(a_eq, at) is U
    assert interval_truth(a_eq, at) is F


def test_bnd_truth_min_fallback_matches_interval():
    a = agg("min", [(1, "p")], ">=", 0)
    at = pair(("p",), (), ("p",))
    # one interval member has an empty multiset, so the atom is not forced
    assert bnd_truth(a, at) is interval_truth(a, at) is U


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

ATOMS3 = ("a", "b", "c")


@st.composite
def aggregate_atoms(draw):
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-4, max_value=4),
                st.builds(Literal, st.sampled_from(ATOMS3), st.booleans()),
            ),
            min_size=0,
            max_size=5,
        )
    )
    return AggregateAtom(
        func=draw(st.sampled_from(list(AggFunc))),
        entries=tuple(entries),
        cmp=draw(st.sampled_from(list(Comparison))),
        bound=draw(st.integers(min_value=-6, max_value=12)),
    )


@st.composite
def consistent_pairs(draw):
    upper = draw(st.frozensets(st.sampled_from(ATOMS3)))
    lower = frozenset(a for a in upper if draw(st.booleans()))
    return pair(ATOMS3, lower, upper)


@settings(max_examples=300)
@given(aggregate_atoms(), consistent_pairs())
def test_bounds_match_brute_force_property(atom, at):
    assert exact_bounds(atom, at) == brute_bounds(atom, at)


@settings(max_examples=300)
@given(aggregate_atoms(), consistent_pairs())
def test_bnd_truth_never_contradicts_sweep_property(atom, at):
    assert bnd_truth(atom, at).leq_precision(interval_truth(atom, at))


def _pairs_over(atoms):
    return all_consistent_pairs(tuple(atoms))


def test_bounds_match_brute_force_fuzz():
    rng = random.Random(20240818)
    atoms = ("a", "b", "c", "d")
    for _ in range(1500):
        atom = random_aggregate_atom(rng, atoms, max_entries=5)
        lower = frozenset(a for a in atoms if rng.random() < 0.3)
        upper = lower | frozenset(a for a in atoms if rng.random() < 0.5)
        at = pair(atoms, lower, upper)
        assert exact_bounds(atom, at) == brute_bounds(atom, at), (str(atom), str(at))


def test_bnd_truth_is_well_behaved_truth_function():
    rng = random.Random(5)
    atoms = ("a", "b", "c")
    pairs = _pairs_over(atoms)
    from aggsem import eval_aggregate, leq_precision

    for _ in range(120):
        atom = random_aggregate_atom(rng, atoms, max_entries=4)
        values = {p: bnd_truth(atom, p) for p in pairs}
        for p in pairs:
            if p.is_exact:
                assert values[p] == TruthValue.from_bool(eval_aggregate(atom, p.lower))
        for a in pairs:
            for b in pairs:
                if leq_precision(a, b):
                    assert values[a].leq_precision(values[b]), (str(atom), str(a), str(b))


def test_bnd_truth_below_interval_truth_everywhere():
    rng = random.Random(6)
    atoms = ("a", "b", "c")
    pairs = _pairs_over(atoms)
    for _ in range(120):
        atom = random_aggregate_atom(rng, atoms, max_entries=4)
        for p in pairs:
            assert bnd_truth(atom, p).leq_precision(interval_truth(atom, p))


def test_bnd_equals_interval_truth_for_sum_card_orderings():
    rng = random.Random(7)
    atoms = ("a", "b", "c")
    pairs = _pairs_over(atoms)
    orderings = (Comparison.LT, Comparison.LE, Comparison.GT, Comparison.GE)
    for _ in range(150):
        atom = random_aggregate_atom(
            rng, atoms, max_entries=4, funcs=(AggFunc.SUM, AggFunc.CARD), cmps=orderings
        )
        for p in pairs:
            assert bnd_truth(atom, p) is interval_truth(atom, p), (str(atom), str(p))


@pytest.mark.parametrize("func", list(AggFunc))
def test_interval_truth_matches_oracle(func):
    # the single sweep answers t, f or u exactly as the unrestricted
    # universal and existential oracles do
    rng = random.Random(func.value)
    pairs = all_consistent_pairs(("a", "b", "c"))
    for _ in range(40):
        atom = random_aggregate_atom(rng, ("a", "b", "c"), funcs=(func,))
        for p in pairs:
            if brute_sat_ult(atom, p):
                expected = T
            elif not brute_sat_ult_upper(atom, p):
                expected = F
            else:
                expected = U
            assert interval_truth(atom, p) is expected, (str(atom), str(p))
