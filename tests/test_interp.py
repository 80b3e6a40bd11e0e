"""Subset and precision orders, interval enumeration, lattice laws."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggsem import (
    InconsistentPairError,
    Interpretation,
    InterpretationPair,
    UniverseMismatchError,
    enumerate_interval,
    leq_precision,
    leq_subset,
)
from aggsem.interp import extensions, interval_expansion_count
from aggsem.ternary import all_consistent_pairs

from .conftest import interp, pair

U3 = ("p", "q", "s")


def all_interpretations(universe):
    return [
        interp(universe, [a for bit, a in enumerate(universe) if mask >> bit & 1])
        for mask in range(1 << len(universe))
    ]


# ---------------------------------------------------------------------------
# leq_subset
# ---------------------------------------------------------------------------


def test_subset_bottom():
    assert leq_subset(interp(U3), interp(U3, "p"))


def test_subset_incomparable():
    assert not leq_subset(interp(U3, "p"), interp(U3, "q"))


def test_subset_reflexive():
    assert leq_subset(interp(U3, "p"), interp(U3, "p"))


def test_subset_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        leq_subset(interp(("p",), "p"), interp(("p", "q"), "p"))


# ---------------------------------------------------------------------------
# leq_precision
# ---------------------------------------------------------------------------


def test_precision_least_element_refines_to_small_upper():
    assert leq_precision(pair(U3, (), U3), pair(U3, (), "q"))


def test_precision_reflexive_on_exact():
    exact = pair(U3, "p", "p")
    assert leq_precision(exact, exact)


def test_precision_exact_is_maximal():
    assert not leq_precision(pair(U3, "p", "p"), pair(U3, (), "p"))


@settings(max_examples=200)
@given(st.data())
def test_precision_interval_containment(data):
    universe = ("a", "b", "c")
    interps = all_interpretations(universe)
    x = data.draw(st.sampled_from(interps))
    y = data.draw(st.sampled_from([i for i in interps if x.atoms <= i.atoms]))
    x2 = data.draw(st.sampled_from(interps))
    y2 = data.draw(st.sampled_from([i for i in interps if x2.atoms <= i.atoms]))
    a, b = InterpretationPair(x, y), InterpretationPair(x2, y2)
    if leq_precision(a, b):
        inner = {i.atoms for i in enumerate_interval(b.lower, b.upper)}
        outer = {i.atoms for i in enumerate_interval(a.lower, a.upper)}
        assert inner <= outer


def test_precision_partial_order_exhaustive():
    universe = ("a", "b", "c", "d")
    pairs = all_consistent_pairs(universe)
    least = InterpretationPair.least_precise(universe)
    for a in pairs:
        assert leq_precision(least, a)
        assert leq_precision(a, a)
    for a, b in product(pairs, repeat=2):
        if leq_precision(a, b) and leq_precision(b, a):
            assert a == b


def test_precision_transitive_exhaustive_three_atoms():
    pairs = all_consistent_pairs(("a", "b", "c"))
    below = {
        a: [b for b in pairs if leq_precision(a, b)] for a in pairs
    }
    for a in pairs:
        for b in below[a]:
            for c in below[b]:
                assert leq_precision(a, c)


def test_pair_consistency_flag():
    assert pair(U3, "p", ("p", "q")).is_consistent
    inconsistent = InterpretationPair(interp(U3, "p"), interp(U3))
    assert not inconsistent.is_consistent
    with pytest.raises(InconsistentPairError):
        inconsistent.require_consistent()


# ---------------------------------------------------------------------------
# enumerate_interval
# ---------------------------------------------------------------------------


def test_interval_bottom_to_singleton():
    universe = ("p",)
    out = list(enumerate_interval(interp(universe), interp(universe, "p")))
    assert [z.atoms for z in out] == [frozenset(), frozenset({"p"})]


def test_interval_exact():
    out = list(enumerate_interval(interp(U3, "p"), interp(U3, "p")))
    assert [z.atoms for z in out] == [frozenset({"p"})]


def test_interval_count_is_two_to_the_free_atoms():
    universe = ("a", "b", "c", "d", "e")
    interps = all_interpretations(universe)
    for x in interps:
        for y in interps:
            if not x.atoms <= y.atoms:
                continue
            members = list(enumerate_interval(x, y))
            assert len(members) == 1 << len(y.atoms - x.atoms)
            assert len({m.atoms for m in members}) == len(members)
            assert all(x.atoms <= m.atoms <= y.atoms for m in members)
            # the walker behind it: same members, same order, no count
            expansions = interval_expansion_count()
            free = [a for a in universe if a in y.atoms - x.atoms]
            assert list(extensions(x, free)) == members
            assert interval_expansion_count() == expansions


def test_interval_restrict_freezes_other_atoms():
    universe = ("a", "b", "c")
    out = list(
        enumerate_interval(interp(universe), interp(universe, universe), restrict={"b"})
    )
    assert [z.atoms for z in out] == [frozenset(), frozenset({"b"})]


def test_interval_requires_subset():
    with pytest.raises(InconsistentPairError):
        enumerate_interval(interp(U3, "p"), interp(U3, "q"))


def test_interval_deterministic_order():
    universe = ("a", "b")
    first = [z.atoms for z in enumerate_interval(interp(universe), interp(universe, universe))]
    second = [z.atoms for z in enumerate_interval(interp(universe), interp(universe, universe))]
    assert first == second
    assert first[0] == frozenset()
    assert first[-1] == frozenset({"a", "b"})


def test_interpretation_rejects_foreign_atoms():
    with pytest.raises(UniverseMismatchError):
        Interpretation.of(("p",), ("q",))


def test_repr_lists_atoms_in_universe_order():
    universe = tuple(f"a{k}" for k in range(40))
    chosen = universe[::3]
    built = [
        Interpretation.of(universe, chosen),
        Interpretation.of(universe, reversed(chosen)),
        Interpretation.full(universe).difference(a for a in universe if a not in chosen),
    ]
    expected = (
        f"Interpretation(universe={universe!r}, "
        f"atoms=frozenset({{{', '.join(map(repr, chosen))}}}))"
    )
    assert [repr(i) for i in built] == [expected] * 3
    assert eval(expected, {"Interpretation": Interpretation}) == built[0]
    empty = Interpretation.empty(("q", "p"))
    assert repr(empty) == "Interpretation(universe=('q', 'p'), atoms=frozenset())"
    assert eval(repr(empty), {"Interpretation": Interpretation}) == empty
