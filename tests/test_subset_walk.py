"""The one subset walk, `interp.extensions`, against plain bitmask
references whose members are built with `Interpretation.of`, so each
one passes the full universe check: the members and their order, and
the overflow outcome of every sweep built on the walk."""

import random
from itertools import islice

import pytest

from aggsem import ArithmeticOverflowError, Interpretation, UniverseMismatchError
from aggsem.bounds import exact_bounds, interval_truth
from aggsem.eval2 import (
    aggregate_holds_everywhere,
    aggregate_value,
    eval_aggregate,
    literal_holds,
)
from aggsem.interp import extensions, interval_expansion_count
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs, is_convex, sat3
from aggsem.truth import TruthValue

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64


def reference_members(x, free):
    """x united with each subset of free, free[0] the least significant bit."""
    for mask in range(1 << len(free)):
        extra = {a for bit, a in enumerate(free) if mask >> bit & 1}
        yield Interpretation.of(x.universe, x.atoms | extra)


# ---------------------------------------------------------------------------
# members and order
# ---------------------------------------------------------------------------


def test_walk_matches_bitmask_reference():
    rng = random.Random(2022)
    for _ in range(400):
        universe = tuple(f"a{k}" for k in range(rng.randint(0, 9)))
        # free in any order; x may already hold some free atoms
        free = rng.sample(universe, rng.randint(0, min(7, len(universe))))
        x = Interpretation.of(universe, [a for a in universe if rng.random() < 0.4])
        expansions = interval_expansion_count()
        members = list(extensions(x, free))
        assert interval_expansion_count() == expansions
        expected = list(reference_members(x, free))
        assert members == expected, (x, free)
        assert [hash(m) for m in members] == [hash(m) for m in expected]
        assert all(m.universe == universe for m in members)
        # a walk stopped early yields a prefix of the same members
        stop = rng.randint(0, len(expected))
        assert list(islice(extensions(x, free), stop)) == expected[:stop]


@pytest.mark.parametrize("position", [0, 3])
def test_walk_rejects_foreign_atom_before_first_member(position):
    universe = ("p", "q", "r")
    free = ["p", "q", "r"]
    free.insert(position, "zz")
    walk = extensions(Interpretation.of(universe), free)
    with pytest.raises(UniverseMismatchError, match="atoms outside the universe: zz"):
        next(walk)


# ---------------------------------------------------------------------------
# overflow outcomes of the sweeps built on the walk
# ---------------------------------------------------------------------------

UNIVERSE = ("p", "q", "r", "s")


def _outcome(fn):
    try:
        return ("ok", fn())
    except ArithmeticOverflowError as exc:
        return ("overflow", str(exc))


def _random_aggregate(rng):
    entries = tuple(
        (
            rng.choice((HALF, -HALF, HALF, -HALF, 1, -1, 2, 0)),
            Literal(rng.choice(UNIVERSE), rng.random() < 0.3),
        )
        for _ in range(rng.randint(1, 5))
    )
    return AggregateAtom(
        rng.choice(list(AggFunc)),
        entries,
        rng.choice(list(Comparison)),
        rng.choice((0, 1, -1, HALF, -HALF)),
    )


def _undefined(atom, pair):
    """The atom's condition atoms undefined in the pair, universe order."""
    return [a for a in pair.undefined_atoms() if a in atom.condition_atoms]


def reference_interval_truth(atom, pair):
    members = reference_members(pair.lower, _undefined(atom, pair))
    values = (eval_aggregate(atom, z) for z in members)
    first = next(values)
    if any(value != first for value in values):
        return TruthValue.UNDEFINED
    return TruthValue.from_bool(first)


def reference_holds_everywhere(atom, pair):
    members = reference_members(pair.lower, _undefined(atom, pair))
    return all(eval_aggregate(atom, z) for z in members)


def reference_bounds(atom, pair):
    """(lb, ub) of min/max/avg over every branch choice; the branch atoms
    are the undefined condition atoms in order of first occurrence."""
    undefined = set(pair.undefined_atoms())
    branch = list(dict.fromkeys(lit.atom for _, lit in atom.entries if lit.atom in undefined))
    values = []
    for z in reference_members(pair.lower, branch):
        multiset = [w for w, lit in atom.entries if literal_holds(lit, z)]
        if multiset:
            values.append(aggregate_value(atom.func, multiset).value)
    return (min(values), max(values)) if values else (None, None)


def reference_mr(atom, pair):
    if not eval_aggregate(atom, pair.upper):
        return False
    base = [a for a in atom.condition_atoms if a in pair.lower.atoms]
    return any(
        eval_aggregate(atom, z) for z in reference_members(Interpretation.of(pair.universe), base)
    )


def reference_convex(atom):
    atoms = atom.condition_atoms
    sat = [eval_aggregate(atom, z) for z in reference_members(Interpretation.of(atoms), atoms)]
    masks = range(len(sat))
    return not any(
        not sat[y]
        and any(sat[x] for x in masks if x & y == x)
        and any(sat[z] for z in masks if z & y == y)
        for y in masks
    )


def test_sweep_overflow_outcomes_match_reference():
    rng = random.Random(62)
    pairs = all_consistent_pairs(UNIVERSE)
    seen = {}

    def check(name, label, main, reference):
        ours = _outcome(main)
        assert ours == _outcome(reference), (name, label)
        seen.setdefault(name, set()).add(ours[0])

    def bounds(atom, pair):
        found = exact_bounds(atom, pair)
        return found.lb.value, found.ub.value

    for _ in range(120):
        atom = _random_aggregate(rng)
        check("convex", str(atom), lambda: is_convex(atom), lambda: reference_convex(atom))
        for pair in pairs:
            label = f"{atom} at {pair}"
            check(
                "interval_truth",
                label,
                lambda: interval_truth(atom, pair),
                lambda: reference_interval_truth(atom, pair),
            )
            check(
                "holds_everywhere",
                label,
                lambda: aggregate_holds_everywhere(atom, pair),
                lambda: reference_holds_everywhere(atom, pair),
            )
            check("mr", label, lambda: sat3("mr", atom, pair), lambda: reference_mr(atom, pair))
            if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
                check(
                    "bounds",
                    label,
                    lambda: bounds(atom, pair),
                    lambda: reference_bounds(atom, pair),
                )
    # every sweep reached both outcomes, so values and messages were compared
    assert seen == dict.fromkeys(seen, {"ok", "overflow"}), seen
    assert set(seen) == {"convex", "interval_truth", "holds_everywhere", "mr", "bounds"}
