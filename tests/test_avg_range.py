"""`exact_bounds` for `avg` compares the (sum, count) partial values of
the members by cross-multiplication and builds two fractions at the end.
Its bounds, and its errors, are those of the fraction-per-member loop it
replaces, which is kept here as the reference."""

import random
import timeit

import aggsem.bounds as bounds
import aggsem.eval2 as eval2
from aggsem import exact_bounds
from aggsem.interp import InterpretationPair
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs

from .test_bounds_branches import WEIGHTS, reference_exact_bounds
from .test_stable_check import outcome

ATOMS = tuple(f"a{i}" for i in range(8))


def fraction_per_member(high, low):
    """The least and the greatest avg over the members of the half
    tables, one `Fraction` per member, as `bounds._value_range` took them
    before."""
    _, join, value, _ = eval2._RULES[AggFunc.AVG]
    lb = ub = None
    for h in high:
        for partial in low:
            v = value(join(h, partial))
            if v is not None:
                lb = v if lb is None else min(lb, v)
                ub = v if ub is None else max(ub, v)
    return lb, ub


def _avg_atom(rng, atoms):
    entries = [
        (rng.choice(WEIGHTS + (5, -7, 12)), Literal(rng.choice(atoms), rng.random() < 0.4))
        for _ in range(rng.randint(1, 9))
    ]
    return AggregateAtom(AggFunc.AVG, tuple(entries), rng.choice(list(Comparison)), 0)


def _cases(rng):
    """Every consistent pair of four atoms for some atoms, then random
    pairs over eight atoms."""
    for _ in range(30):
        atom = _avg_atom(rng, ATOMS[:4])
        for pair in all_consistent_pairs(ATOMS[:4]):
            yield atom, pair
    for _ in range(600):
        atom = _avg_atom(rng, ATOMS)
        upper = {a for a in ATOMS if rng.random() < 0.8}
        lower = {a for a in upper if rng.random() < 0.3}
        yield atom, InterpretationPair.of(ATOMS, lower, upper)


def test_avg_bounds_match_the_fraction_per_member_loop(monkeypatch):
    rng = random.Random(20261019)
    seen = {"value": 0, "undefined": 0, "error": 0}
    for atom, pair in _cases(rng):
        got = outcome(lambda: exact_bounds(atom, pair))
        with monkeypatch.context() as before:
            before.setattr(bounds, "_avg_range", fraction_per_member)
            expected = outcome(lambda: exact_bounds(atom, pair))
        assert got == expected, (str(atom), str(pair))
        if isinstance(got, tuple):
            seen["error"] += 1
        else:
            seen["value" if got.lb.defined else "undefined"] += 1
    assert all(seen.values()), seen


def test_avg_bounds_raise_at_the_member_the_walk_raises_at():
    """Two members leave the range with different sums; the error names
    the one `extensions` reaches first, as the member walk does."""
    half = 1 << 62
    entries = ((half, Literal("p")), (half, Literal("q")), (half + 1, Literal("r")))
    atom = AggregateAtom(AggFunc.AVG, entries, Comparison.GE, 0)
    for lower in ((), ("p",), ("q",), ("r",)):
        pair = InterpretationPair.of(("p", "q", "r"), lower, ("p", "q", "r"))
        assert outcome(lambda: exact_bounds(atom, pair)) == outcome(
            lambda: reference_exact_bounds(atom, pair)
        )


def test_avg_bounds_build_no_fraction_per_member(monkeypatch):
    """On a 12-atom avg at the least precise pair (4096 members), the
    cross-multiplying loop takes a fraction of the time of the
    fraction-per-member loop (about 1 ms against 17 ms on a 2-core VM)."""
    atoms = tuple(f"c{i}" for i in range(12))
    entries = tuple((3 * i - 17, Literal(a, i % 3 == 0)) for i, a in enumerate(atoms))
    atom = AggregateAtom(AggFunc.AVG, entries, Comparison.GE, 0)
    pair = InterpretationPair.least_precise(atoms)

    def seconds():
        return min(timeit.repeat(lambda: exact_bounds(atom, pair), number=3, repeat=5))

    now = seconds()
    monkeypatch.setattr(bounds, "_avg_range", fraction_per_member)
    assert 3 * now < seconds()
