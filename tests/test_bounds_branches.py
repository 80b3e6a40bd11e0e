"""`exact_bounds` reads the branch weights each aggregate atom caches,
against the path it replaced, kept here as the reference: the entries
regrouped per undefined condition atom on every call.  Value or error
type and message agree at every consistent pair of four atoms, on seeded
aggregates whose weights mix ±2^62 with small ones, so sums and products
leave the signed 64-bit range at some pairs and not at others.  The
fixed weights keep entry order, so `prod`, checked after every factor,
raises on the same inputs."""

import operator
import random

from aggsem import TooLargeError, exact_bounds
from aggsem.bounds import MAX_BRANCH_ATOMS, Bounds
from aggsem.eval2 import (
    AggValue,
    aggregate_value,
    checked_int,
    checked_product,
    eval_multiset,
    literal_holds,
)
from aggsem.interp import extensions
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs

from .test_stable_check import HALF, outcome

WEIGHTS = (HALF, -HALF, HALF, -HALF, 0, 1, -1, 2, -3)
UNIVERSE = ("a0", "a1", "a2", "a3")


def reference_split_entries(atom, pair):
    """Fixed weights plus per-undefined-atom (true-branch, false-branch) weights."""
    fixed = []
    branches = {}
    lower, upper = pair.lower, pair.upper
    for weight, lit in atom.entries:
        defined = lit.atom in lower.atoms or lit.atom not in upper.atoms
        if defined:
            if literal_holds(lit, lower):
                fixed.append(weight)
        else:
            true_branch, false_branch = branches.setdefault(lit.atom, ([], []))
            (false_branch if lit.negated else true_branch).append(weight)
    return fixed, branches


def reference_exact_bounds(atom, pair):
    pair.require_consistent()
    fixed, branches = reference_split_entries(atom, pair)
    empty_certain = not fixed and not branches
    empty_possible = not fixed and all(not bt or not bf for bt, bf in branches.values())
    func = atom.func
    if func in (AggFunc.SUM, AggFunc.CARD, AggFunc.PROD):
        if func is AggFunc.PROD:
            measure, combine, context = checked_product, operator.mul, "product"
        else:
            measure = (lambda ws: checked_int(sum(ws), "sum")) if func is AggFunc.SUM else len
            combine, context = operator.add, "sum"
        lo = hi = measure(fixed)
        for bt, bf in branches.values():
            vt, vf = measure(bt), measure(bf)
            values = (combine(lo, vt), combine(lo, vf), combine(hi, vt), combine(hi, vf))
            lo = checked_int(min(values), context)
            hi = checked_int(max(values), context)
        return Bounds(AggValue.of(lo), AggValue.of(hi), empty_possible, empty_certain)
    atoms = list(branches)
    if len(atoms) > MAX_BRANCH_ATOMS:
        raise TooLargeError(
            f"{len(atoms)} undefined condition atoms exceed the "
            f"branch-enumeration bound of {MAX_BRANCH_ATOMS}"
        )
    lb = ub = None
    for z in extensions(pair.lower, atoms):
        multiset = eval_multiset(atom.entries, z)
        if not multiset:
            continue
        value = aggregate_value(func, multiset).value
        lb = value if lb is None else min(lb, value)
        ub = value if ub is None else max(ub, value)
    if lb is None:
        return Bounds(AggValue.UNDEFINED, AggValue.UNDEFINED, empty_possible, empty_certain)
    return Bounds(AggValue.of(lb), AggValue.of(ub), empty_possible, empty_certain)


def random_atom(rng, func):
    entries = tuple(
        (rng.choice(WEIGHTS), Literal(rng.choice(UNIVERSE), rng.random() < 0.4))
        for _ in range(rng.randint(0, 10))
    )
    return AggregateAtom(func, entries, rng.choice(list(Comparison)), rng.randint(-2, 2))


def test_exact_bounds_matches_the_regrouping_reference():
    rng = random.Random(20261019)
    pairs = all_consistent_pairs(UNIVERSE)
    seen = {func: {"value": 0, "error": 0} for func in AggFunc}
    for _ in range(80):
        for func in AggFunc:
            atom = random_atom(rng, func)
            for pair in pairs:
                got = outcome(lambda: exact_bounds(atom, pair))
                assert got == outcome(lambda: reference_exact_bounds(atom, pair)), (
                    str(atom),
                    str(pair),
                )
                seen[func]["error" if isinstance(got, tuple) else "value"] += 1
    # sum and prod reach both outcomes; card has no arithmetic to overflow
    for func in (AggFunc.SUM, AggFunc.PROD):
        assert all(count > 0 for count in seen[func].values()), seen
    assert seen[AggFunc.CARD]["value"] > 0
