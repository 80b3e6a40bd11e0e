"""Exact lower/upper bounds of an aggregate's achievable value over all
interpretations in a pair's interval, and the bound-based three-valued
truth function built on them.

Bounds honour correlations between conditions sharing an atom: entries
are grouped per condition atom, and an undefined atom contributes either
its positive-condition weights (atom chosen true) or its
negative-condition weights (atom chosen false), never a mix.  Naive
per-entry bounds would get [1:p, 1:not p] wrong.

sum, card and prod share one loop, which `exact_bounds` and `bnd_truth`
both run.  Each undefined atom has one value per branch (the count, sum
or product of that branch's weights), and the running (min, max) pair of
the fixed value becomes the min and max of its four combinations with
the two branch values, by + or *; keeping both extremes makes sign flips
of a product exact.  `bnd_truth` reads the two ints and builds no value
objects.  min/max/avg fall back to enumerating the branch combinations,
which is exponential in the number of undefined condition atoms;
acceptable at desk scale.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import TooLargeError
from .eval2 import (
    AggValue,
    _interval_sweep,
    aggregate_value,
    checked_int,
    checked_product,
    eval_multiset,
)
from .interp import InterpretationPair, extensions
from .syntax import AggFunc, AggregateAtom, Comparison
from .truth import TruthValue

__all__ = ["Bounds", "exact_bounds", "bnd_truth", "interval_truth"]

MAX_BRANCH_ATOMS = 20


@dataclass(frozen=True)
class Bounds:
    lb: AggValue
    ub: AggValue
    empty_possible: bool
    empty_certain: bool

    def __str__(self) -> str:
        return f"[{self.lb}, {self.ub}]"


def exact_bounds(atom: AggregateAtom, pair: InterpretationPair) -> Bounds:
    """Exact min/max of the aggregate value over every Z in the pair's interval."""
    pair.require_consistent()
    fixed, branches = _split(atom, pair)
    empty_certain = not fixed and not branches
    empty_possible = not fixed and all(not bt or not bf for bf, bt in branches.values())

    func = atom.func
    if func in (AggFunc.SUM, AggFunc.CARD, AggFunc.PROD):
        lo, hi = _hull(func, fixed, branches)
        return Bounds(AggValue.of(lo), AggValue.of(hi), empty_possible, empty_certain)

    # min/max/avg: evaluate every branch combination, that is every member
    # of the interval that varies the undefined condition atoms only
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


def _split(
    atom: AggregateAtom, pair: InterpretationPair
) -> tuple[list[int], dict[str, tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The weights of the certainly true conditions, in entry order, and
    per undefined condition atom its (false-branch, true-branch) weights."""
    lower, upper = pair.lower.atoms, pair.upper.atoms
    fixed = [
        w
        for w, lit in atom.entries
        if (lit.atom not in upper if lit.negated else lit.atom in lower)
    ]
    branches = {
        a: weights for a, weights in atom._branch_weights.items() if a in upper and a not in lower
    }
    return fixed, branches


def _hull(func: AggFunc, fixed: list[int], branches: dict) -> tuple[int, int]:
    """The least and the greatest value of sum, card or prod over the
    branch choices, from `_split`'s parts."""
    if func is AggFunc.PROD:
        measure, combine, context = checked_product, operator.mul, "product"
    else:
        measure = (lambda ws: checked_int(sum(ws), "sum")) if func is AggFunc.SUM else len
        combine, context = operator.add, "sum"
    lo = hi = measure(fixed)
    for bf, bt in branches.values():
        vt, vf = measure(bt), measure(bf)
        values = (combine(lo, vt), combine(lo, vf), combine(hi, vt), combine(hi, vf))
        # every combination lies between these two, so checking them
        # catches any overflow
        lo = checked_int(min(values), context)
        hi = checked_int(max(values), context)
    return lo, hi


def interval_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """Interval-universal truth: t if the atom holds at every Z, f at none.

    One sweep over the aggregate's own condition atoms, which stops at the
    first member whose value differs from the first member's.
    """
    truth = _interval_sweep(atom, pair, None)
    return TruthValue.UNDEFINED if truth is None else TruthValue.from_bool(truth)


def bnd_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """Bound-based truth for sum/prod/card, the hull rule: t when the
    comparison holds at every value from the lower to the upper bound, f
    when it holds at none of them.  That is exact for the ordering
    comparisons; = and != are decided conservatively, as the bounds do
    not know which values in between are achieved.  min/max/avg fall
    back to interval-universal truth."""
    pair.require_consistent()
    if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
        return interval_truth(atom, pair)

    lb, ub = _hull(atom.func, *_split(atom, pair))
    w = atom.bound
    cmp, holds = atom.cmp, atom.cmp.holds
    outside = w < lb or w > ub
    forced = outside if cmp is Comparison.NE else holds(lb, w) and holds(ub, w)
    refuted = outside if cmp is Comparison.EQ else not (holds(lb, w) or holds(ub, w))
    if forced:
        return TruthValue.TRUE
    if refuted:
        return TruthValue.FALSE
    return TruthValue.UNDEFINED
