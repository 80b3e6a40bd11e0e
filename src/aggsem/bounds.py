"""Exact lower/upper bounds of an aggregate's achievable value over all
interpretations in a pair's interval, and the bound-based three-valued
truth function built on them.

Bounds honour correlations between conditions sharing an atom: entries
are grouped per condition atom, and an undefined atom contributes either
its positive-condition weights (atom chosen true) or its
negative-condition weights (atom chosen false), never a mix.  Naive
per-entry bounds would get [1:p, 1:not p] wrong.

The value rules are `eval2`'s rows (`_RULES`): this module states none.
sum, card and prod share one hull loop, which `exact_bounds` and
`bnd_truth` both run.  Each undefined atom has one value per branch (the
sum, count or product of that branch's weights), and the running (min,
max) pair of the fixed value becomes the min and max of its four joins
with the two branch values; keeping both extremes makes sign flips of a
product exact.  `bnd_truth` reads the two ints and builds no value
objects.  For min/max/avg, `exact_bounds` takes the least and the
greatest value of every branch combination from the half tables of
`ult`'s interval sweep, which is exponential in the number of undefined
condition atoms; acceptable at desk scale.  avg compares the (sum,
count) entries by cross-multiplication and builds only two fractions;
min and max compare the members' extremes in one pass.

An atom with a kernel takes its bounds, and `bnd_truth` its sum/card
hull, from its interval entries in `eval2`: no value of such an atom
leaves the range, so the least and the greatest are those of the hull
and the half tables.  `bnd_truth` reads the two bounds from
`eval2._kernel_range`, which returns them with the two emptiness flags,
and `exact_bounds` returns the one `Bounds` that `eval2._kernel_bounds`
keeps per restricted pair, built by `_bounds` the first time a call
asks for it and then shared by every call on the same restricted pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .eval2 import (
    _RULES,
    AggValue,
    _avg_range,
    _extreme_range,
    _half_tables,
    _interval_sweep,
    _kernel_bounds,
    _kernel_range,
)
from .interp import InterpretationPair, _bit_index
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
    """Exact min/max of the aggregate value over every Z in the pair's
    interval.  An atom with a kernel returns one shared `Bounds` per
    restricted pair."""
    pair.require_consistent()
    universe, (lower, upper) = pair.universe, pair.masks
    bounds = _kernel_bounds(atom, universe, lower, upper, _bounds)
    if bounds is not None:
        return bounds
    fixed, branches = _split(atom, universe, lower, upper)
    empty_certain = not fixed and not branches
    empty_possible = not fixed and all(not bt or not bf for bf, bt in branches.values())
    if atom.func in (AggFunc.SUM, AggFunc.CARD, AggFunc.PROD):
        lb, ub = _hull(atom.func, fixed, branches)
    else:
        lb, ub = _value_range(atom, fixed, list(branches))
    return _bounds(lb, ub, empty_possible, empty_certain)


def _bounds(lb, ub, empty_possible: bool, empty_certain: bool) -> Bounds:
    """The `Bounds` of a least and a greatest value, None when no member
    has one."""
    if lb is None:
        return Bounds(AggValue.UNDEFINED, AggValue.UNDEFINED, empty_possible, empty_certain)
    return Bounds(AggValue.of(lb), AggValue.of(ub), empty_possible, empty_certain)


def _split(
    atom: AggregateAtom, universe: tuple[str, ...], lower: int, upper: int
) -> tuple[list[int], dict[str, tuple[tuple[int, ...], tuple[int, ...]]]]:
    """At the pair whose sets have the masks `lower` and `upper`: the
    weights of the certainly true conditions, in entry order, and per
    undefined condition atom, first occurrence first, its (false-branch,
    true-branch) weights.  A condition atom outside the universe is
    false."""
    bits = _bit_index(universe)
    fixed = [
        w
        for w, lit in atom.entries
        if (not upper & bits.get(lit.atom, 0) if lit.negated else lower & bits.get(lit.atom, 0))
    ]
    free = upper & ~lower
    branches = {
        a: weights for a, weights in atom._branch_weights.items() if free & bits.get(a, 0)
    }
    return fixed, branches


def _hull(func: AggFunc, fixed: list[int], branches: dict) -> tuple[int, int]:
    """The least and the greatest value of sum, card or prod over the
    branch choices, from `_split`'s parts."""
    measure, join, value, _ = _RULES[func]
    lo = hi = value(measure(fixed))
    for bf, bt in branches.values():
        vt, vf = value(measure(bt)), value(measure(bf))
        values = (join(lo, vt), join(lo, vf), join(hi, vt), join(hi, vf))
        # every combination lies between these two, so checking them
        # catches any overflow
        lo, hi = value(min(values)), value(max(values))
    return lo, hi


def _value_range(atom: AggregateAtom, fixed: list[int], free: list[str]) -> tuple:
    """The least and the greatest defined value of min, max or avg over
    the members that vary the undefined condition atoms `free`, or
    (None, None) when no member has one.  Members are taken in the order
    of `extensions` over `free`, so an avg total that leaves the signed
    64-bit range raises at the first member that has one; avg's members
    are compared in `eval2._avg_range`."""
    if len(free) > MAX_BRANCH_ATOMS:
        raise TooLargeError(
            f"{len(free)} undefined condition atoms exceed the "
            f"branch-enumeration bound of {MAX_BRANCH_ATOMS}"
        )
    high, low = _half_tables(atom, free, fixed)
    if atom.func is AggFunc.AVG:
        return _avg_range(high, low)
    return _extreme_range(atom.func, high, low)


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
    return _bnd_truth(atom, pair)


def _bnd_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """`bnd_truth` at a pair the caller has checked, the `bnd` row's truth
    function: the hull rule on the atom's kernel range, or on its hull
    from `_split`, for sum, card and prod, read at the pair's masks; the
    interval sweep for min, max and avg."""
    if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
        return interval_truth(atom, pair)
    universe, (lower, upper) = pair.universe, pair.masks
    read = _kernel_range(atom, universe, lower, upper)
    if read is not None:
        lb, ub, _, _ = read
    else:
        lb, ub = _hull(atom.func, *_split(atom, universe, lower, upper))
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
