"""Exact lower/upper bounds of an aggregate's achievable value over all
interpretations in a pair's interval, and the bound-based three-valued
truth function built on them.

Bounds honour correlations between conditions sharing an atom: entries
are grouped per condition atom, and an undefined atom contributes either
its positive-condition weights (atom chosen true) or its
negative-condition weights (atom chosen false), never a mix.  Naive
per-entry bounds would get [1:p, 1:not p] wrong.

sum and card are additive over per-atom branch extrema; prod keeps a
running (min, max) product pair so sign flips are exact.  min/max/avg
fall back to enumerating the branch combinations, which is exponential
in the number of undefined condition atoms; acceptable at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .eval2 import (
    AggValue,
    aggregate_value,
    checked_int,
    eval_aggregate,
    eval_multiset,
    literal_holds,
)
from .interp import InterpretationPair, enumerate_interval, extensions
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


def _split_entries(atom: AggregateAtom, pair: InterpretationPair):
    """Fixed weights plus per-undefined-atom (true-branch, false-branch) weights."""
    fixed: list[int] = []
    branches: dict[str, tuple[list[int], list[int]]] = {}
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


def exact_bounds(atom: AggregateAtom, pair: InterpretationPair) -> Bounds:
    """Exact min/max of the aggregate value over every Z in the pair's interval."""
    pair.require_consistent()
    fixed, branches = _split_entries(atom, pair)

    empty_certain = not fixed and not branches
    empty_possible = not fixed and all(
        not bt or not bf for bt, bf in branches.values()
    )

    func = atom.func
    if func in (AggFunc.SUM, AggFunc.CARD):
        measure = (lambda ws: checked_int(sum(ws), "sum")) if func is AggFunc.SUM else len
        lo = hi = measure(fixed)
        for bt, bf in branches.values():
            vt, vf = measure(bt), measure(bf)
            lo = checked_int(lo + min(vt, vf), "sum")
            hi = checked_int(hi + max(vt, vf), "sum")
        return Bounds(AggValue.of(lo), AggValue.of(hi), empty_possible, empty_certain)

    if func is AggFunc.PROD:
        lo = hi = 1
        for w in fixed:
            v = checked_int(lo * w, "product")
            lo = hi = v
        for bt, bf in branches.values():
            ft = 1
            for w in bt:
                ft = checked_int(ft * w, "product")
            ff = 1
            for w in bf:
                ff = checked_int(ff * w, "product")
            candidates = [
                checked_int(prev * factor, "product")
                for prev in (lo, hi)
                for factor in (ft, ff)
            ]
            lo, hi = min(candidates), max(candidates)
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
    empty_possible = False
    empty_certain = True
    for z in extensions(pair.lower, atoms):
        multiset = eval_multiset(atom.entries, z)
        if not multiset:
            empty_possible = True
            continue
        empty_certain = False
        value = aggregate_value(func, multiset).value
        lb = value if lb is None else min(lb, value)
        ub = value if ub is None else max(ub, value)
    if lb is None:
        return Bounds(AggValue.UNDEFINED, AggValue.UNDEFINED, empty_possible, empty_certain)
    return Bounds(AggValue.of(lb), AggValue.of(ub), empty_possible, empty_certain)


def interval_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """Interval-universal truth: t if the atom holds at every Z, f at none.

    One sweep over the aggregate's own condition atoms, which stops at the
    first member whose value differs from the first member's.
    """
    members = enumerate_interval(
        pair.lower, pair.upper, restrict=frozenset(atom.condition_atoms)
    )
    first = eval_aggregate(atom, next(members))
    if any(eval_aggregate(atom, z) != first for z in members):
        return TruthValue.UNDEFINED
    return TruthValue.from_bool(first)


def bnd_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """Bound-based truth for sum/prod (card as sum of unit weights); the
    bounds decide ordering comparisons exactly and =/!= conservatively.
    min/max/avg fall back to interval-universal truth."""
    pair.require_consistent()
    if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
        return interval_truth(atom, pair)

    bounds = exact_bounds(atom, pair)
    lb, ub, w = bounds.lb.value, bounds.ub.value, atom.bound
    cmp = atom.cmp
    if cmp is Comparison.EQ:
        if lb == w == ub:
            return TruthValue.TRUE
        if lb > w or ub < w:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED
    if cmp is Comparison.NE:
        if lb > w or ub < w:
            return TruthValue.TRUE
        if lb == w == ub:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED
    if cmp is Comparison.GE:
        forced, refuted = lb >= w, ub < w
    elif cmp is Comparison.GT:
        forced, refuted = lb > w, ub <= w
    elif cmp is Comparison.LE:
        forced, refuted = ub <= w, lb > w
    else:  # LT
        forced, refuted = ub < w, lb >= w
    if forced:
        return TruthValue.TRUE
    if refuted:
        return TruthValue.FALSE
    return TruthValue.UNDEFINED
