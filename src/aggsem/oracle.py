"""Independent brute-force implementations used by tests and the `verify`
command.  These deliberately re-derive their answers from first
principles (direct enumeration, reduct constructions) and do not share
code with the main-path implementations of the same quantities: the
oracle has its own two-valued evaluation and one subset walk, and the
gz and flp reducts and the brute-force most precise approximator live
here.  The evaluation raises ArithmeticOverflowError with the main
path's message where the main path does; the per-pair oracles
(`brute_sat_*`, `brute_bounds`) compute with unchecked integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial, reduce
from itertools import accumulate
from operator import and_, mul, or_
from typing import Iterator, Sequence

from .bounds import Bounds, bnd_truth, exact_bounds
from .errors import ArithmeticOverflowError, TooLargeError
from .eval2 import AggValue
from .fixpoints import gl_reduct, lower_step, stable_enumerate
from .interp import Interpretation, InterpretationPair, Universe
from .syntax import (
    AggFunc,
    AggregateAtom,
    Comparison,
    Literal,
    Program,
    Rule,
)
from .ternary import SemanticsId, all_consistent_pairs, sat3
from .truth import TruthValue

__all__ = [
    "brute_bounds",
    "brute_sat_ult",
    "brute_sat_ult_upper",
    "brute_sat_triv",
    "brute_sat_mr",
    "brute_bnd_truth",
    "gz_reduct",
    "flp_reduct",
    "ultimate_operator_bruteforce",
    "minimal_model_check",
    "reduct_stable_models",
    "alternating_reduct_wf",
    "VerificationReport",
    "verify_program",
    "random_aggregate_atom",
    "random_program",
]

MAX_BRUTE_CONDITIONS = 16
# the minimal-model check and the most precise approximator walk further
MAX_BRUTE_ATOMS = 20


def _subsets(
    base: frozenset[str], free: Sequence[str], bound: int = MAX_BRUTE_CONDITIONS
) -> Iterator[frozenset[str]]:
    """`base` united with every subset of `free`, by binary counting with
    free[0] as the least significant bit: the oracle's one exhaustive
    walk.  The size check runs at the call, before any member is made."""
    if len(free) > bound:
        raise TooLargeError(f"{len(free)} free atoms exceed the brute-force bound {bound}")
    return (
        base | {a for bit, a in enumerate(free) if mask >> bit & 1}
        for mask in range(1 << len(free))
    )


def _interval(
    pair: InterpretationPair, bound: int = MAX_BRUTE_CONDITIONS
) -> Iterator[frozenset[str]]:
    """Every Z between the pair's lower and upper set, all atoms varied."""
    pair.require_consistent()
    return _subsets(pair.lower.atoms, pair.undefined_atoms(), bound)


def _weights(atom: AggregateAtom, true_atoms: frozenset[str]) -> list[int]:
    return [w for w, lit in atom.entries if (lit.atom in true_atoms) != lit.negated]


def _brute_value(func: AggFunc, weights: list[int]) -> int | Fraction | None:
    """Aggregate value from scratch: no shared evaluation helpers."""
    if func is AggFunc.SUM:
        return sum(weights)
    if func is AggFunc.CARD:
        return len(weights)
    if func is AggFunc.PROD:
        return math.prod(weights)
    if not weights:
        return None
    if func is AggFunc.MIN:
        return min(weights)
    if func is AggFunc.MAX:
        return max(weights)
    return Fraction(sum(weights), len(weights))


def _brute_compare(value: int | Fraction | None, cmp: Comparison, bound: int) -> bool:
    if value is None:
        return False
    if cmp is Comparison.LT:
        return value < bound
    if cmp is Comparison.LE:
        return value <= bound
    if cmp is Comparison.GT:
        return value > bound
    if cmp is Comparison.GE:
        return value >= bound
    if cmp is Comparison.EQ:
        return value == bound
    return value != bound


def _brute_holds(atom: AggregateAtom, true_atoms: frozenset[str]) -> bool:
    return _brute_compare(_brute_value(atom.func, _weights(atom, true_atoms)), atom.cmp, atom.bound)


def _int64(value: int, context: str) -> None:
    if not -(1 << 63) <= value < 1 << 63:
        raise ArithmeticOverflowError(f"{context} {value} leaves the signed 64-bit range")


def _element_holds(element: Literal | AggregateAtom, true_atoms: frozenset[str]) -> bool:
    """Two-valued truth of a literal or aggregate atom, with the main
    path's int64 checks: sum and avg on their total, prod after each
    factor."""
    if isinstance(element, Literal):
        return (element.atom in true_atoms) != element.negated
    weights = _weights(element, true_atoms)
    if element.func is AggFunc.PROD:
        for product in accumulate(weights, mul):
            _int64(product, "product")
    elif element.func in (AggFunc.SUM, AggFunc.AVG):
        _int64(sum(weights), "sum")
    return _brute_compare(_brute_value(element.func, weights), element.cmp, element.bound)


def _body_holds(body: Sequence[Literal | AggregateAtom], true_atoms: frozenset[str]) -> bool:
    return all(_element_holds(e, true_atoms) for e in body)


def _consequences(program: Program, true_atoms: frozenset[str]) -> frozenset[str]:
    """The consequence operator: heads of the rules whose body holds."""
    return frozenset(rule.head for rule in program.rules if _body_holds(rule.body, true_atoms))


def _is_model(program: Program, true_atoms: frozenset[str]) -> bool:
    return all(
        rule.head in true_atoms or not _body_holds(rule.body, true_atoms)
        for rule in program.rules
    )


def brute_bounds(atom: AggregateAtom, pair: InterpretationPair) -> Bounds:
    """Exact value bounds by enumerating the condition-atom traces of the
    whole interval."""
    pair.require_consistent()
    fixed = frozenset(a for a in atom.condition_atoms if a in pair.lower.atoms)
    free = [a for a in atom.condition_atoms if a in pair.upper.atoms and a not in fixed]
    traces = _subsets(fixed, free)
    return _as_bounds(reduce(_join_bounds, map(partial(_value_bounds, atom), traces)))


def _value_bounds(atom: AggregateAtom, true_atoms: frozenset[str]) -> tuple:
    """(least value, greatest value, empty possible, empty certain) of
    the aggregate at one whole interpretation; the values are None when
    it is undefined."""
    weights = _weights(atom, true_atoms)
    value = _brute_value(atom.func, weights)
    return value, value, not weights, not weights


def _join_bounds(x: tuple, y: tuple) -> tuple:
    """`_value_bounds` of the union of two sets of interpretations."""
    if x[0] is None:
        lb, ub = y[0], y[1]
    elif y[0] is None:
        lb, ub = x[0], x[1]
    else:
        lb, ub = min(x[0], y[0]), max(x[1], y[1])
    return lb, ub, x[2] or y[2], x[3] and y[3]


def _as_bounds(joined: tuple) -> Bounds:
    lb, ub, empty_possible, empty_certain = joined
    if lb is None:
        return Bounds(AggValue.UNDEFINED, AggValue.UNDEFINED, empty_possible, empty_certain)
    return Bounds(AggValue.of(lb), AggValue.of(ub), empty_possible, empty_certain)


def brute_sat_ult(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """Interval-universal satisfaction by unrestricted enumeration over all
    undefined atoms of the pair, not just the aggregate's conditions."""
    return _AtomReferences(atom).sat_ult(pair)


def brute_sat_ult_upper(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """Interval-existential satisfaction by unrestricted enumeration."""
    return _AtomReferences(atom).sat_ult_upper(pair)


def brute_sat_triv(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """Condition-stability satisfaction straight from its definition: the
    upper set satisfies the atom and the set of conditions true in the
    lower set equals the set true in the upper set."""
    return _AtomReferences(atom).sat_triv(pair)


def brute_sat_mr(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """Witness-subset satisfaction with subsets of the whole lower set."""
    return _AtomReferences(atom).sat_mr(pair)


def brute_bnd_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """Bound-based truth recomputed from brute-force bounds."""
    return _AtomReferences(atom).bnd_truth(pair)


class _AtomReferences:
    """The per-pair references of one aggregate atom.  They read the
    atom's truth at a whole interpretation through `holds`: `_brute_holds`
    itself, or within one `verify_program` call a memo of it."""

    def __init__(self, atom: AggregateAtom, holds=None):
        self.atom = atom
        self.holds = partial(_brute_holds, atom) if holds is None else holds

    def sat_ult(self, pair: InterpretationPair) -> bool:
        return all(map(self.holds, _interval(pair)))

    def sat_ult_upper(self, pair: InterpretationPair) -> bool:
        return any(map(self.holds, _interval(pair)))

    def sat_triv(self, pair: InterpretationPair) -> bool:
        pair.require_consistent()
        if not self.holds(pair.upper.atoms):
            return False
        conditions = {lit for _, lit in self.atom.entries}
        lower_true = {c for c in conditions if (c.atom in pair.lower.atoms) != c.negated}
        upper_true = {c for c in conditions if (c.atom in pair.upper.atoms) != c.negated}
        return lower_true == upper_true

    def sat_mr(self, pair: InterpretationPair) -> bool:
        pair.require_consistent()
        if not self.holds(pair.upper.atoms):
            return False
        return any(map(self.holds, _subsets(frozenset(), tuple(pair.lower))))

    def bounds(self, pair: InterpretationPair) -> Bounds:
        return brute_bounds(self.atom, pair)

    def bnd_truth(self, pair: InterpretationPair) -> TruthValue:
        atom = self.atom
        if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
            if self.sat_ult(pair):
                return TruthValue.TRUE
            if not self.sat_ult_upper(pair):
                return TruthValue.FALSE
            return TruthValue.UNDEFINED
        bounds = self.bounds(pair)
        is_true, is_false = _HULL_RULES[atom.cmp](bounds.lb.value, bounds.ub.value, atom.bound)
        if is_true:
            return TruthValue.TRUE
        if is_false:
            return TruthValue.FALSE
        return TruthValue.UNDEFINED


# per comparison, from the value bounds lb, ub and the bound w: whether
# it certainly holds, and whether it certainly fails
_HULL_RULES = {
    Comparison.EQ: lambda lb, ub, w: (lb == w == ub, lb > w or ub < w),
    Comparison.NE: lambda lb, ub, w: (lb > w or ub < w, lb == w == ub),
    Comparison.GE: lambda lb, ub, w: (lb >= w, ub < w),
    Comparison.GT: lambda lb, ub, w: (lb > w, ub <= w),
    Comparison.LE: lambda lb, ub, w: (ub <= w, lb > w),
    Comparison.LT: lambda lb, ub, w: (ub < w, lb >= w),
}


class _PairTables:
    """Every consistent pair over some atoms as an index into flat
    tables, and the fold that fills such a table from one value per
    whole interpretation over those atoms.

    The index of a pair has one base-3 digit per atom, the first atom
    lowest: 0 false, 1 true, 2 undefined.  The whole interpretations
    are the members of `_subsets` over the atoms, the one at position
    `mask` having the atoms of `mask`'s bits; the exact pair at it has
    index `mask`'s binary digits read in base 3.  Every atom of a
    universe outside `atoms` is false in the tables' pairs."""

    def __init__(self, atoms: tuple[str, ...]):
        self.atoms = atoms
        self.members = list(_subsets(frozenset(), atoms))
        self.mask = {z: mask for mask, z in enumerate(self.members)}
        self.exact = {z: int(f"{mask:b}", 3) for z, mask in self.mask.items()}

    def pairs(self, universe: tuple[str, ...]) -> list[InterpretationPair]:
        """The tables' pairs over `universe`, in the order of
        `all_consistent_pairs` over the atoms."""
        sets = {z: Interpretation.of(universe, z) for z in self.members}
        return [
            InterpretationPair(sets[p.lower.atoms], sets[p.upper.atoms])
            for p in all_consistent_pairs(self.atoms)
        ]

    def index(self, pair: InterpretationPair) -> int:
        exact = self.exact
        return 2 * exact[pair.upper.atoms] - exact[pair.lower.atoms]

    def fold(self, leaves: list, join) -> list:
        """Per pair, `join` over the leaves, one per member, of its
        interval.  A pair splits on its lowest undefined atom a, as
        [L, U] is the disjoint union of [L, U minus a] and [L plus a, U]:
        one join per pair that is not exact."""
        if len(leaves) == 1:
            return leaves
        false, true = self.fold(leaves[::2], join), self.fold(leaves[1::2], join)
        table = []
        for f, t in zip(false, true):
            table += (f, t, join(f, t))
        return table


class _AtomTables(_AtomReferences):
    """`_AtomReferences` at every pair of `pairs`, tables over the atom's
    condition atoms (or over atoms that include them): `ult`, its
    existential form, `mr` and the bounds read tables that one fold of
    the whole interpretations fills at first use; `triv` stays per
    pair."""

    def __init__(self, atom: AggregateAtom, holds, pairs: _PairTables):
        super().__init__(atom, holds)
        self.pairs = pairs

    @cached_property
    def _truths(self) -> list[bool]:
        return list(map(self.holds, self.pairs.members))

    @cached_property
    def _everywhere(self) -> list[bool]:
        return self.pairs.fold(self._truths, and_)

    @cached_property
    def _somewhere(self) -> list[bool]:
        return self.pairs.fold(self._truths, or_)

    @cached_property
    def _bounds(self) -> list[Bounds]:
        leaves = list(map(partial(_value_bounds, self.atom), self.pairs.members))
        # pairs with equal bounds share one object
        return list(map(cache(_as_bounds), self.pairs.fold(leaves, _join_bounds)))

    def sat_ult(self, pair: InterpretationPair) -> bool:
        return self._everywhere[self.pairs.index(pair)]

    def sat_ult_upper(self, pair: InterpretationPair) -> bool:
        return self._somewhere[self.pairs.index(pair)]

    def sat_mr(self, pair: InterpretationPair) -> bool:
        # holds at (U, U) and somewhere in (empty set, L)
        exact = self.pairs.exact
        return self._everywhere[exact[pair.upper.atoms]] and self._somewhere[
            2 * exact[pair.lower.atoms]
        ]

    def bounds(self, pair: InterpretationPair) -> Bounds:
        return self._bounds[self.pairs.index(pair)]


# ---------------------------------------------------------------------------
# Reducts, the most precise approximator and reduct-based semantics
# ---------------------------------------------------------------------------


def gz_reduct(program: Program, i: Interpretation) -> Program:
    """Two-phase aggregate reduct followed by the classical one: drop rules
    with an i-false aggregate, replace each remaining aggregate by the
    conjunction of its i-true conditions, then take the classical reduct."""
    kept: list[Rule] = []
    for rule in program.rules:
        body: list[Literal] = []
        for element in rule.body:
            if isinstance(element, Literal):
                body.append(element)
            elif _element_holds(element, i.atoms):
                # in-place replacement by the set of its i-true conditions
                body.extend(c for c in element.conditions if _element_holds(c, i.atoms))
            else:
                break
        else:
            kept.append(Rule(rule.head, tuple(body)))
    return gl_reduct(Program(tuple(kept), program.universe), i)


def flp_reduct(program: Program, i: Interpretation) -> Program:
    """Keep exactly the rules whose body is satisfied in i, unchanged."""
    kept = tuple(rule for rule in program.rules if _body_holds(rule.body, i.atoms))
    return Program(kept, program.universe)


def ultimate_operator_bruteforce(program: Program, pair: InterpretationPair) -> InterpretationPair:
    """Most precise approximator of the consequence operator, computed by
    intersecting and uniting its images over the whole interval."""
    return _most_precise(partial(_consequences, program), program.universe, pair)


def _most_precise(
    consequences, universe: tuple[str, ...], pair: InterpretationPair
) -> InterpretationPair:
    """`ultimate_operator_bruteforce` with the image of a whole
    interpretation read through `consequences`."""
    images = map(consequences, _interval(pair, MAX_BRUTE_ATOMS))
    lower = upper = next(images)
    for image in images:
        lower, upper = lower & image, upper | image
    return InterpretationPair.of(universe, lower, upper)


class _Overflow:
    """The error of the consequences at the whole interpretation `mask`."""

    def __init__(self, mask: int, error: ArithmeticOverflowError):
        self.mask, self.error = mask, error


def _join_lower(x, y):
    """The intersection of two sets of heads.  An overflow
    wins, and of two the one at the lower mask, which the interval walk
    of `_most_precise` meets first."""
    if isinstance(x, _Overflow) or isinstance(y, _Overflow):
        overflows = [e for e in (x, y) if isinstance(e, _Overflow)]
        return min(overflows, key=lambda e: e.mask)
    return x & y


class _MostPreciseTable:
    """`_most_precise(consequences, universe, pair).lower` at every pair
    of `pairs`, read from a table that one fold of the consequences of
    the whole interpretations fills at first use.  Over tables of a
    head's atoms, it answers for that head wherever the universe's other
    atoms are."""

    def __init__(self, consequences, universe: tuple[str, ...], pairs: _PairTables):
        self.consequences, self.universe, self.pairs = consequences, universe, pairs

    def _heads(self, mask: int, z: frozenset[str]):
        try:
            return self.consequences(z)
        except ArithmeticOverflowError as error:
            return _Overflow(mask, error)

    @cached_property
    def _lower(self) -> list:
        members = self.pairs.members
        return self.pairs.fold(list(map(self._heads, range(len(members)), members)), _join_lower)

    def lower(self, pair: InterpretationPair) -> Interpretation:
        heads = self._lower[self.pairs.index(pair)]
        if isinstance(heads, _Overflow):
            raise heads.error.with_traceback(None)
        return Interpretation.of(self.universe, heads)


def minimal_model_check(program: Program, i: Interpretation) -> bool:
    """i is a model and no proper subset of i is a model."""
    subsets = _subsets(frozenset(), tuple(i), MAX_BRUTE_ATOMS)
    if not _is_model(program, i.atoms):
        return False
    # the walk ends at i itself, which is not a proper subset
    return not any(z != i.atoms and _is_model(program, z) for z in subsets)


def _lfp_tp(program: Program) -> Interpretation:
    """Least fixpoint of the consequence operator of a negation-free program."""
    current: frozenset[str] = frozenset()
    while True:
        merged = current | _consequences(program, current)
        if merged == current:
            return Interpretation.of(program.universe, current)
        current = merged


def alternating_reduct_wf(program: Program) -> InterpretationPair:
    """Classical alternating-fixpoint well-founded computation for
    aggregate-free programs: alternate least models of reducts until both
    bounds are stationary."""
    x = Interpretation.empty(program.universe)
    y = Interpretation.full(program.universe)
    while True:
        x_next = _lfp_tp(gl_reduct(program, y))
        y_next = _lfp_tp(gl_reduct(program, x))
        if x_next == x and y_next == y:
            return InterpretationPair(x, y)
        x, y = x_next, y_next


def reduct_stable_models(sem: SemanticsId | str, program: Program) -> list[Interpretation]:
    """Stable models via the reduct constructions (gl, gz, flp only).

    Scans all interpretations over the universe, deliberately without the
    main path's head-set pruning, so the two routes stay independent.
    """
    sem = SemanticsId.from_tag(sem)
    models = []
    for atoms in _subsets(frozenset(), program.universe):
        candidate = Interpretation.of(program.universe, atoms)
        if sem is SemanticsId.GL:
            ok = _lfp_tp(gl_reduct(program, candidate)) == candidate
        elif sem is SemanticsId.GZ:
            ok = _lfp_tp(gz_reduct(program, candidate)) == candidate
        elif sem is SemanticsId.FLP:
            ok = minimal_model_check(flp_reduct(program, candidate), candidate)
        else:
            raise TooLargeError(f"no reduct construction for {sem.value}")
        if ok:
            models.append(candidate)
    return sorted(models, key=lambda m: m.sorted_atoms)


# ---------------------------------------------------------------------------
# Cross verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    checked: int = 0
    skipped: int = 0
    mismatches: list[tuple[str, str, str]] = field(default_factory=list)
    stable_models: dict[str, list[Interpretation]] = field(default_factory=dict)

    def record(self, ok: bool, descriptor: str, main: object, reference: object) -> None:
        self.checked += 1
        if not ok:
            self.mismatches.append((descriptor, str(main), str(reference)))

    @property
    def ok(self) -> bool:
        return not self.mismatches


# A formula (an aggregate atom, a head's disjunction of bodies) of at
# most this many atoms is verified at every consistent pair over its
# atoms; a larger one at a seeded sample of the universe's pairs.
ALL_PAIRS_ATOMS = 6


def _sample_pairs(
    program: Program, seed: int = 0, limit: int = 800
) -> list[InterpretationPair]:
    rng = random.Random(seed)
    universe = program.universe
    pairs = [InterpretationPair.least_precise(universe)]
    for _ in range(limit - 1):
        upper = frozenset(a for a in universe if rng.random() < 0.6)
        # in universe order, so the sample depends on the seed alone
        lower = frozenset(a for a in universe if a in upper and rng.random() < 0.5)
        pairs.append(InterpretationPair.of(universe, lower, upper))
    return pairs


def _kept(evaluate):
    """`evaluate`, a function of one whole interpretation, with each value
    kept for the life of the returned function; a call that raises keeps
    nothing."""
    return cache(evaluate)


def verify_program(
    program: Program,
    sems: Sequence[SemanticsId | str],
    seed: int = 0,
    max_atoms: int | None = None,
) -> VerificationReport:
    """Cross-check main-path results against the brute-force oracles and
    reduct constructions, and report the stable models per semantics.

    A relation's answer on a formula depends only on the pair restricted
    to the formula's atoms.  So each aggregate atom is checked at its
    own pairs: the 3^k consistent pairs over its k condition atoms, with
    every other atom false.  The `ultimate` operator is checked per
    head: whether the head is in `lower_step`'s answer, at the 3^k
    pairs over the atoms its bodies mention.  A formula of more than
    `ALL_PAIRS_ATOMS` atoms is checked at a seeded sample of the
    universe's pairs instead, whose intervals are walked afresh and
    whose evaluations are kept nowhere.  The main path is evaluated
    afresh at every pair.

    At own pairs, the references are read from tables over the pairs
    that the call builds once per distinct atom set, at first use, by
    folding values of whole interpretations over those atoms: per
    aggregate atom, its truth (for `ult`, `lpst`, `mr` and `bnd`) and its
    value bounds; per head, the lower bound of the most precise
    approximator.  Each aggregate atom's truth and the program's
    consequences are evaluated once per interpretation for the length of
    the call, and `triv` reads the kept truth at each pair's upper set.
    Individual checks whose oracle exceeds its enumeration bound, or
    whose main-path or reference value leaves the signed 64-bit range,
    are counted as skipped; an overflow of the consequences at one
    interpretation skips a head's check at every pair whose interval
    holds it.
    `max_atoms`, when given, is the universe cap of the stable-model
    enumeration; `stable_enumerate`'s default otherwise.
    """
    report = VerificationReport()
    sems = [SemanticsId.from_tag(s) for s in sems]
    if not program.is_aggregate_free:
        # gl rejects aggregates: neither checked nor reported
        sems = [sem for sem in sems if sem is not SemanticsId.GL]
    universe = program.universe
    tables: dict[frozenset[str], tuple[_PairTables, list[InterpretationPair]]] = {}

    def own_pairs(atoms: Sequence[str]):
        """The tables and pairs over `atoms`, one set per atom set; None
        above the cap."""
        if len(atoms) > ALL_PAIRS_ATOMS:
            return None
        key = frozenset(atoms)
        if key not in tables:
            pairs = _PairTables(tuple(a for a in universe if a in key))
            tables[key] = pairs, pairs.pairs(universe)
        return tables[key]

    # per aggregate atom: its pairs and its references there
    atom_checks = []
    for atom in program.aggregate_atoms():
        own = own_pairs(atom.condition_atoms)
        if own is None:
            atom_checks.append((atom, _sample_pairs(program, seed), _AtomReferences(atom)))
        else:
            # kept, as `triv` reads the truth at each pair's upper set again
            holds = _kept(partial(_brute_holds, atom))
            atom_checks.append((atom, own[1], _AtomTables(atom, holds, own[0])))
    # per head whose `ultimate` lower bound is checked: its pairs and the
    # most precise approximator's lower bound there
    head_checks = []
    if SemanticsId.ULTIMATE in sems:
        consequences, kept, lowers = partial(_consequences, program), None, {}
        for head, bodies in program.entries:
            own = own_pairs(bodies.atoms)
            if own is None:
                lower = lambda p: _most_precise(consequences, universe, p).lower
                head_checks.append((head, _sample_pairs(program, seed), lower))
                continue
            if own[0] not in lowers:
                # kept, as tables over different atoms share interpretations
                kept = kept or _kept(consequences)
                lowers[own[0]] = _MostPreciseTable(kept, universe, own[0]).lower
            head_checks.append((head, own[1], lowers[own[0]]))
    cap = () if max_atoms is None else (max_atoms,)

    @cache  # one enumeration serves both the reduct comparison and the report
    def stable_models(sem: SemanticsId) -> list[Interpretation]:
        return stable_enumerate(sem, program, *cap)

    def compare(describe, main_fn, reference_fn, cases):
        """One check per case, a tuple of arguments; `describe(*case)`
        gives its descriptor, which only a mismatch needs."""
        for case in cases:
            try:
                main, reference = main_fn(*case), reference_fn(*case)
            except (TooLargeError, ArithmeticOverflowError):
                report.skipped += 1
                continue
            ok = main == reference
            report.record(ok, "" if ok else describe(*case), main, reference)

    # (main, name of the reference) per tag whose aggregate atoms are checked one by one
    per_atom_oracles = {
        SemanticsId.ULT: (partial(sat3, SemanticsId.ULT), "sat_ult"),
        SemanticsId.LPST: (partial(sat3, SemanticsId.LPST), "sat_ult"),
        SemanticsId.BND: (bnd_truth, "bnd_truth"),
        SemanticsId.MR: (partial(sat3, SemanticsId.MR), "sat_mr"),
        SemanticsId.TRIV: (partial(sat3, SemanticsId.TRIV), "sat_triv"),
    }

    for atom, pairs, atom_references in atom_checks:
        compare(
            lambda pair: f"bounds of {atom} at {pair}",
            partial(exact_bounds, atom),
            atom_references.bounds,
            [(pair,) for pair in pairs],
        )

    for sem in sems:
        if sem in per_atom_oracles:
            main_fn, reference_name = per_atom_oracles[sem]
            for atom, pairs, atom_references in atom_checks:
                compare(
                    lambda pair: f"{sem.value}: {atom} at {pair}",
                    partial(main_fn, atom),
                    getattr(atom_references, reference_name),
                    [(pair,) for pair in pairs],
                )
        elif sem in (SemanticsId.GL, SemanticsId.GZ, SemanticsId.FLP):
            compare(
                lambda: f"stable models under {sem.value}: relation path vs reduct path",
                lambda: [str(m) for m in stable_models(sem)],
                lambda: [str(m) for m in reduct_stable_models(sem, program)],
                [()],
            )
        elif sem is SemanticsId.ULTIMATE:
            for head, pairs, lower in head_checks:
                compare(
                    lambda pair: f"most-precise lower operator: {head} at {pair}",
                    lambda pair: head in lower_step(sem, program, pair),
                    lambda pair: head in lower(pair),
                    [(pair,) for pair in pairs],
                )

    for sem in sems:
        report.stable_models[sem.value] = stable_models(sem)
    return report


# ---------------------------------------------------------------------------
# Seeded random inputs (reproducible corpora for fuzz suites)
# ---------------------------------------------------------------------------

ALL_FUNCS = tuple(AggFunc)
ALL_CMPS = tuple(Comparison)


def random_aggregate_atom(
    rng: random.Random,
    atoms: Sequence[str],
    max_entries: int = 4,
    weight_range: tuple[int, int] = (-3, 3),
    funcs: Sequence[AggFunc] = ALL_FUNCS,
    cmps: Sequence[Comparison] = ALL_CMPS,
    negative_conditions: bool = True,
) -> AggregateAtom:
    entries = []
    for _ in range(rng.randint(1, max_entries)):
        atom = rng.choice(list(atoms))
        negated = negative_conditions and rng.random() < 0.35
        entries.append((rng.randint(*weight_range), Literal(atom, negated)))
    return AggregateAtom(
        func=rng.choice(list(funcs)),
        entries=tuple(entries),
        cmp=rng.choice(list(cmps)),
        bound=rng.randint(weight_range[0] - 1, -weight_range[0] * max_entries),
    )


def random_program(
    rng: random.Random,
    max_atoms: int = 6,
    max_rules: int = 8,
    max_body: int = 3,
    aggregate_probability: float = 0.5,
    funcs: Sequence[AggFunc] = ALL_FUNCS,
    cmps: Sequence[Comparison] = ALL_CMPS,
    negative_conditions: bool = True,
    negative_literals: bool = True,
) -> Program:
    atoms = [f"a{i}" for i in range(rng.randint(1, max_atoms))]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = rng.choice(atoms)
        body = []
        for _ in range(rng.randint(0, max_body)):
            if rng.random() < aggregate_probability:
                body.append(
                    random_aggregate_atom(
                        rng,
                        atoms,
                        max_entries=3,
                        funcs=funcs,
                        cmps=cmps,
                        negative_conditions=negative_conditions,
                    )
                )
            else:
                negated = negative_literals and rng.random() < 0.4
                body.append(Literal(rng.choice(atoms), negated))
        rules.append(Rule(head, tuple(body)))
    return Program(tuple(rules), Universe(atoms))
