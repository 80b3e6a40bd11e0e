"""The ternary satisfaction relations, their three-valued truth functions
where they exist, well-behavedness checking, precision comparison and
convexity analysis.

A ternary satisfaction relation marks body elements that are *certainly
true* in a consistent pair (lower, upper).  All relations here agree on
literals (positive: atom in lower; negative: atom not in upper) and
differ only on aggregate atoms:

  gl        literals only; aggregates are rejected
  triv      upper satisfies the atom and every condition literal has the
            same value in lower and upper (all condition atoms decided)
  gz        upper satisfies the atom and each upper-true condition is
            certainly true (reduct-style projection onto true conditions)
  ult       the atom holds at every interpretation in the interval
  lpst      same as ult by definition; kept as an independent textbook
            implementation that sweeps the whole interval unrestricted
  bnd       like ult, but sum/prod/card with = and != are decided from
            exact value bounds only (polynomial, may answer u)
  mr        upper satisfies the atom and some subset of lower does
  flp       both lower and upper satisfy the atom
  ultimate  whole disjunctive bodies only: the disjunction holds at
            every interpretation in the interval (not truth-functional)

Each `SemanticsId` member carries its row of this table, so adding a
semantics is adding one row.  Every row says whether one head's
disjunction of bodies is certainly true: an element-wise row by some
body with every element certainly true, `ultimate` by its own sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, NoReturn, Sequence, Union

from .bounds import bnd_truth, interval_truth
from .errors import CapabilityError, TooLargeError, check_universe_size
from .eval2 import (
    aggregate_holds_everywhere,
    eval_aggregate,
    literal_holds,
    sat2_disjunction,
    sat2_element,
)
from .interp import (
    Interpretation,
    InterpretationPair,
    enumerate_interval,
    extensions,
)
from .syntax import (
    AggregateAtom,
    BodyElement,
    Literal,
    Program,
)
from .truth import TruthValue, conjunction, negate

__all__ = [
    "SemanticsId",
    "TruthValue",
    "sat3",
    "sat3_body",
    "sat3_upper",
    "truth3",
    "truth3_body",
    "Analysis",
    "WellBehavedReport",
    "WellBehavedCounterexample",
    "check_well_behaved",
    "PrecisionOrder",
    "PrecisionResult",
    "compare_precision",
    "is_convex",
    "all_consistent_pairs",
]

DisjunctiveBody = tuple[tuple[BodyElement, ...], ...]


def _literal_sat3(lit: Literal, pair: InterpretationPair) -> bool:
    if lit.negated:
        return lit.atom not in pair.upper.atoms
    return lit.atom in pair.lower.atoms


def _literal_truth(lit: Literal, pair: InterpretationPair) -> TruthValue:
    if lit.atom in pair.lower.atoms:
        value = TruthValue.TRUE
    elif lit.atom not in pair.upper.atoms:
        value = TruthValue.FALSE
    else:
        value = TruthValue.UNDEFINED
    return negate(value) if lit.negated else value


def _aggregate_free_only(atom: AggregateAtom, pair: InterpretationPair) -> NoReturn:
    raise CapabilityError("gl is defined for aggregate-free programs only")


def _triv_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    if all(a in pair.lower.atoms or a not in pair.upper.atoms for a in atom.condition_atoms):
        return TruthValue.from_bool(eval_aggregate(atom, pair.upper))
    return TruthValue.UNDEFINED


def _gz_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    return eval_aggregate(atom, pair.upper) and all(
        _literal_sat3(cond, pair) for cond in atom.conditions if literal_holds(cond, pair.upper)
    )


def _lpst_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    # Deliberately sweeps the full unrestricted interval: an independent
    # realization of the same definition as ult's restricted sweep.
    return all(
        eval_aggregate(atom, z) for z in enumerate_interval(pair.lower, pair.upper)
    )


def _mr_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """Upper satisfies the atom and some subset of lower does.

    Only the trace on the atom's condition atoms matters, so the subsets
    of lower restricted to those atoms cover all cases.
    """
    if not eval_aggregate(atom, pair.upper):
        return False
    base = [a for a in atom.condition_atoms if a in pair.lower.atoms]
    return any(eval_aggregate(atom, z) for z in extensions(pair.lower.with_atoms(()), base))


def _flp_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    return eval_aggregate(atom, pair.lower) and eval_aggregate(atom, pair.upper)


def _atoms_of(elements: Iterable[BodyElement]) -> tuple[str, ...]:
    """The atoms the elements mention, first occurrence first."""
    mentioned = ([e.atom] if isinstance(e, Literal) else e.condition_atoms for e in elements)
    return tuple(dict.fromkeys(a for atoms in mentioned for a in atoms))


def _ultimate_certain(bodies: DisjunctiveBody, pair: InterpretationPair) -> bool:
    """The disjunction holds at every interpretation in the interval; only
    the atoms occurring in the bodies vary."""
    relevant = frozenset(_atoms_of(element for body in bodies for element in body))
    return all(
        sat2_disjunction(bodies, z)
        for z in enumerate_interval(pair.lower, pair.upper, restrict=relevant)
    )


class SemanticsId(Enum):
    """A semantics tag together with its row of the relation table: the
    three-valued truth function of aggregate atoms (None when the relation
    has none), the certain-truth test of aggregate atoms (by default, the
    truth function says t; None when the row is not element-wise), the
    capability flags, and a test of one head's whole disjunction of bodies
    for the row that is not element-wise."""

    def __new__(cls, tag, truth, certain=None, well_behaved=True, monotone=True, bodies=None):
        member = object.__new__(cls)
        member._value_ = tag
        if certain is None and truth is not None:
            certain = lambda atom, pair: truth(atom, pair) is TruthValue.TRUE
        member._truth = truth
        member._certain = certain
        member._bodies = bodies
        member.is_well_behaved_claimed = well_behaved
        member.monotone_lower_operator = monotone
        return member

    # tag, truth function, certain-truth test, well-behaved, monotone, disjunction test
    GL = ("gl", _aggregate_free_only)
    TRIV = ("triv", _triv_truth)
    GZ = ("gz", None, _gz_certain)
    ULT = ("ult", interval_truth, aggregate_holds_everywhere)
    LPST = ("lpst", None, _lpst_certain)
    BND = ("bnd", bnd_truth)
    MR = ("mr", None, _mr_certain, False)
    FLP = ("flp", None, _flp_certain, False, False)
    ULTIMATE = ("ultimate", None, None, True, True, _ultimate_certain)

    def __str__(self) -> str:
        return self.value

    @staticmethod
    def from_tag(tag: "SemanticsId | str") -> "SemanticsId":
        if isinstance(tag, SemanticsId):
            return tag
        try:
            return SemanticsId(tag)
        except ValueError:
            valid = ", ".join(s.value for s in SemanticsId)
            raise CapabilityError(f"unknown semantics {tag!r} (expected one of: {valid})") from None

    @property
    def has_truth_function(self) -> bool:
        return self._truth is not None

    @property
    def is_elementwise(self) -> bool:
        return self._certain is not None

    @property
    def handles_aggregates(self) -> bool:
        return self._truth is not _aggregate_free_only

    def _element_truth(self, element: BodyElement, pair: InterpretationPair) -> TruthValue:
        if isinstance(element, Literal):
            return _literal_truth(element, pair)
        return self._truth(element, pair)

    def bodies_certain(self, bodies: DisjunctiveBody, pair: InterpretationPair) -> bool:
        """Is one head's disjunction of bodies certainly true at the pair,
        which the caller has checked to be consistent?"""
        if self._bodies is not None:
            return self._bodies(bodies, pair)
        test = self._certain
        return any(
            all(_literal_sat3(e, pair) if isinstance(e, Literal) else test(e, pair) for e in body)
            for body in bodies
        )

    def bodies_possible(self, bodies: DisjunctiveBody, pair: InterpretationPair) -> bool:
        """Has one of the head's bodies no false element at the consistent
        pair?  For a row with a truth function, which the caller checks."""
        truth, false = self._element_truth, TruthValue.FALSE
        return any(all(truth(e, pair) is not false for e in body) for body in bodies)


def sat3(sem: SemanticsId | str, element: BodyElement, pair: InterpretationPair) -> bool:
    """Certain-truth of one body element under the selected relation."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    if not sem.is_elementwise:
        raise CapabilityError("the whole-program relation applies to bodies, not elements")
    if isinstance(element, Literal):
        return _literal_sat3(element, pair)
    return sem._certain(element, pair)


def sat3_body(
    sem: SemanticsId | str,
    body: Union[Sequence[BodyElement], DisjunctiveBody],
    pair: InterpretationPair,
) -> bool:
    """Certain-truth of a rule body (for `ultimate`: of the whole
    disjunction of one head's bodies, which must be passed as a sequence
    of bodies)."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    bodies = (body,) if sem.is_elementwise else tuple(map(tuple, body))  # type: ignore[arg-type]
    return sem.bodies_certain(bodies, pair)  # type: ignore[arg-type]


def truth3(sem: SemanticsId | str, element: BodyElement, pair: InterpretationPair) -> TruthValue:
    """Three-valued truth of one body element; only gl, triv, ult and bnd
    have truth functions."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    if sem._truth is None:
        raise CapabilityError(f"{sem.value} has no three-valued truth function")
    return sem._element_truth(element, pair)


def truth3_body(
    sem: SemanticsId | str, body: Sequence[BodyElement], pair: InterpretationPair
) -> TruthValue:
    return conjunction(truth3(sem, element, pair) for element in body)


def sat3_upper(sem: SemanticsId | str, element: BodyElement, pair: InterpretationPair) -> bool:
    """Possible-truth (satisfiability) of one element: truth value t or u."""
    return truth3(sem, element, pair) is not TruthValue.FALSE


# ---------------------------------------------------------------------------
# Well-behavedness and precision
# ---------------------------------------------------------------------------

Formula = Union[BodyElement, DisjunctiveBody]

MAX_ANALYZE_ATOMS = 8


def _ordered_subsets(universe: tuple[str, ...]) -> list[frozenset[str]]:
    """Every subset, by size and then by universe positions."""
    return [
        frozenset(subset)
        for size in range(len(universe) + 1)
        for subset in combinations(universe, size)
    ]


def all_consistent_pairs(universe: Iterable[str]) -> list[InterpretationPair]:
    """Every consistent pair over the universe, in a fixed order."""
    universe = tuple(universe)
    subsets = _ordered_subsets(universe)
    pairs = []
    for upper in subsets:
        up = Interpretation(universe, upper)
        for lower in subsets:
            if lower <= upper:
                pairs.append(InterpretationPair(Interpretation(universe, lower), up))
    return pairs


def _formulas_of(sem: SemanticsId, source: Union[Program, list[BodyElement]]):
    """The formulas a relation is analysed on, its certain truth of one
    formula at a pair and their two-valued truth: the body elements for
    an element-wise relation, else each head's disjunction of bodies
    (each source element alone when the source is not a program)."""
    program = isinstance(source, Program)
    if sem.is_elementwise:
        return list(source.body_elements() if program else source), sat3, sat2_element
    heads = [bodies for _, bodies in source.entries] if program else [((e,),) for e in source]
    return heads, sat3_body, sat2_disjunction


@dataclass(frozen=True)
class WellBehavedCounterexample:
    kind: str  # "exact" or "monotone"
    formula: Formula
    pair: InterpretationPair
    refined: InterpretationPair | None = None

    def __str__(self) -> str:
        if self.kind == "exact":
            return f"two-valued disagreement at {self.pair} on {_format_formula(self.formula)}"
        return (
            f"satisfied at {self.pair} but not at the refinement {self.refined} "
            f"on {_format_formula(self.formula)}"
        )


def _formula_atoms(formula: Formula) -> tuple[str, ...]:
    """The atoms a body element, or a disjunction of bodies, mentions."""
    if isinstance(formula, tuple):
        return _atoms_of(element for body in formula for element in body)
    return _atoms_of((formula,))


def _format_formula(formula: Formula) -> str:
    if isinstance(formula, tuple):
        return " | ".join(", ".join(str(e) for e in body) for body in formula)
    return str(formula)


@dataclass(frozen=True)
class WellBehavedReport:
    holds: bool
    counterexample: WellBehavedCounterexample | None = None


def check_well_behaved(
    sem: SemanticsId | str,
    source: Union[Program, Iterable[BodyElement]],
    max_universe: int = MAX_ANALYZE_ATOMS,
) -> WellBehavedReport:
    """Exhaustively test both well-behavedness conditions over all
    consistent pairs: agreement with two-valued satisfaction on exact
    pairs, and preservation of satisfaction under precision refinement.

    Refinement is checked one atom at a time; any refinement decomposes
    into such steps, so this is complete.  When a violation exists, a
    scan ordered from the least precise pair reconstructs a
    counterexample with the smallest refined upper set.
    """
    return Analysis(source, max_universe).well_behaved(sem)


class PrecisionOrder(Enum):
    EQUAL = "equal"
    FIRST_LESS_PRECISE = "first <=p second"
    SECOND_LESS_PRECISE = "second <=p first"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class PrecisionResult:
    order: PrecisionOrder
    only_first: tuple[Formula, InterpretationPair] | None
    only_second: tuple[Formula, InterpretationPair] | None


def compare_precision(
    sem_a: SemanticsId | str,
    sem_b: SemanticsId | str,
    program: Program,
    max_universe: int = MAX_ANALYZE_ATOMS,
) -> PrecisionResult:
    """Compare two relations pointwise over all consistent pairs and all
    body elements of the program; a relation is less precise when its
    satisfactions are a subset of the other's.  The witnesses are the
    first element, then the first pair, where only one relation holds."""
    return Analysis(program, max_universe).precision(sem_a, sem_b)


class _PairIndex:
    """The consistent pairs of one universe, in `all_consistent_pairs`
    order, with each pair's lower and upper sets as bitmasks (bit k stands
    for universe[k]), the indexes of the exact pairs, and each pair's
    single-step refinements as indexes: for every undefined atom in
    universe order, the pair that makes it true, then the pair that makes
    it false.  `restrictions` numbers the pairs' restrictions to a set of
    atoms."""

    def __init__(self, universe: tuple[str, ...]):
        self.pairs = all_consistent_pairs(universe)
        self._bit = bit = {a: 1 << k for k, a in enumerate(universe)}
        self.masks = [
            (sum(bit[a] for a in p.lower.atoms), sum(bit[a] for a in p.upper.atoms))
            for p in self.pairs
        ]
        at = {mask: i for i, mask in enumerate(self.masks)}
        self.exact = [i for i, (lo, up) in enumerate(self.masks) if lo == up]
        self.refinements = [
            [
                at[step]
                for b in bit.values()
                if (lo ^ up) & b
                for step in ((lo | b, up), (lo, up ^ b))
            ]
            for lo, up in self.masks
        ]
        self._restrictions: dict[int, list[int]] = {}

    def restrictions(self, atoms: Iterable[str]) -> list[int]:
        """Per pair, the number of its restriction to the distinct `atoms`,
        the restrictions numbered in the order the pairs first reach them;
        built once per set of atoms."""
        mask = sum(self._bit[a] for a in atoms)
        numbers = self._restrictions.get(mask)
        if numbers is None:
            seen: dict[tuple[int, int], int] = {}
            numbers = self._restrictions[mask] = [
                seen.setdefault((lo & mask, up & mask), len(seen)) for lo, up in self.masks
            ]
        return numbers


class _Table:
    """One relation's certain-truth of each formula at the indexed pairs,
    with the two-valued truth of its formulas as `holds`.  The relation
    reads a pair only on the formula's atoms, and its answer, or the
    error it raises, is a function of the pair restricted to them.  So
    each formula has one row with one value per restriction of the pairs
    to its atoms (None until read), filled on the first read of a
    restriction by evaluating at the pair being read."""

    def __init__(self, sem: SemanticsId, source, index: _PairIndex):
        self.sem = sem
        self.formulas, self.certain, self.holds = _formulas_of(sem, source)
        self.index = index
        self.restriction = [index.restrictions(_formula_atoms(f)) for f in self.formulas]
        self.rows: list[list[bool | None]] = [[None] * (max(r) + 1) for r in self.restriction]

    def __call__(self, fi: int, pi: int) -> bool:
        row, ri = self.rows[fi], self.restriction[fi][pi]
        value = row[ri]
        if value is None:
            value = row[ri] = self.certain(self.sem, self.formulas[fi], self.index.pairs[pi])
        return value


class Analysis:
    """Well-behavedness and precision of relations over one source: a
    program, or body elements whose atoms form the universe.

    Each relation has one table of its certain-truth at every (formula,
    consistent pair), filled on first read and shared by every check
    that reads it.  A formula's row holds one value per restriction of
    the pairs to the formula's atoms, so one Analysis evaluates a
    relation at most once per (formula, restricted pair).  Every check
    reads its table in the order of its own loops, and the first read of
    a restriction evaluates at the pair being read, so an evaluation that
    raises is reached at the same read, with the same message, as by a
    check that evaluates afresh.
    """

    def __init__(
        self,
        source: Union[Program, Iterable[BodyElement]],
        max_universe: int = MAX_ANALYZE_ATOMS,
    ):
        self._source = source if isinstance(source, Program) else list(source)
        self._max_universe = max_universe
        self._index: _PairIndex | None = None
        self._tables: dict[SemanticsId, _Table] = {}

    def _table(self, sem: SemanticsId) -> _Table:
        table = self._tables.get(sem)
        if table is None:
            if self._index is None:
                source = self._source
                universe = source.universe if isinstance(source, Program) else _atoms_of(source)
                check_universe_size(len(universe), self._max_universe)
                self._index = _PairIndex(universe)
            table = self._tables[sem] = _Table(sem, self._source, self._index)
        return table

    def well_behaved(self, sem: SemanticsId | str) -> WellBehavedReport:
        """See `check_well_behaved`."""
        sem = SemanticsId.from_tag(sem)
        sat = self._table(sem)
        index = sat.index
        pairs, formulas = index.pairs, sat.formulas
        for fi, formula in enumerate(formulas):
            for pi in index.exact:
                if sat(fi, pi) != sat.holds(formula, pairs[pi].lower):
                    return WellBehavedReport(
                        False, WellBehavedCounterexample("exact", formula, pairs[pi])
                    )

        violated = any(
            sat(fi, pi) and not all(sat(fi, ri) for ri in steps)
            for fi in range(len(formulas))
            for pi, steps in enumerate(index.refinements)
        )
        if not violated:
            return WellBehavedReport(True)

        masks = index.masks
        widths = [(lo ^ up).bit_count() for lo, up in masks]
        for pi in sorted(range(len(pairs)), key=lambda i: -widths[i]):
            lo, up = masks[pi]
            for fi, formula in enumerate(formulas):
                if not sat(fi, pi):
                    continue
                # ri == pi never matches, since sat holds at pi
                for ri, (refined_lo, refined_up) in enumerate(masks):
                    if lo & refined_lo == lo and refined_up & up == refined_up and not sat(fi, ri):
                        return WellBehavedReport(
                            False,
                            WellBehavedCounterexample("monotone", formula, pairs[pi], pairs[ri]),
                        )
        raise AssertionError("single-step violation had no two-pair witness")

    def precision(self, sem_a: SemanticsId | str, sem_b: SemanticsId | str) -> PrecisionResult:
        """See `compare_precision`."""
        sem_a, sem_b = SemanticsId.from_tag(sem_a), SemanticsId.from_tag(sem_b)
        if not (sem_a.is_elementwise and sem_b.is_elementwise):
            raise CapabilityError("precision comparison covers element-wise relations only")
        sat_a, sat_b = self._table(sem_a), self._table(sem_b)
        only_a = only_b = None
        for fi, element in enumerate(sat_a.formulas):
            for pi, pair in enumerate(sat_a.index.pairs):
                a, b = sat_a(fi, pi), sat_b(fi, pi)
                if a and not b and only_a is None:
                    only_a = (element, pair)
                if b and not a and only_b is None:
                    only_b = (element, pair)
        if only_a is None and only_b is None:
            order = PrecisionOrder.EQUAL
        elif only_a is None:
            order = PrecisionOrder.FIRST_LESS_PRECISE
        elif only_b is None:
            order = PrecisionOrder.SECOND_LESS_PRECISE
        else:
            order = PrecisionOrder.INCOMPARABLE
        return PrecisionResult(order, only_a, only_b)


MAX_CONVEXITY_ATOMS = 16


def is_convex(atom: AggregateAtom) -> bool:
    """No chain X <= Y <= Z over the condition atoms satisfies the atom at
    X and Z but not at Y (checked by subset/superset reachability)."""
    atoms = atom.condition_atoms
    n = len(atoms)
    if n > MAX_CONVEXITY_ATOMS:
        raise TooLargeError(
            f"{n} condition atoms exceed the convexity bound {MAX_CONVEXITY_ATOMS}"
        )
    # sat[mask] is the value at the subset holding atoms[b] for each bit b
    # set in mask, which is the order of the walk
    sat = [eval_aggregate(atom, z) for z in extensions(Interpretation.empty(atoms), atoms)]
    masks = range(len(sat))
    has_sat_subset = list(sat)
    for mask in masks:
        if not has_sat_subset[mask]:
            has_sat_subset[mask] = any(
                has_sat_subset[mask ^ (1 << b)] for b in range(n) if mask >> b & 1
            )
    has_sat_superset = list(sat)
    for mask in reversed(masks):
        if not has_sat_superset[mask]:
            has_sat_superset[mask] = any(
                has_sat_superset[mask | (1 << b)] for b in range(n) if not mask >> b & 1
            )
    return not any(
        not sat[mask] and has_sat_subset[mask] and has_sat_superset[mask] for mask in masks
    )
