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
body with every element certainly true, `ultimate` by `ult`'s interval
sweep applied to the whole disjunction (see `eval2`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence, Union

from .bounds import _bnd_truth, interval_truth
from .errors import CapabilityError, TooLargeError, check_universe_size
from .eval2 import (
    _flp_certain,
    _gz_certain,
    _interval_sweep,
    _mr_certain,
    _triv_truth,
    _walk_truths,
    sat2_disjunction,
    sat2_element,
)
from .interp import (
    Interpretation,
    InterpretationPair,
    Universe,
    _interval_free_atoms,
)
from .syntax import (
    AggregateAtom,
    Bodies,
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


def _literal_sat3(lit: Literal, pair: InterpretationPair) -> bool:
    if lit.negated:
        return lit.atom not in pair.upper
    return lit.atom in pair.lower


def _literal_truth(lit: Literal, pair: InterpretationPair) -> TruthValue:
    if lit.atom in pair.lower:
        value = TruthValue.TRUE
    elif lit.atom not in pair.upper:
        value = TruthValue.FALSE
    else:
        value = TruthValue.UNDEFINED
    return negate(value) if lit.negated else value


def _aggregate_free_only(atom: AggregateAtom, pair: InterpretationPair) -> NoReturn:
    raise CapabilityError("gl is defined for aggregate-free programs only")


def _lpst_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    # Deliberately sweeps the full unrestricted interval: an independent
    # realization of the same definition as ult's restricted sweep.
    free = _interval_free_atoms(pair.lower, pair.upper, None)
    return all(_walk_truths(atom, pair.lower, free))


def _sweep_certain(owner: AggregateAtom | Bodies, pair: InterpretationPair) -> bool:
    """ult on an aggregate atom, and ultimate on a head's disjunction of
    bodies: the owner holds at every interpretation in the interval of a
    pair the caller has checked; only the owner's atoms vary."""
    return _interval_sweep(owner, pair, True) is True


class _Row(NamedTuple):
    """One row of the relation table, the arguments of a `SemanticsId`
    member.  Each test takes an aggregate atom, or a head's `Bodies`, and
    a consistent `InterpretationPair`, which a Kleene loop builds from its
    two masks each round.  A test that reads a kernel reads the pair's
    `universe` and `masks`; one that evaluates the atom at the pair's
    sets reads `lower` and `upper`, at their masks."""

    tag: str
    truth: Callable | None = None  # three-valued truth of an aggregate atom
    certain: Callable | None = None  # its certain truth; default: truth says t
    well_behaved: bool = True
    monotone: bool = True
    bodies: Callable | None = None  # a whole disjunction, for the row that is not element-wise


class SemanticsId(Enum):
    """A semantics tag together with its row of the relation table (see
    `_Row`): the three-valued truth function of aggregate atoms (None
    when the relation has none), the certain-truth test of aggregate
    atoms (None when the row is not element-wise), the capability flags,
    and a test of one head's whole disjunction of bodies for the row that
    is not element-wise."""

    def __new__(cls, tag, truth, certain, well_behaved, monotone, bodies):
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

    GL = _Row("gl", _aggregate_free_only)
    TRIV = _Row("triv", _triv_truth)
    GZ = _Row("gz", certain=_gz_certain)
    ULT = _Row("ult", interval_truth, _sweep_certain)
    LPST = _Row("lpst", certain=_lpst_certain)
    BND = _Row("bnd", _bnd_truth)
    MR = _Row("mr", certain=_mr_certain, well_behaved=False)
    FLP = _Row("flp", certain=_flp_certain, well_behaved=False, monotone=False)
    ULTIMATE = _Row("ultimate", bodies=_sweep_certain)

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

    def bodies_certain(self, bodies: Bodies, pair: InterpretationPair) -> bool:
        """Is one head's disjunction of bodies certainly true at the pair,
        which the caller has checked to be consistent?  An element-wise
        row tests the bodies and their elements left to right, each body
        up to its first element that is not certainly true: a literal reads
        its bit of the pair's masks (an atom outside the universe is
        false), an aggregate atom takes the row's test."""
        if self._bodies is not None:
            return self._bodies(bodies, pair)
        test, bits = self._certain, pair.universe.bits
        lower, upper = pair.masks
        for body in bodies:
            for element in body:
                if element.__class__ is Literal:
                    bit = bits.get(element.atom, 0)
                    if upper & bit if element.negated else not lower & bit:
                        break
                elif not test(element, pair):
                    break
            else:
                return True
        return False

    def bodies_possible(self, bodies: Bodies, pair: InterpretationPair) -> bool:
        """Has one of the head's bodies no false element at the consistent
        pair?  For a row with a truth function, which the caller checks;
        in the order of `bodies_certain`, each body up to its first false
        element."""
        truth, false, bits = self._truth, TruthValue.FALSE, pair.universe.bits
        lower, upper = pair.masks
        for body in bodies:
            for element in body:
                if element.__class__ is Literal:
                    bit = bits.get(element.atom, 0)
                    if lower & bit if element.negated else not upper & bit:
                        break
                elif truth(element, pair) is false:
                    break
            else:
                return True
        return False


def sat3(sem: SemanticsId | str, element: BodyElement, pair: InterpretationPair) -> bool:
    """Certain-truth of one body element under the selected relation."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    if not sem.is_elementwise:
        raise CapabilityError("the whole-program relation applies to bodies, not elements")
    if isinstance(element, Literal):
        return _literal_sat3(element, pair)
    return sem._certain(element, pair)


# The most distinct plain disjunctions `sat3_body("ultimate")` keeps
# wrapped in a `Bodies`, each with its kernel: room for every head of
# many programs at the default universe cap of 20 atoms.
PLAIN_BODIES_CACHE = 256


def sat3_body(
    sem: SemanticsId | str,
    body: Union[Sequence[BodyElement], Sequence[Sequence[BodyElement]]],
    pair: InterpretationPair,
) -> bool:
    """Certain-truth of a rule body (for `ultimate`: of the whole
    disjunction of one head's bodies, which must be passed as a sequence
    of bodies).  An element-wise relation wraps its body in a `Bodies`.
    `ultimate` wraps plain input in one `Bodies` per distinct disjunction
    while the cache holds it, so its kernel is built once; a program's
    own `Bodies` keep theirs."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    if sem.is_elementwise:
        bodies = Bodies((tuple(body),))
    elif isinstance(body, Bodies):
        bodies = body
    else:
        bodies = _plain_bodies(tuple(map(tuple, body)))
    return sem.bodies_certain(bodies, pair)


@lru_cache(maxsize=PLAIN_BODIES_CACHE)
def _plain_bodies(bodies: tuple[tuple[BodyElement, ...], ...]) -> Bodies:
    return Bodies(bodies)


def truth3(sem: SemanticsId | str, element: BodyElement, pair: InterpretationPair) -> TruthValue:
    """Three-valued truth of one body element; only gl, triv, ult and bnd
    have truth functions."""
    sem = SemanticsId.from_tag(sem)
    pair.require_consistent()
    if sem._truth is None:
        raise CapabilityError(f"{sem.value} has no three-valued truth function")
    if isinstance(element, Literal):
        return _literal_truth(element, pair)
    return sem._truth(element, pair)


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

Formula = Union[BodyElement, Bodies]

MAX_ANALYZE_ATOMS = 8


def all_consistent_pairs(universe: Iterable[str]) -> list[InterpretationPair]:
    """Every consistent pair over the universe, in `_PairIndex` order."""
    index = _PairIndex(universe)
    return list(map(index.pair, range(len(index.masks))))


def _formulas_of(sem: SemanticsId, source: Union[Program, list[BodyElement]]):
    """The formulas a relation is analysed on, its certain truth of one
    formula at a pair and their two-valued truth: the body elements for
    an element-wise relation, else each head's disjunction of bodies
    (each source element alone when the source is not a program)."""
    program = isinstance(source, Program)
    if sem.is_elementwise:
        return list(source.body_elements() if program else source), sat3, sat2_element
    heads = [b for _, b in source.entries] if program else [Bodies(((e,),)) for e in source]
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
    """The atoms a body element, or a disjunction of bodies, mentions,
    first occurrence first; a disjunction's are its `Bodies.atoms`."""
    if isinstance(formula, Literal):
        return (formula.atom,)
    if isinstance(formula, AggregateAtom):
        return formula.condition_atoms
    return formula.atoms


def _format_formula(formula: Formula) -> str:
    if isinstance(formula, Bodies):
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
    """The consistent pairs that vary `atoms` (by default the whole
    universe) and make every other atom false, as (lower, upper) masks
    (`Interpretation.mask`); `mask` is that of `atoms`.  The subsets of
    `atoms` are taken by size and then by universe positions, each
    built once as an Interpretation, and the pairs are ordered by upper
    set, then by lower set, in that order.  The `InterpretationPair` of
    a pair is built from those subsets when it is read, and kept.
    `exact`, `position` and `steps` are built on first use.

    The universe's order restricted to the subsets of `atoms` is their
    own order.  So the index over a formula's atoms holds the
    restrictions of the universe's pairs to those atoms in the order the
    universe's pairs first reach them: the first pair to reach (lower,
    upper) is (lower, upper) itself, with the other atoms false."""

    def __init__(self, universe: Iterable[str], atoms: Iterable[str] | None = None):
        universe = Universe.of(universe)
        if atoms is not None:
            atoms = frozenset(atoms)
        # the masks of the one-atom subsets of `atoms`, in universe order
        self.bits = [bit for a, bit in universe.bits.items() if atoms is None or a in atoms]
        self.mask = sum(self.bits)
        subsets = (map(sum, combinations(self.bits, size)) for size in range(len(self.bits) + 1))
        self.sets = {mask: Interpretation(universe, mask) for masks in subsets for mask in masks}
        self.masks = [(lo, up) for up in self.sets for lo in self.sets if lo & up == lo]
        self._pairs: list[InterpretationPair | None] = [None] * len(self.masks)

    def pair(self, pi: int) -> InterpretationPair:
        pair = self._pairs[pi]
        if pair is None:
            lo, up = self.masks[pi]
            pair = self._pairs[pi] = InterpretationPair(self.sets[lo], self.sets[up])
        return pair

    @cached_property
    def exact(self) -> list[int]:
        """The positions of the exact pairs, in pair order."""
        return [pi for pi, (lo, up) in enumerate(self.masks) if lo == up]

    @cached_property
    def position(self) -> dict[tuple[int, int], int]:
        """Each pair's position, by its (lower, upper) masks."""
        return {masks: pi for pi, masks in enumerate(self.masks)}

    @cached_property
    def steps(self) -> list[list[int]]:
        """Per pair, the pairs one step more precise: for every undefined
        atom, in universe order, the pair that makes it true, then the
        one that makes it false."""
        position = self.position
        return [
            [
                position[step]
                for bit in self.bits
                if (lo ^ up) & bit
                for step in ((lo | bit, up), (lo, up ^ bit))
            ]
            for lo, up in self.masks
        ]

    def refinements(self, pi: int) -> list[int]:
        """The pairs at least as precise as pair pi, in pair order.

        A scan over the universe's pairs from the least precise reaches
        the restriction pi first at its widest pair, which leaves every
        atom outside `atoms` undefined.  Among the pairs refining that
        one, the first to reach a restriction is the restriction itself,
        with the atoms outside false.  So the refinements of the widest
        pair reach the restrictions in this order."""
        lo, up = self.masks[pi]
        refined = [(lo, up)]
        for bit in self.bits:
            if (lo ^ up) & bit:
                refined = [s for l, u in refined for s in ((l, u), (l | bit, u), (l, u ^ bit))]
        return sorted(map(self.position.__getitem__, refined))


class _Table:
    """One relation's certain-truth of each formula, with the two-valued
    truth of its formulas as `holds`.  The relation reads a pair only on
    the formula's atoms, and its answer, or the error it raises, is a
    function of the pair restricted to them.  So formula fi has one row
    with one value (None until read) per pair of its own index
    `indexes[fi]`, the pairs that vary its atoms: they are the
    restrictions of every consistent pair to those atoms, in the order
    the universe's pairs first reach them (see `_PairIndex`).

    The same fact lets a scan visit, per formula, only its own pairs.
    What a scan finds at a pair, a witness or the error an evaluation
    raises, is a function of the pair's restriction, so no earlier pair
    shares the restriction of the first pair with a finding: it reaches
    its restriction first.  Visiting the first-reaching pairs alone, in
    the same order, meets the same first finding, so reports the same
    witness and raises the same first error."""

    def __init__(self, sem: SemanticsId, source, pair_index):
        self.sem = sem
        self.formulas, self.certain, self.holds = _formulas_of(sem, source)
        self.indexes: list[_PairIndex] = [pair_index(_formula_atoms(f)) for f in self.formulas]
        self.rows: list[list[bool | None]] = [[None] * len(i.masks) for i in self.indexes]

    def __call__(self, fi: int, pi: int) -> bool:
        row = self.rows[fi]
        value = row[pi]
        if value is None:
            value = row[pi] = self.certain(self.sem, self.formulas[fi], self.indexes[fi].pair(pi))
        return value


class Analysis:
    """Well-behavedness and precision of relations over one source: a
    program, or body elements whose atoms form the universe.

    Each relation has one table of its certain-truth at every (formula,
    pair of the formula's own index), filled on first read and shared by
    every check that reads it; formulas with the same atoms share one
    index.  So one Analysis evaluates a relation at most once per
    (formula, restricted pair).  Every check visits, per formula, only
    its own pairs (see `_Table`), at the same pairs as a check that
    evaluates afresh at every consistent pair would first reach them, so
    an evaluation that raises is reached with the same message, and
    every witness and counterexample is the one that check finds.  Only
    the counterexample scan indexes the universe's pairs.
    """

    def __init__(
        self,
        source: Union[Program, Iterable[BodyElement]],
        max_universe: int = MAX_ANALYZE_ATOMS,
    ):
        self._source = source if isinstance(source, Program) else list(source)
        self._max_universe = max_universe
        self._universe: tuple[str, ...] | None = None
        self._indexes: dict[frozenset[str], _PairIndex] = {}
        self._tables: dict[SemanticsId, _Table] = {}

    def _pair_index(self, atoms: Iterable[str]) -> _PairIndex:
        """The index of the pairs that vary these atoms, one per set of atoms."""
        atoms = frozenset(atoms)
        index = self._indexes.get(atoms)
        if index is None:
            index = self._indexes[atoms] = _PairIndex(self._universe, atoms)
        return index

    def _table(self, sem: SemanticsId) -> _Table:
        table = self._tables.get(sem)
        if table is None:
            if self._universe is None:
                source = self._source
                program = isinstance(source, Program)
                universe = source.universe if program else Bodies((tuple(source),)).atoms
                check_universe_size(len(universe), self._max_universe)
                self._universe = Universe.of(universe)
            table = self._tables[sem] = _Table(sem, self._source, self._pair_index)
        return table

    def well_behaved(self, sem: SemanticsId | str) -> WellBehavedReport:
        """See `check_well_behaved`."""
        sem = SemanticsId.from_tag(sem)
        sat = self._table(sem)
        formulas, indexes = sat.formulas, sat.indexes
        # the exact scan: each formula's exact pairs
        for fi, formula in enumerate(formulas):
            for pi in indexes[fi].exact:
                pair = indexes[fi].pair(pi)
                if sat(fi, pi) != sat.holds(formula, pair.lower):
                    return WellBehavedReport(
                        False, WellBehavedCounterexample("exact", formula, pair)
                    )

        # the one-step scan: a refinement by an atom the formula does not
        # mention keeps the pair's restriction, so only `steps` can fail
        for fi, index in enumerate(indexes):
            read = partial(sat, fi)
            steps = enumerate(index.steps)
            if any(read(pi) and not all(map(read, refined)) for pi, refined in steps):
                break
        else:
            return WellBehavedReport(True)

        # the counterexample scan: the universe's pairs from the least
        # precise, each with its refinements in pair order.  What it finds
        # for a formula at a pair is a function of the pair's restriction,
        # so a formula is tested at the first, widest, pair of each
        # restriction only.
        universe = self._pair_index(self._universe)
        masks = universe.masks
        widths = [(lo ^ up).bit_count() for lo, up in masks]
        visited: list[set[int]] = [set() for _ in formulas]
        for pi in sorted(range(len(masks)), key=lambda i: -widths[i]):
            lo, up = masks[pi]
            for fi, formula in enumerate(formulas):
                index = indexes[fi]
                ri = index.position[lo & index.mask, up & index.mask]
                if ri in visited[fi]:
                    continue
                visited[fi].add(ri)
                if not sat(fi, ri):
                    continue
                for refined in index.refinements(ri):
                    if not sat(fi, refined):
                        return WellBehavedReport(
                            False,
                            WellBehavedCounterexample(
                                "monotone", formula, universe.pair(pi), index.pair(refined)
                            ),
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
            pair = sat_a.indexes[fi].pair
            for pi in range(len(sat_a.rows[fi])):
                a, b = sat_a(fi, pi), sat_b(fi, pi)
                if a and not b and only_a is None:
                    only_a = (element, pair(pi))
                if b and not a and only_b is None:
                    only_b = (element, pair(pi))
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
    sat = list(_walk_truths(atom, Interpretation(Universe(atoms)), atoms))
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
