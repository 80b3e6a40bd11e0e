"""Fixpoint engines: least fixpoints of the lower operator, stable-model
checking and enumeration per semantics, Kripke-Kleene and well-founded
fixpoints, and the classical (Gelfond-Lifschitz) reduct.  The aggregate
reducts (gz, flp) and the brute-force most precise approximator are
reference code and live in `oracle`, on the oracle's own two-valued
evaluation and subset walk.

The lower operator is per head: it maps (X, Y) to the heads whose
disjunction of bodies the relation's row finds certainly true; for the
semantics with truth functions the upper operator collects the heads
with a possibly true body.  Both take the rules grouped per head, as the
program caches them.  Y is a stable model when it is a supported model
and the least fixpoint of X -> lower(X, Y).  flp's lower operator is
monotone only when every aggregate of the program is convex; there it
coincides with ult's and Y is checked the same way.  On other programs
an flp candidate Y is stable when no proper subset X of Y is closed
under it, that is, contains lower(X, Y) (the minimal-model walk).

The Kleene loops are driven by dependencies.  A row's test of a head
reads the pair only on the atoms its bodies mention, and its answer, or
the error it raises, is a function of the pair restricted to them.  The
program caches the dependency index `dependents`: per atom, the heads
whose bodies mention it (an aggregate mentions its condition atoms).
So after its first step a loop tests again only the heads that mention
an atom the last step changed; every other head would give its last
answer again.  The loops walk the chains of plain iteration and raise
the same first error.

The checks cost little per candidate.  Stable search tests support
before it builds a candidate: `eval2` walks the box's candidates as
universe masks, reads each head's kernel at the mask and stops at the
first head it refutes, so only the candidates that pass become
Interpretations and reach `stable_check`.  The Kripke-Kleene loop (the
box included) and the least fixpoint carry their pair as two masks in
`interp`'s bit layout: a step's changed atoms are `old ^ new`, the
consistency check is `lower & ~upper`, and a head is tested with its
row's test (`SemanticsId.bodies_certain`, `bodies_possible`) at one
`interp._MaskPair` per step, which builds its InterpretationPair only
when a test reads a set: a literal reads its bit, and an atom or head
with a kernel the masks.  The minimal-model check, whose subset walk
builds each subset, tests every rule at one pair per subset.  Otherwise
pairs are built where they leave the loops:
the box, the Kripke-Kleene and well-founded pairs, the least fixpoint
`lfp_lower` returns, and the pair an InconsistentPairError names.  The
least fixpoint is semi-naive (a head already derived is not tested
again, and a waiting head only when an atom of its bodies was just
added) and stops as soon as it reaches Y.  The well-founded upper
bound, the least fixpoint of the upper operator, runs through the same
loop.  A well-founded round computes its lower (upper) set again only
when the upper (lower) set it is computed from differs from the last
round's.

Stable-model search tests only the candidates inside one box, the same
for every relation: the Kripke-Kleene fixpoint of the cheap `bnd`
approximator, iterated from (nothing, the head atoms).  It is sound for
every relation because every stable model here, FLP answer sets
included, is a supported model: a fixpoint M of the consequence
operator, so a set of heads, and (nothing, heads) is below (M, M) in
precision.  The `bnd` approximator is precision-monotone and maps (M, M)
to itself, so each pair of the iteration stays below (M, M), and so does
its limit: M lies between the box's lower and upper sets.  When the
bounds of an aggregate overflow on the way, the box is (nothing, the
head atoms) itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, TypeVar

from .errors import ArithmeticOverflowError, CapabilityError, check_universe_size
from .eval2 import _supported_extensions, is_supported_model
from .interp import (
    Interpretation,
    InterpretationPair,
    _atoms_at,
    _bit_index,
    _interpretation_at,
    _MaskPair,
    extensions,
)
from .syntax import Bodies, Literal, Program, Rule
from .ternary import SemanticsId

__all__ = [
    "WellFoundedResult",
    "lower_step",
    "upper_step",
    "lfp_lower",
    "stable_check",
    "stable_enumerate",
    "gl_reduct",
    "kripke_kleene",
    "well_founded",
]

DEFAULT_MAX_ATOMS = 20


@dataclass(frozen=True)
class WellFoundedResult:
    pair: InterpretationPair
    iterations: int


def lower_step(sem: SemanticsId | str, program: Program, pair: InterpretationPair) -> Interpretation:
    """Heads whose disjunction of bodies is certainly true in the pair."""
    return _step(SemanticsId.bodies_certain, sem, program, pair)


def upper_step(sem: SemanticsId | str, program: Program, pair: InterpretationPair) -> Interpretation:
    """Heads with a possibly true body; raises for a relation without a
    truth function, whatever the program."""
    sem = SemanticsId.from_tag(sem)
    if not sem.has_truth_function:
        raise CapabilityError(f"{sem.value} has no three-valued truth function")
    return _step(SemanticsId.bodies_possible, sem, program, pair)


def _step(holds, sem: SemanticsId | str, program: Program, pair: InterpretationPair):
    """The heads whose bodies pass the row's test `holds`, once gl has
    rejected an aggregate program and the pair has been checked."""
    sem = SemanticsId.from_tag(sem)
    _reject_gl_aggregates(sem, program)
    pair.require_consistent()
    fired = {head for head, bodies in program.entries if holds(sem, bodies, pair)}
    return Interpretation(program.universe, frozenset(fired))


def _reject_gl_aggregates(sem: SemanticsId, program: Program) -> None:
    if not (sem.handles_aggregates or program.is_aggregate_free):
        raise CapabilityError("gl handles aggregate-free programs only")


_State = TypeVar("_State")


def _kleene(
    step: Callable[[_State], _State], start: _State, limit: int
) -> tuple[_State, int]:
    """Iterate `step` from `start` until it maps a state to itself; return
    that state and the number of steps taken, the last one included."""
    current = start
    for steps in range(1, limit + 1):
        nxt = step(current)
        if nxt == current:
            return current, steps
        current = nxt
    raise AssertionError(f"Kleene iteration failed to reach a fixpoint in {limit} steps")


def lfp_lower(sem: SemanticsId | str, program: Program, y: Interpretation) -> Interpretation:
    """Least fixpoint of X -> lower(X, y), by Kleene iteration from bottom.

    The iteration stays inside [bottom, y] whenever y is a supported
    model; for other y the operator can escape its domain, which raises
    InconsistentPairError (such y are never stable anyway).
    """
    sem = SemanticsId.from_tag(sem)
    if not sem.monotone_lower_operator:
        raise CapabilityError(
            f"{sem.value} has no monotone lower operator; use its minimal-model check"
        )
    upper = y.mask
    x = _least_fixpoint(SemanticsId.bodies_certain, sem, program, lambda x: (x, upper), False)
    return _interpretation_at(program.universe, x)


def _least_fixpoint(
    holds: Callable[[SemanticsId, Bodies, InterpretationPair], bool],
    sem: SemanticsId,
    program: Program,
    pair_at: Callable[[int], tuple[int, int]],
    stop_at_upper: bool,
) -> int:
    """The Kleene chain from bottom of X -> the heads whose bodies pass the
    row's test `holds` at the pair with the masks `pair_at(X)`, one
    `_MaskPair` per round, semi-naive, on masks of the program's
    universe; returns the limit's mask.  The caller sees to it that this
    map is monotone in X and that `pair_at(X)` changes only on the atoms
    added to X, so the chain only grows: a head already derived is not
    tested again, and after the first round a waiting head is tested
    only when its bodies mention an atom the last round added, as the
    row's test reads the pair on those atoms alone.  The chain of X's is
    that of plain iteration, and a pair that is inconsistent raises
    InconsistentPairError as there.  With `stop_at_upper` the chain ends
    when X reaches the upper set of its pair: for the lower operator at a
    supported model y that is its last element, as at (y, y) certain
    truth implies two-valued truth, so lower(y, y) adds nothing."""
    _reject_gl_aggregates(sem, program)
    universe, entries = program.universe, program.entries
    bits = _bit_index(universe)
    x, waiting = 0, range(len(entries))
    while True:
        lower, upper = pair_at(x)
        pair = _MaskPair(universe, lower, upper)
        if lower & ~upper:
            pair.interpretations().require_consistent()
        fired = [entries[i][0] for i in waiting if holds(sem, entries[i][1], pair)]
        if not fired:
            return x
        for head in fired:
            x |= bits[head]
        if stop_at_upper and x == upper:
            return x
        waiting = [i for i in _entries_reading(program, fired) if not x & bits[entries[i][0]]]


def _entries_reading(program: Program, changed: Iterable[str]) -> list[int]:
    """The positions in `entries` of the heads whose bodies mention one of
    the changed atoms, ascending: the heads a Kleene loop tests again
    after a step that changed those atoms.  A row's test of a head reads
    the pair on the atoms of the head's bodies alone, and its answer, or
    the error it raises, is a function of them, so another head's test
    would give its last answer again."""
    dependents = program.dependents
    return sorted({i for atom in changed for i in dependents.get(atom, ())})


def stable_check(sem: SemanticsId | str, program: Program, y: Interpretation) -> bool:
    """Is y a stable model (answer set) of the program under the relation?

    gl rejects an aggregate program first, as the operators do.  Every
    relation then asks that y be a supported model; a candidate that
    passes lies in the box `stable_enumerate` searches.  Then y must be
    the least fixpoint of X -> lower(X, y).  A relation without a
    monotone lower operator has one on a program whose aggregates are
    all convex, and takes that path there; on other programs it must
    pass the minimal-model check.
    """
    sem = SemanticsId.from_tag(sem)
    _reject_gl_aggregates(sem, program)
    if not is_supported_model(program, y):
        return False
    if not (sem.monotone_lower_operator or _all_convex(program)):
        return _minimal_model_check(sem, program, y)
    upper = y.mask
    lower = _least_fixpoint(SemanticsId.bodies_certain, sem, program, lambda x: (x, upper), True)
    return lower == upper


def _all_convex(program: Program) -> bool:
    """Do all the program's aggregates pass `is_convex`?  A convex atom
    that holds at X and at y holds at every interpretation between them,
    so flp's relation is ult's, whose lower operator is monotone.  An
    atom `is_convex` cannot decide counts as not convex."""
    return all(atom._convex for atom in program.aggregate_atoms())


def _minimal_model_check(sem: SemanticsId, program: Program, y: Interpretation) -> bool:
    """No proper subset of the supported model y is closed under the
    relation with y as upper bound (for flp, equivalently: no proper
    subset models the body-preserving reduct).  Rules are tested in source
    order, not per head, so no body past the first failed rule is
    evaluated; all of them at one pair per subset."""
    members = list(y)
    # the walk ends at y itself, which is not a proper subset
    proper_subsets = islice(extensions(y.with_atoms(()), members), (1 << len(members)) - 1)
    rules = [(rule.head, Bodies((rule.body,))) for rule in program.rules]
    for subset in proper_subsets:
        pair, closed = InterpretationPair(subset, y), subset.atoms
        if all(head in closed or not sem.bodies_certain(bodies, pair) for head, bodies in rules):
            return False
    return True


def stable_enumerate(
    sem: SemanticsId | str, program: Program, max_atoms: int = DEFAULT_MAX_ATOMS
) -> list[Interpretation]:
    """All stable models, found by filtering the candidates in the box.

    The box is the Kripke-Kleene fixpoint of the `bnd` approximator
    started at (nothing, the head atoms), or that start pair when some
    aggregate's bounds overflow on the way; the module docstring says
    why every stable model under every relation lies in it.  The
    candidates are its lower set united with each subset of its
    undefined atoms, in the order of `extensions`.  Those that are
    supported models, which `eval2` tests at their masks with the first
    error of `is_supported_model`, go to `stable_check`.  gl on an
    aggregate program builds the box all the same, and `stable_check`
    rejects the program at the first candidate.  Results are sorted
    lexicographically by atom names.
    """
    sem = SemanticsId.from_tag(sem)
    check_universe_size(len(program.universe), max_atoms)
    box = _supported_box(program)
    if sem.handles_aggregates or program.is_aggregate_free:
        candidates = _supported_extensions(program, box.lower, box.undefined_atoms())
    else:
        candidates = [box.lower]  # stable_check rejects the program here
    models = [candidate for candidate in candidates if stable_check(sem, program, candidate)]
    return sorted(models, key=lambda m: m.sorted_atoms)


def _supported_box(program: Program) -> InterpretationPair:
    """A pair whose interval holds every supported model of the program."""
    heads = InterpretationPair(
        Interpretation.empty(program.universe),
        Interpretation(program.universe, frozenset(program.heads)),
    )
    try:
        return _kripke_kleene_from(SemanticsId.BND, program, heads)
    except ArithmeticOverflowError:
        return heads


# ---------------------------------------------------------------------------
# The classical reduct
# ---------------------------------------------------------------------------


def gl_reduct(program: Program, i: Interpretation) -> Program:
    """Drop rules with a negative literal whose atom is in i; strip the
    remaining negative literals (aggregate-free programs only)."""
    if not program.is_aggregate_free:
        raise CapabilityError("the classical reduct is defined for aggregate-free programs")
    kept: list[Rule] = []
    for rule in program.rules:
        if any(isinstance(e, Literal) and e.negated and e.atom in i.atoms for e in rule.body):
            continue
        body = tuple(e for e in rule.body if not (isinstance(e, Literal) and e.negated))
        kept.append(Rule(rule.head, body))
    return Program(tuple(kept), program.universe)


# ---------------------------------------------------------------------------
# Kripke-Kleene and well-founded fixpoints
# ---------------------------------------------------------------------------


def _require_truth_function(sem: SemanticsId) -> None:
    if not sem.has_truth_function:
        raise CapabilityError(
            f"{sem.value} has no three-valued truth function, so its "
            "Kripke-Kleene and well-founded fixpoints are not defined here"
        )


def kripke_kleene(sem: SemanticsId | str, program: Program) -> InterpretationPair:
    """Least precise fixpoint of the approximator, iterated from (bottom, top)."""
    sem = SemanticsId.from_tag(sem)
    _require_truth_function(sem)
    return _kripke_kleene_from(
        sem, program, InterpretationPair.least_precise(program.universe)
    )


def _kripke_kleene_from(
    sem: SemanticsId, program: Program, start: InterpretationPair
) -> InterpretationPair:
    """Kleene iteration of the approximator from `start`, which the
    approximator must map to an equally or more precise pair.

    The pair is carried as two masks of the program's universe, and each
    step hands its tests one `_MaskPair`, which becomes an
    InterpretationPair only when a test reads a set, or when it is
    returned or named in an error.  The first step tests every head.
    Each later step tests only the heads whose bodies mention an atom the
    last step changed in either set (`old ^ new`), its lower tests first
    and then its upper tests, each in `entries` order; every other head
    keeps its last answers.  The iteration ends at the first
    step that changes no atom.  It walks the chain of pairs of
    `lower_step` and `upper_step` iterated together, raises the first
    error they would raise, and keeps their limit of steps."""
    _reject_gl_aggregates(sem, program)
    universe, entries = program.universe, program.entries
    bits = _bit_index(universe)
    limit = 2 * len(universe) + 2
    certain, possible = sem.bodies_certain, sem.bodies_possible
    lower, upper = start.masks
    certain_heads = possible_heads = 0  # the heads' last answers
    tested = range(len(entries))
    for _ in range(limit):
        pair = _MaskPair(universe, lower, upper)
        if lower & ~upper:
            pair.interpretations().require_consistent()
        for i in tested:
            head, bodies = entries[i]
            if certain(bodies, pair):
                certain_heads |= bits[head]
            else:
                certain_heads &= ~bits[head]
        for i in tested:
            head, bodies = entries[i]
            if possible(bodies, pair):
                possible_heads |= bits[head]
            else:
                possible_heads &= ~bits[head]
        changed = (lower ^ certain_heads) | (upper ^ possible_heads)
        if not changed:
            return pair.interpretations()
        lower, upper = certain_heads, possible_heads
        tested = _entries_reading(program, _atoms_at(universe, changed))
    raise AssertionError(f"Kleene iteration failed to reach a fixpoint in {limit} steps")


def well_founded(sem: SemanticsId | str, program: Program) -> WellFoundedResult:
    """Alternating least-fixpoint refinement of lower and upper bounds,
    started at the least precise pair and run until stationary."""
    sem = SemanticsId.from_tag(sem)
    _require_truth_function(sem)

    # a round whose upper (lower) set equals the last round's reuses its x (y)
    lower_at = lru_cache(maxsize=1)(lambda upper: lfp_lower(sem, program, upper))
    upper_at = lru_cache(maxsize=1)(lambda lower: _lfp_upper(sem, program, lower))

    def refine(pair: InterpretationPair) -> InterpretationPair:
        x = lower_at(pair.upper)
        y = upper_at(pair.lower)
        if not x.atoms <= y.atoms:
            raise AssertionError("well-founded refinement left the consistent pairs")
        return InterpretationPair(x, y)

    pair, iterations = _kleene(
        refine, InterpretationPair.least_precise(program.universe), 2 * len(program.universe) + 2
    )
    return WellFoundedResult(pair, iterations)


def _lfp_upper(sem: SemanticsId, program: Program, x: Interpretation) -> Interpretation:
    """Least fixpoint of Z -> upper(x, Z), semi-naive from bottom: the
    upper operator of a row with a truth function is monotone in Z, so a
    head already possible is not tested again.

    The upper slot is seeded with x: atoms already certain are possible,
    which keeps every evaluated pair consistent and computes the same
    least fixpoint (the seed is contained in it).
    """
    lower = x.mask
    z = _least_fixpoint(
        SemanticsId.bodies_possible, sem, program, lambda z: (lower, z | lower), False
    )
    return _interpretation_at(program.universe, z)
