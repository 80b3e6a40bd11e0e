"""Two-valued evaluation: literals, aggregate atoms, rule bodies, the
immediate consequence operator, and model / supported-model checks.

Conventions for the empty multiset: sum = 0, card = 0, prod = 1; min,
max and avg are undefined and any comparison on an undefined value is
false.  Aggregate values must stay inside the signed 64-bit range;
leaving it raises ArithmeticOverflowError instead of silently wrapping
or silently using big integers.

`_RULES` states these rules once, one row per function: the partial
value (measure) of some weights, the join of two partial values, the
value of a partial value with its int64 check, and the member truths of
two half tables, which `ult`'s interval sweep and the kernels' truth
tables read (prod's only the kernels': its sweep walks members).
`aggregate_value`, the sweep's half tables, the kernels and the
`bounds` module read the rows.  The per-atom evaluators, the
sweep's truth loops and avg's value range restate a row's test inline,
as their callers run them once per interpretation or member.

Each aggregate atom is evaluated by a function of the set of true atoms
that `aggregate_evaluator` builds once per atom, over its (weight, atom,
negated) entries; the atom caches it.  The rule-level tests below take
literals inline and stop at the first false element of a body.

Small aggregate atoms and heads also get a bitmask kernel, built once
per universe and kept on the atom (`AggregateAtom._kernels`) or on the
head's `Bodies`: a table of the truth at every choice of their own
atoms, and for an atom also the value and whether no condition holds,
keyed by the true atoms' `Interpretation.mask`.  A relation's answer
depends only on the pair restricted to those atoms, `(lower & cm,
upper & cm)`, so each kernel keeps its interval entries under that
restricted pair, at most 3^k of each for k atoms: the truth the
members share (`_entry_truth`), and for an atom the value range with
whether some and whether every member is empty (`_kernel_range`) and
the one `Bounds` that `bounds.exact_bounds` builds from it
(`_kernel_bounds`).  Each is filled the first time a call asks for it,
from the members of the interval, `table[(lower & cm) | s]` for `s`
over the submasks of the pair's free bits of `cm`.  An atom gets a
kernel when it has at most `KERNEL_ATOMS` condition atoms and its
weights pass its function's int64 guard (`_within_int64`), so that no
partial value of any of its entries, taken in any order, leaves the
range and no answer depends on the order of the members; a head when
its bodies mention at most `KERNEL_ATOMS` atoms and no evaluation at a
choice of them leaves the range.  Everything else takes the ordered
sweeps, and prod without a kernel its member walk, with their first
errors.  Only this module reads a kernel or an entry: one interval
sweep reads a truth entry for an atom (`ult`, and `bnd` for min, max
and avg) and for a head's `Bodies` (`ultimate`);
`_kernel_range` gives `bounds` a range entry and `_kernel_bounds` a
shared `Bounds`; and the `triv` and `mr` tests live here.

Stable search tests support at masks: `_supported_extensions` walks the
candidates as universe masks and reads each head's kernel at the mask,
so on a program whose heads all have kernels a candidate becomes an
Interpretation only when it passes.  The tests of a pair here (`triv`,
`gz`, `flp`, `mr` and the interval sweep) read a kernel at the pair's
`universe` and `masks`, and the atoms of its sets only where the atom or
head has none.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import inf, prod
from typing import Callable, ClassVar, Iterable, Iterator, NamedTuple, Sequence

from .errors import ArithmeticOverflowError, InconsistentPairError
from .interp import (
    Interpretation,
    InterpretationPair,
    Universe,
    _count_expansion,
    _extension_masks,
    _interval_free_atoms,
    enumerate_interval,
    extensions,
)
from .syntax import AggFunc, AggregateAtom, Bodies, BodyElement, Literal, Program
from .truth import TruthValue

__all__ = [
    "AggValue",
    "eval_multiset",
    "aggregate_value",
    "eval_aggregate",
    "literal_holds",
    "sat2_element",
    "sat2",
    "sat2_disjunction",
    "tp",
    "is_model",
    "is_supported_model",
    "aggregate_holds_everywhere",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def checked_int(value: int, context: str = "aggregate value") -> int:
    if value < INT64_MIN or value > INT64_MAX:
        raise ArithmeticOverflowError(f"{context} {value} leaves the signed 64-bit range")
    return value


def checked_product(weights: Iterable[int]) -> int:
    """Product of the weights, checked after every factor."""
    result = 1
    for w in weights:
        result = checked_int(result * w, "product")
    return result


@dataclass(frozen=True)
class AggValue:
    """Result of an aggregate function; undefined only for min/max/avg of {}."""

    defined: bool
    value: int | Fraction | None = None

    UNDEFINED: ClassVar["AggValue"]

    @staticmethod
    def of(value: int | Fraction) -> "AggValue":
        return AggValue(True, value)

    def __str__(self) -> str:
        return str(self.value) if self.defined else "undefined"


AggValue.UNDEFINED = AggValue(False)


def literal_holds(literal: Literal, i: Interpretation) -> bool:
    return (literal.atom in i) != literal.negated


def eval_multiset(entries: Sequence[tuple[int, Literal]], i: Interpretation) -> tuple[int, ...]:
    """Multiset of weights whose condition holds in i, entry order preserved."""
    atoms = i.atoms
    return tuple([w for w, lit in entries if (lit.atom in atoms) != lit.negated])


def _value(func: AggFunc, multiset: Sequence[int]) -> int | Fraction | None:
    """The aggregate's value, None when it is undefined."""
    rule = _RULES[func]
    return rule.value(rule.measure(multiset))


def aggregate_value(func: AggFunc, multiset: Sequence[int]) -> AggValue:
    value = _value(func, multiset)
    return AggValue.UNDEFINED if value is None else AggValue.of(value)


def eval_aggregate(atom: AggregateAtom, i: Interpretation) -> bool:
    return atom._holds(i.atoms)


def aggregate_evaluator(atom: AggregateAtom) -> Callable[[frozenset[str]], bool]:
    """The atom's two-valued test as a function of the set of true atoms,
    which `AggregateAtom._holds` caches.  It takes the entries in order
    and raises ArithmeticOverflowError as `_value` does: sum and avg on
    the total, prod after every factor."""
    triples = tuple((w, lit.atom, lit.negated) for w, lit in atom.entries)
    holds, bound, func = atom.cmp.holds, atom.bound, atom.func
    lowest, highest = INT64_MIN, INT64_MAX

    if func in (AggFunc.SUM, AggFunc.CARD):
        if func is AggFunc.CARD:
            # the count is the sum of weight 1 per entry, far inside the range
            triples = tuple((1, a, negated) for _, a, negated in triples)

        def sum_holds(atoms: frozenset[str]) -> bool:
            total = 0
            for w, a, negated in triples:
                if (a in atoms) != negated:
                    total += w
            if not lowest <= total <= highest:
                checked_int(total, "sum")
            return holds(total, bound)

        return sum_holds

    if func is AggFunc.AVG:

        def avg_holds(atoms: frozenset[str]) -> bool:
            # for a count above 0, comparing the total with the bound
            # times the count is the exact comparison of the average
            total = count = 0
            for w, a, negated in triples:
                if (a in atoms) != negated:
                    total += w
                    count += 1
            if not count:
                return False
            if not lowest <= total <= highest:
                checked_int(total, "sum")
            return holds(total, bound * count)

        return avg_holds

    if func is AggFunc.PROD:

        def prod_holds(atoms: frozenset[str]) -> bool:
            product = 1
            for w, a, negated in triples:
                if (a in atoms) != negated:
                    product *= w
                    if not lowest <= product <= highest:
                        checked_int(product, "product")
            return holds(product, bound)

        return prod_holds

    is_min = func is AggFunc.MIN

    def extreme_holds(atoms: frozenset[str]) -> bool:
        # min and max: undefined, so false, when no entry holds; a weight
        # replaces the value so far when it is below it (min) or not (max)
        value = None
        for w, a, negated in triples:
            if (a in atoms) != negated and (value is None or (w < value) is is_min):
                value = w
        return value is not None and holds(value, bound)

    return extreme_holds


def sat2_element(element: BodyElement, i: Interpretation) -> bool:
    if isinstance(element, Literal):
        return (element.atom in i.atoms) != element.negated
    return element._holds(i.atoms)


def sat2(body: Sequence[BodyElement], i: Interpretation) -> bool:
    """A body (conjunction) holds iff every element holds.  Elements are
    tested left to right and the test stops at the first false one, so
    an aggregate after it is never evaluated."""
    atoms = i.atoms
    for element in body:
        if isinstance(element, Literal):
            if (element.atom in atoms) == element.negated:
                return False
        elif not element._holds(atoms):
            return False
    return True


def sat2_disjunction(bodies: Iterable[Sequence[BodyElement]], i: Interpretation) -> bool:
    for body in bodies:
        if sat2(body, i):
            return True
    return False


def tp(program: Program, i: Interpretation) -> Interpretation:
    """Immediate consequence operator: heads of rules whose body holds in i."""
    fired = {rule.head for rule in program.rules if sat2(rule.body, i)}
    return i.with_atoms(fired)


def is_model(program: Program, i: Interpretation) -> bool:
    atoms = i.atoms
    for rule in program.rules:
        if rule.head not in atoms and sat2(rule.body, i):
            return False
    return True


def is_supported_model(program: Program, i: Interpretation) -> bool:
    """Is i a fixpoint of `tp`?  Heads are tested one at a time, in the
    order of `program.entries`, and the test stops at the first head
    whose membership in i differs from "some body holds at i", so a body
    after that head is never evaluated.  Every atom of i must be a head."""
    atoms = i.atoms
    heads_in_i = 0
    for head, bodies in program.entries:
        holds = head in atoms
        if holds is not sat2_disjunction(bodies, i):
            return False
        heads_in_i += holds
    return heads_in_i == len(atoms)


def _supported_extensions(
    program: Program, x: Interpretation, free: Sequence[str]
) -> Iterator[Interpretation]:
    """The members of `extensions(x, free)` at which `is_supported_model`
    holds, in that order, tested at their masks.  Heads are tested in
    the order of `program.entries`, and the test stops at the first head
    whose bit disagrees with its disjunction.  A head with a kernel reads
    the disjunction as `truth[mask & cm]`.  A head without one (too many
    atoms, or an evaluation leaving the signed 64-bit range) evaluates
    its bodies with `sat2_disjunction` at the member, so the first error
    is that of `is_supported_model` on the members in order.  When every
    head has a kernel, only the members that pass are built; otherwise
    `extensions` builds each member alongside its mask."""
    universe = x.universe
    bits = universe.bits
    heads, tests = 0, []
    for head, bodies in program.entries:
        kernels = bodies._kernels
        kernel = kernels and kernels.over(bodies, universe)
        heads |= bits[head]
        if kernel is None:
            tests.append((bits[head], None, bodies))
        else:
            tests.append((bits[head], kernel.cm, kernel.truth))
    masks = _extension_masks(x, free)
    if all(cm is not None for _, cm, _ in tests):
        walk = zip(masks, repeat(None))
    else:  # a head without a kernel evaluates its bodies at the member
        walk = zip(masks, extensions(x, free))
    for mask, member in walk:
        for bit, cm, test in tests:
            holds = test[mask & cm] if cm is not None else sat2_disjunction(test, member)
            if holds is not (mask & bit != 0):
                break
        else:
            if not mask & ~heads:  # every atom of a supported model is a head
                yield Interpretation(universe, mask) if member is None else member


def aggregate_holds_everywhere(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """True iff the aggregate holds at every Z in the pair's interval.

    The sweep only varies the aggregate's own condition atoms; all other
    atoms are irrelevant to its value.
    """
    pair.require_consistent()
    return _interval_sweep(atom, pair, True) is True


def _triv_truth(atom: AggregateAtom, pair: InterpretationPair) -> TruthValue:
    """triv: the atom's truth at the upper set when every condition atom
    is decided, else undefined.  An atom with a kernel reads it at the
    upper set's mask."""
    kernels, (lower, upper) = atom._kernels, pair.masks
    if kernels is not None:
        kernel = kernels.over(atom, pair.universe)
        if (upper ^ lower) & kernel.cm:
            return TruthValue.UNDEFINED
        return TruthValue.from_bool(kernel.truth[upper & kernel.cm])
    bits = pair.universe.bits
    if any(upper & ~lower & bits.get(a, 0) for a in atom.condition_atoms):
        return TruthValue.UNDEFINED
    return TruthValue.from_bool(eval_aggregate(atom, pair.upper))


def _gz_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """gz: upper satisfies the atom and every condition true in upper is
    certainly true, that is true in lower as well, which only a positive
    condition on an undefined atom fails.  An atom with a kernel reads
    its truth at the upper set's mask."""
    kernels = atom._kernels
    if kernels is not None:
        kernel = kernels.over(atom, pair.universe)
        lower, upper = pair.masks
        return not upper & ~lower & kernel.positive and kernel.truth[upper & kernel.cm]
    return eval_aggregate(atom, pair.upper) and all(
        literal_holds(cond, pair.lower) for cond in atom.conditions if literal_holds(cond, pair.upper)
    )


def _flp_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """flp: both lower and upper satisfy the atom.  An atom with a kernel
    reads its truth at both sets' masks."""
    kernels = atom._kernels
    if kernels is not None:
        kernel = kernels.over(atom, pair.universe)
        lower, upper = pair.masks
        return kernel.truth[lower & kernel.cm] and kernel.truth[upper & kernel.cm]
    return eval_aggregate(atom, pair.lower) and eval_aggregate(atom, pair.upper)


def _mr_certain(atom: AggregateAtom, pair: InterpretationPair) -> bool:
    """mr: upper satisfies the atom and some subset of lower does.

    Only the trace on the atom's condition atoms matters, so the subsets
    of lower restricted to those atoms cover all cases.  An atom with a
    kernel reads its truth at the upper set's mask, then the interval
    entry from the empty set to the lower set, which is not false when
    some subset of lower satisfies the atom.
    """
    kernels = atom._kernels
    if kernels is not None:
        _, kernel, truths, _, _ = kernels.read(atom, pair.universe)
        lower, upper = pair.masks
        if not kernel.truth[upper & kernel.cm]:
            return False
        return _entry_truth(kernel, truths, 0, lower) is not False
    if not eval_aggregate(atom, pair.upper):
        return False
    base = [a for a in atom.condition_atoms if a in pair.lower]
    return any(eval_aggregate(atom, z) for z in extensions(pair.lower.with_atoms(()), base))


# ---------------------------------------------------------------------------
# The interval sweep of an aggregate atom or of a head's disjunction of bodies
# ---------------------------------------------------------------------------


def _interval_sweep(
    owner: AggregateAtom | Bodies, pair: InterpretationPair, expected: bool | None
) -> bool | None:
    """The truth an aggregate atom, or a head's disjunction of bodies, has
    at every member of the pair's interval that varies only its own atoms
    (the atom's condition atoms, the atoms the bodies mention), or None
    when the members disagree.

    Members are taken in the order of `interp.extensions` and the sweep
    stops at the first whose truth differs from `expected` (from the
    first member's when `expected` is None), so a value outside the
    signed 64-bit range raises only when a member before that stop has
    it.  Counts one interval expansion.  An owner with a kernel reads the
    members' truths from it: none of its evaluations leaves the range,
    so the answer does not depend on the order.
    """
    kernels = owner._kernels
    _, kernel, truths, _, _ = kernels.read(owner, pair.universe) if kernels else _NO_KERNEL
    if kernel is not None:
        lower, upper = pair.masks
        if lower & ~upper:
            raise InconsistentPairError(f"{pair.lower} is not a subset of {pair.upper}")
        _count_expansion()
        truth = _entry_truth(kernel, truths, lower, upper)
        return truth if expected is None or truth is expected else None
    for truth in _member_truths(owner, pair):
        if truth is not expected:
            if expected is not None:
                return None
            expected = truth
    return expected


def _member_truths(owner: AggregateAtom | Bodies, pair: InterpretationPair) -> Iterator[bool]:
    """The owner's truth at each member of the sweep, in order.

    A head's disjunction and a prod without a kernel walk the members,
    so a product leaves the signed 64-bit range at the first member, and
    the first factor, at which the ordered product does.  The other
    functions build none: each member's value is one entry of
    `_half_tables` over the free condition atoms joined with another.
    """
    if isinstance(owner, Bodies):
        members = enumerate_interval(pair.lower, pair.upper, restrict=owner.atoms)
        return (sat2_disjunction(owner, z) for z in members)
    restrict = frozenset(owner.condition_atoms)
    if owner.func is AggFunc.PROD:
        members = enumerate_interval(pair.lower, pair.upper, restrict=restrict)
        return (eval_aggregate(owner, z) for z in members)
    free = _interval_free_atoms(pair.lower, pair.upper, restrict)
    fixed = _fixed_weights(owner, pair.universe, *pair.masks)
    high, low = _half_tables(owner, free, fixed)
    return _RULES[owner.func].truths(owner, high, low)


def _fixed_weights(atom: AggregateAtom, universe: Universe, lower: int, upper: int) -> list[int]:
    """The weights of the conditions that the pair whose sets have the
    masks `lower` and `upper` makes certainly true, in entry order.  A
    condition atom outside the universe is false."""
    bits = universe.bits
    return [
        w
        for w, lit in atom.entries
        if (not upper & bits.get(lit.atom, 0) if lit.negated else lower & bits.get(lit.atom, 0))
    ]


def _half_tables(atom: AggregateAtom, free: Sequence[str], fixed: list[int]) -> tuple[list, list]:
    """The high and the low table of the members that vary the condition
    atoms `free` and hold the `fixed` weights.  `free` splits, as in
    `extensions`, into a low and a high half, each with a table of the
    partial value of every choice of its atoms; the fixed weights' part
    is folded into the high table.  The member `extensions` yields at
    mask j << len(free) // 2 | i has the partial value
    join(high[j], low[i])."""
    measure, join = _RULES[atom.func][:2]
    branches = atom._branch_weights
    half = len(free) // 2
    low = _choice_table(measure(()), [branches[a] for a in free[:half]], measure, join)
    high = _choice_table(measure(fixed), [branches[a] for a in free[half:]], measure, join)
    return high, low


def _choice_table(
    start, parts: list[tuple[tuple[int, ...], tuple[int, ...]]], measure: Callable, join: Callable
) -> list:
    """`start` joined with the measure of every choice of one branch of
    each part, taken in the bit order of `extensions` (bit k set: the
    true branch of part k)."""
    table = [start]
    for off, on in parts:
        choices = (measure(off), measure(on))
        table = [join(t, c) for c in choices for t in table]
    return table


def _sum_truths(atom: AggregateAtom, high: list, low: list) -> Iterator[bool]:
    """sum and card: a member's value is its high entry plus its low entry."""
    holds, bound, checked = atom.cmp.holds, atom.bound, atom.func is AggFunc.SUM
    for hv in high:
        for lv in low:
            value = hv + lv
            if checked and not INT64_MIN <= value <= INT64_MAX:
                checked_int(value, "sum")
            yield holds(value, bound)


def _prod_truths(atom: AggregateAtom, high: list, low: list) -> Iterator[bool]:
    """prod: a member's value is its high entry times its low entry.  Only
    a kernel reads these: its guard keeps every product in the range."""
    holds, bound = atom.cmp.holds, atom.bound
    for hv in high:
        for lv in low:
            value = hv * lv
            if not INT64_MIN <= value <= INT64_MAX:
                checked_int(value, "product")
            yield holds(value, bound)


def _avg_truths(atom: AggregateAtom, high: list, low: list) -> Iterator[bool]:
    """avg: entries are (sum, count).  A count of 0 is the empty multiset,
    whose average is undefined, so false; otherwise the checked sum is
    compared with the bound times the count, which for a positive count
    is the exact comparison of the average."""
    holds, bound = atom.cmp.holds, atom.bound
    for high_sum, high_count in high:
        for low_sum, low_count in low:
            count = high_count + low_count
            if not count:
                yield False
                continue
            total = high_sum + low_sum
            if not INT64_MIN <= total <= INT64_MAX:
                checked_int(total, "sum")
            yield holds(total, bound * count)


def _extreme_truths(atom: AggregateAtom, high: list, low: list) -> Iterator[bool]:
    """min and max: entries are extremes, with an infinity for none, which
    no weight reaches; a member with none is undefined, so false."""
    holds, bound = atom.cmp.holds, atom.bound
    pick, empty = (min, inf) if atom.func is AggFunc.MIN else (max, -inf)
    for hv in high:
        for lv in low:
            value = pick(hv, lv)
            yield value != empty and holds(value, bound)


def _avg_range(high: list, low: list) -> tuple[Fraction | None, Fraction | None]:
    """avg: the least and the greatest value over the members of the
    half tables of (sum, count) entries, or (None, None) when every
    member is empty.  Members compare by cross-multiplication, exact for
    positive counts, so only the two results become fractions; each
    member's sum is checked as the sweep checks it, in the same order."""
    lo_sum = lo_count = hi_sum = hi_count = None
    for high_sum, high_count in high:
        for low_sum, low_count in low:
            count = high_count + low_count
            if not count:
                continue
            total = high_sum + low_sum
            if not INT64_MIN <= total <= INT64_MAX:
                checked_int(total, "sum")
            if lo_count is None:
                lo_sum, lo_count = hi_sum, hi_count = total, count
            elif total * lo_count < lo_sum * count:
                lo_sum, lo_count = total, count
            elif total * hi_count > hi_sum * count:
                hi_sum, hi_count = total, count
    if lo_count is None:
        return None, None
    return _avg_value((lo_sum, lo_count)), _avg_value((hi_sum, hi_count))


def _extreme_range(func: AggFunc, high: list, low: list) -> tuple[int | None, int | None]:
    """min and max: the least and the greatest value over the members of
    the half tables of extremes, or (None, None) when every member is
    empty.  No value can leave the range, so the order does not matter."""
    if func is AggFunc.MIN:
        values = [hv if hv < lv else lv for hv in high for lv in low]
        empty = inf
    else:
        values = [hv if hv > lv else lv for hv in high for lv in low]
        empty = -inf
    values = [v for v in values if v != empty]
    return (min(values), max(values)) if values else (None, None)


def _avg_value(partial: tuple[int, int]) -> Fraction | None:
    """avg: the exact rational, no rounding; undefined for a count of 0."""
    total, count = partial
    return Fraction(checked_int(total, "sum"), count) if count else None


class _Rule(NamedTuple):
    """One aggregate function's value rules."""

    measure: Callable  # the partial value of some weights
    join: Callable  # the partial value of two parts together
    value: Callable  # the value of a partial value, int64-checked; None: undefined
    truths: Callable  # the member truths of two half tables (prod: its kernel's only)


_RULES = {
    AggFunc.SUM: _Rule(sum, operator.add, lambda total: checked_int(total, "sum"), _sum_truths),
    AggFunc.CARD: _Rule(len, operator.add, lambda count: count, _sum_truths),
    AggFunc.PROD: _Rule(
        checked_product, operator.mul, lambda p: checked_int(p, "product"), _prod_truths
    ),
    AggFunc.AVG: _Rule(
        lambda ws: (sum(ws), len(ws)),
        lambda p, q: (p[0] + q[0], p[1] + q[1]),
        _avg_value,
        _avg_truths,
    ),
    AggFunc.MIN: _Rule(
        lambda ws: min(ws, default=inf), min, lambda m: None if m == inf else m, _extreme_truths
    ),
    AggFunc.MAX: _Rule(
        lambda ws: max(ws, default=-inf), max, lambda m: None if m == -inf else m, _extreme_truths
    ),
}


# ---------------------------------------------------------------------------
# Bitmask kernels: an aggregate atom's or a head's table over its own atoms
# ---------------------------------------------------------------------------

# The most condition atoms of an aggregate atom, or atoms of a head's
# bodies, that get a kernel: a table of at most 64 entries.
KERNEL_ATOMS = 6


class Kernel(NamedTuple):
    """Tables over the choices of some atoms in one universe: `cm` holds
    their universe bits, and each table is keyed by the submask of `cm`
    that is true.  `truth` is the atom's (or the head's disjunction's)
    two-valued truth; an aggregate atom's kernel also holds its `value`
    (None: undefined), whether no condition holds (`empty`) and the bits
    of the atoms of its positive conditions (`positive`).  The
    member of an interval that makes the atoms of `s` true reads key
    `(lower & cm) | s`, for `s` a submask of the interval's free bits."""

    cm: int
    truth: dict[int, bool]
    value: dict[int, int | Fraction | None] | None = None
    empty: dict[int, bool] | None = None
    positive: int = 0


class KernelSlot:
    """The kernel of one aggregate atom or one head, built by
    `build(owner, universe)` for the universe of the pair that asks,
    since its bits are universe positions; a pair over another universe
    builds it again.  `built` is (universe, kernel, truths, ranges,
    bounds), the last three the kernel's interval entries
    (`_entry_truth`, `_kernel_range`, `_kernel_bounds`).  It is replaced
    whole, and `read` returns the one tuple it took, so a caller never
    reads one universe's kernel or entries for another."""

    __slots__ = ("build", "built")

    def __init__(self, build: Callable):
        self.build = build
        self.built: tuple = _NO_KERNEL

    def read(self, owner, universe: tuple[str, ...]) -> tuple:
        """`built` for the universe, built first when it is another's."""
        built = self.built
        if universe is not built[0]:
            if universe != built[0]:
                built = universe, self.build(owner, universe), {}, {}, {}
            else:
                built = (universe,) + built[1:]
            self.built = built
        return built

    def over(self, owner, universe: tuple[str, ...]) -> Kernel | None:
        return self.read(owner, universe)[1]


_NO_KERNEL = (None, None, None, None, None)


def atom_kernels(atom: AggregateAtom) -> KernelSlot | None:
    """The atom's kernel slot, or None for an atom that gets no kernel:
    more than `KERNEL_ATOMS` condition atoms, or weights past its
    function's guard (`_within_int64`).  Within the guard no partial
    value leaves the range, so no relation raises and none depends on
    the order in which it takes the members."""
    if len(atom.condition_atoms) > KERNEL_ATOMS or not _within_int64(atom):
        return None
    return KernelSlot(_atom_kernel)


def _within_int64(atom: AggregateAtom) -> bool:
    """The kernel's guard, one per function, which bounds the partial
    value of every subset of the entries, joined in any order: for prod
    the product of max(1, |w|) over the entries, for the other five the
    sum of |w|, is at most INT64_MAX."""
    if atom.func is AggFunc.PROD:
        return prod(max(1, abs(w)) for w, _ in atom.entries) <= INT64_MAX
    return sum(abs(w) for w, _ in atom.entries) <= INT64_MAX


def _atom_kernel(atom: AggregateAtom, universe: tuple[str, ...]) -> Kernel:
    """The atom's tables over its condition atoms in the universe, built
    by `_choice_table` as the half tables are; a condition atom outside
    the universe is false in every interval over it."""
    bits = Universe.of(universe).bits
    branches = atom._branch_weights
    inside = [a for a in atom.condition_atoms if a in bits]
    fixed = [w for a in atom.condition_atoms if a not in bits for w in branches[a][0]]
    parts = [branches[a] for a in inside]
    measure, join, value, truths = _RULES[atom.func]
    partials = _choice_table(measure(fixed), parts, measure, join)
    counts = _choice_table(len(fixed), parts, len, operator.add)
    keys = [0]
    for a in inside:
        keys += [key | bits[a] for key in keys]
    return Kernel(
        sum(bits[a] for a in inside),
        dict(zip(keys, truths(atom, partials, [measure(())]))),
        {key: value(partial) for key, partial in zip(keys, partials)},
        {key: not count for key, count in zip(keys, counts)},
        sum(bits[a] for a in inside if Literal(a) in atom.conditions),
    )


def head_kernels(bodies: Bodies) -> KernelSlot | None:
    """The kernel slot of one head's disjunction of bodies, None when the
    bodies mention more than `KERNEL_ATOMS` atoms."""
    return None if len(bodies.atoms) > KERNEL_ATOMS else KernelSlot(_head_kernel)


def _head_kernel(bodies: Bodies, universe: tuple[str, ...]) -> Kernel | None:
    """The disjunction's truth at every choice of its atoms in the
    universe, or None when an evaluation leaves the signed 64-bit range:
    which member of an interval raises first depends on the order, so
    the sweep runs.  An atom outside the universe is false."""
    empty = Interpretation.empty(universe)
    inside = [a for a in bodies.atoms if a in empty.universe.bits]
    try:
        truth = {z.mask: sat2_disjunction(bodies, z) for z in extensions(empty, inside)}
    except ArithmeticOverflowError:
        return None
    return Kernel(max(truth), truth)  # cm: the greatest key, every atom chosen


def _kernel_members(cm: int, lower: int, upper: int) -> list[int]:
    """The keys, in a kernel whose atoms have the bits of `cm`, of the
    members of the interval between the masks `lower` and `upper`."""
    base, free = lower & cm, upper & ~lower & cm
    keys = [base | free]
    s = free
    while s:
        s = (s - 1) & free
        keys.append(base | s)
    return keys


# An entry table's value when the restricted pair has no entry yet.
_UNREAD = object()


def _entry_truth(kernel: Kernel, truths: dict, lower: int, upper: int) -> bool | None:
    """The truth every member of the interval between the masks `lower`
    and `upper` has in the kernel, None when the members disagree.  It
    depends only on the pair restricted to the kernel's atoms, so
    `truths`, the kernel's table of them, keeps it under that pair as one
    int, `(upper & cm) * (cm + 1) + (lower & cm)`, unique as `lower & cm`
    is at most `cm`: at most 3^k entries for k atoms, each read from the
    members the first time a call asks.  Counts nothing."""
    cm = kernel.cm
    key = (upper & cm) * (cm + 1) + (lower & cm)
    truth = truths.get(key, _UNREAD)
    if truth is _UNREAD:
        found = set(map(kernel.truth.__getitem__, _kernel_members(cm, lower, upper)))
        truth = truths[key] = found.pop() if len(found) == 1 else None
    return truth


def _kernel_range(
    atom: AggregateAtom, universe: tuple[str, ...], lower: int, upper: int
) -> tuple | None:
    """The least and the greatest defined value of the atom over the
    members of the consistent interval between the masks `lower` and
    `upper`, (None, None) when none has one, then whether some member
    and whether every member is empty; None when the atom has no kernel.
    Kept, as `_entry_truth` keeps a truth, in the kernel's `ranges`."""
    kernels = atom._kernels
    if kernels is None:
        return None
    _, kernel, _, ranges, _ = kernels.read(atom, universe)
    cm = kernel.cm
    key = (upper & cm) * (cm + 1) + (lower & cm)
    read = ranges.get(key)
    if read is None:
        members = _kernel_members(cm, lower, upper)
        values = [v for v in map(kernel.value.__getitem__, members) if v is not None]
        lb, ub = (min(values), max(values)) if values else (None, None)
        empty = set(map(kernel.empty.__getitem__, members))
        read = ranges[key] = lb, ub, True in empty, False not in empty
    return read


def _kernel_bounds(
    atom: AggregateAtom, universe: tuple[str, ...], lower: int, upper: int, make: Callable
):
    """`make(*_kernel_range(...))` for the interval, built the first time
    a call asks for its restricted pair and then shared by every call
    on it, kept in the kernel's `bounds`; None when the atom has no
    kernel."""
    kernels = atom._kernels
    if kernels is None:
        return None
    _, kernel, _, _, shared = kernels.read(atom, universe)
    cm = kernel.cm
    key = (upper & cm) * (cm + 1) + (lower & cm)
    bounds = shared.get(key)
    if bounds is None:
        bounds = shared[key] = make(*_kernel_range(atom, universe, lower, upper))
    return bounds
