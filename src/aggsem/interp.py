"""Interpretations, pairs, the subset and precision orders, and interval
enumeration over the powerset lattice of a fixed finite atom universe.

Bottom is the empty set, top is the full universe.  A pair (lower, upper)
stands for the three-valued interpretation that makes lower true,
upper-minus-lower undefined and everything else false; it is consistent
when lower is contained in upper.

This module owns the bit layout of masks: bit k stands for universe[k].
Each universe has one bit index, kept in a bounded cache, which also
checks every Interpretation against its universe; an Interpretation
computes its atoms as a mask once, on first use (`mask`), unless
`extensions` stored it as it built the member.  A walk that
tests members at their masks takes them from `_extension_masks` and
builds the members it keeps with `_interpretation_at`.  A loop that
carries a pair as two masks hands the row tests a `_MaskPair`, which
builds its InterpretationPair only when a test reads a set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import InconsistentPairError, UniverseMismatchError

__all__ = [
    "Interpretation",
    "InterpretationPair",
    "leq_subset",
    "leq_precision",
    "enumerate_interval",
    "extensions",
    "interval_expansion_count",
    "reset_interval_expansions",
]

# Process-wide diagnostic: number of interval expansions performed.  Used by
# the complexity-trade-off checks; not synchronized across threads.
_interval_expansions = 0


def interval_expansion_count() -> int:
    return _interval_expansions


def reset_interval_expansions() -> None:
    global _interval_expansions
    _interval_expansions = 0


# Each universe's bit index, built whole and stored in one assignment, so
# a thread never reads one half built; cleared when it holds 64 universes.
_bit_indexes: dict[tuple[str, ...], dict[str, int]] = {}
# (universe, bits) of the last universe asked, replaced in one assignment:
# a call on that same tuple object returns its bits without hashing it.
_last_bit_index: tuple = (None, None)


def _bit_index(universe: tuple[str, ...]) -> dict[str, int]:
    """The universe's bit layout: each atom with its bit, 1 << its
    position.  A universe that repeats an atom raises
    UniverseMismatchError."""
    global _last_bit_index
    last = _last_bit_index
    if universe is last[0]:
        return last[1]
    bits = _bit_indexes.get(universe)
    if bits is None:
        bits = {a: 1 << k for k, a in enumerate(universe)}
        if len(bits) < len(universe):
            raise UniverseMismatchError("universe contains duplicate atoms")
        if len(_bit_indexes) >= 64:
            _bit_indexes.clear()
        _bit_indexes[universe] = bits
    _last_bit_index = universe, bits
    return bits


@dataclass(frozen=True, repr=False)
class Interpretation:
    universe: tuple[str, ...]
    atoms: frozenset[str]

    def __post_init__(self) -> None:
        _require_in_universe(self.atoms, self.universe)

    # cached outside the fields, so eq, hash, repr and pickles are unchanged
    @cached_property
    def mask(self) -> int:
        """The atoms as a bitmask over the universe: bit k stands for
        universe[k]."""
        return sum(map(_bit_index(self.universe).__getitem__, self.atoms))

    def __getstate__(self) -> dict:
        """Pickle the fields only; the mask is computed again on first use."""
        return {"universe": self.universe, "atoms": self.atoms}

    @staticmethod
    def of(universe: Iterable[str], atoms: Iterable[str] = ()) -> "Interpretation":
        return Interpretation(tuple(universe), frozenset(atoms))

    @staticmethod
    def empty(universe: Iterable[str]) -> "Interpretation":
        return Interpretation.of(universe)

    @staticmethod
    def full(universe: Iterable[str]) -> "Interpretation":
        universe = tuple(universe)
        return Interpretation(universe, frozenset(universe))

    def __contains__(self, atom: str) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[str]:
        """Iterate member atoms in universe order (deterministic)."""
        return (a for a in self.universe if a in self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(self.sorted_atoms) + "}"

    def __repr__(self) -> str:
        """The dataclass format with the atoms in universe order, so equal
        interpretations print alike whatever order their sets were built in."""
        atoms = f"frozenset({{{', '.join(map(repr, self))}}})" if self.atoms else "frozenset()"
        return f"Interpretation(universe={self.universe!r}, atoms={atoms})"

    @property
    def sorted_atoms(self) -> tuple[str, ...]:
        return tuple(sorted(self.atoms))

    def with_atoms(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, frozenset(atoms))

    def union(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, self.atoms | frozenset(atoms))

    def difference(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, self.atoms - frozenset(atoms))


def _interpretation_at(universe: tuple[str, ...], mask: int) -> Interpretation:
    """The Interpretation over the universe whose `mask` is `mask`."""
    return Interpretation(universe, frozenset(_atoms_at(universe, mask)))


def _atoms_at(universe: tuple[str, ...], mask: int) -> list[str]:
    """The atoms of the universe whose bits `mask` sets, in universe order."""
    return [a for a, bit in _bit_index(universe).items() if mask & bit]


def _require_in_universe(atoms: Iterable[str], universe: tuple[str, ...]) -> None:
    known, atoms = _bit_index(universe).keys(), frozenset(atoms)
    if not known >= atoms:
        unknown = atoms.difference(known)
        raise UniverseMismatchError(f"atoms outside the universe: {', '.join(sorted(unknown))}")


def _require_same_universe(a: Interpretation, b: Interpretation) -> None:
    if a.universe != b.universe:
        raise UniverseMismatchError("interpretations are over different universes")


def leq_subset(a: Interpretation, b: Interpretation) -> bool:
    """Lattice order: a <= b iff a's atoms are a subset of b's."""
    _require_same_universe(a, b)
    return a.atoms <= b.atoms


@dataclass(frozen=True)
class InterpretationPair:
    lower: Interpretation
    upper: Interpretation

    def __post_init__(self) -> None:
        _require_same_universe(self.lower, self.upper)

    @staticmethod
    def of(
        universe: Iterable[str], lower: Iterable[str], upper: Iterable[str]
    ) -> "InterpretationPair":
        universe = tuple(universe)
        return InterpretationPair(
            Interpretation.of(universe, lower), Interpretation.of(universe, upper)
        )

    @staticmethod
    def least_precise(universe: Iterable[str]) -> "InterpretationPair":
        universe = tuple(universe)
        return InterpretationPair(Interpretation.empty(universe), Interpretation.full(universe))

    @staticmethod
    def exact(interpretation: Interpretation) -> "InterpretationPair":
        return InterpretationPair(interpretation, interpretation)

    # C getters, cheaper than methods: the row tests read both at every call
    universe = property(attrgetter("lower.universe"))
    masks = property(attrgetter("lower.mask", "upper.mask"), doc="The two sets' `mask`.")

    @property
    def is_consistent(self) -> bool:
        return self.lower.atoms <= self.upper.atoms

    @property
    def is_exact(self) -> bool:
        return self.lower.atoms == self.upper.atoms

    def undefined_atoms(self) -> tuple[str, ...]:
        """Atoms with unknown truth value, in universe order."""
        free = self.upper.atoms - self.lower.atoms
        return tuple(a for a in self.universe if a in free)

    def require_consistent(self) -> None:
        if not self.is_consistent:
            raise InconsistentPairError(f"inconsistent pair ({self.lower}, {self.upper})")

    def __str__(self) -> str:
        return f"({self.lower}, {self.upper})"


def _pair_at(universe: tuple[str, ...], lower: int, upper: int) -> InterpretationPair:
    """The pair over the universe whose sets have the masks `lower` and
    `upper`."""
    lower_set, upper_set = _interpretation_at(universe, lower), _interpretation_at(universe, upper)
    return InterpretationPair(lower_set, upper_set)


class _MaskPair:
    """The pair over the universe whose sets have the masks `lower` and
    `upper`, as a Kleene loop carries it.  It answers `universe` and
    `masks` as an InterpretationPair does, and builds that pair on the
    first read of `lower` or `upper` (`interpretations`), so a row test
    that reads only masks builds nothing."""

    __slots__ = ("universe", "masks", "_pair")

    def __init__(self, universe: tuple[str, ...], lower: int, upper: int):
        self.universe = universe
        self.masks = lower, upper
        self._pair: InterpretationPair | None = None

    def interpretations(self) -> InterpretationPair:
        pair = self._pair
        if pair is None:
            pair = self._pair = _pair_at(self.universe, *self.masks)
        return pair

    @property
    def lower(self) -> Interpretation:
        return self.interpretations().lower

    @property
    def upper(self) -> Interpretation:
        return self.interpretations().upper


def leq_precision(a: InterpretationPair, b: InterpretationPair) -> bool:
    """Precision order: b refines a iff a.lower <= b.lower and b.upper <= a.upper."""
    if a.universe != b.universe:
        raise UniverseMismatchError("pairs are over different universes")
    return a.lower.atoms <= b.lower.atoms and b.upper.atoms <= a.upper.atoms


def enumerate_interval(
    x: Interpretation,
    y: Interpretation,
    restrict: Iterable[str] | None = None,
) -> Iterator[Interpretation]:
    """Yield every Z with x <= Z <= y, in the order of `extensions` with
    the atoms of y minus x as free atoms, taken in universe order.

    When `restrict` is given, atoms outside it are frozen at their x-value
    and only the restricted free atoms vary; this keeps sweeps over
    value-irrelevant atoms out of aggregate evaluations.  Each call counts
    one interval expansion.
    """
    return extensions(x, _interval_free_atoms(x, y, restrict))


def _interval_free_atoms(
    x: Interpretation, y: Interpretation, restrict: Iterable[str] | None
) -> list[str]:
    """The free atoms of `enumerate_interval`, in universe order, after
    its checks; counts one interval expansion.  A sweep that evaluates the
    interval without building its members starts here."""
    _interval_check(x, y)
    free = y.atoms - x.atoms
    if restrict is not None:
        free = free.intersection(restrict)
    return [a for a in x.universe if a in free] if free else []


def _interval_check(x: Interpretation, y: Interpretation) -> None:
    """The checks of `enumerate_interval`; counts one interval expansion.
    A sweep that reads the interval's members from a table starts here."""
    _require_same_universe(x, y)
    if not x.atoms <= y.atoms:
        raise InconsistentPairError(f"{x} is not a subset of {y}")
    _count_expansion()


def _count_expansion() -> None:
    """Count one interval expansion, for a sweep that reads its members
    from a table at masks it has checked itself."""
    global _interval_expansions
    _interval_expansions += 1


def extensions(x: Interpretation, free: Sequence[str]) -> Iterator[Interpretation]:
    """Yield x united with every subset of `free`, by binary counting with
    free[0] as the least significant bit, so the output order is fixed.

    Every exhaustive subset walk outside the independent oracle runs
    here.  The walk does not count interval expansions.

    Cost: `free` is checked against x's universe once, before the first
    member, so a foreign atom raises UniverseMismatchError there.  Each
    member is then built without its own universe check, as x's atoms
    united with two cached half-subsets: one of the low half of `free`
    (indexed by the low bits of the mask) and one of the high half
    (indexed by the high bits), and its `mask` is stored beside them,
    from two tables of those half-subsets' masks.  A table entry is
    built from an earlier one the first time the walk reaches it, so the
    tables hold O(2^(|free|/2)) sets and a walk that stops early pays
    only for what it visited.
    """
    _require_in_universe(free, x.universe)
    universe = x.universe
    bits = _bit_index(universe)
    half = len(free) // 2
    low_mask = (1 << half) - 1
    low: list[frozenset[str]] = [frozenset()]  # subsets of free[:half]
    high = [x.atoms]  # x's atoms united with the subsets of free[half:]
    low_masks, high_masks = [0], [x.mask]  # their masks
    new = object.__new__
    yield x
    outer, outer_mask = x.atoms, x.mask
    for mask in range(1, 1 << len(free)):
        i = mask & low_mask
        if not i:
            j = mask >> half
            if j == len(high):
                # j without its lowest set bit, plus that bit's atom
                rest, atom = j & (j - 1), free[half + (j & -j).bit_length() - 1]
                high.append(high[rest] | {atom})
                high_masks.append(high_masks[rest] | bits[atom])
            outer, outer_mask = high[j], high_masks[j]
        elif i == len(low):
            rest, atom = i & (i - 1), free[(i & -i).bit_length() - 1]
            low.append(low[rest] | {atom})
            low_masks.append(low_masks[rest] | bits[atom])
        member = new(Interpretation)
        fields = member.__dict__
        fields["universe"] = universe
        fields["atoms"] = outer | low[i]
        # the `mask` a first read would compute, stored without its lock
        fields["mask"] = outer_mask | low_masks[i]
        yield member


def _extension_masks(x: Interpretation, free: Sequence[str]) -> Iterator[int]:
    """The `mask` of each member `extensions(x, free)` yields, in its
    order, without building the members: x's mask united with one entry
    of a table of the subsets of the high half of `free` and one of the
    low half, as `extensions` splits it.  `free` is checked against x's
    universe first."""
    _require_in_universe(free, x.universe)
    bits = _bit_index(x.universe)
    half = len(free) // 2
    low, high = [0], [x.mask]
    for a in free[:half]:
        low += [m | bits[a] for m in low]
    for a in free[half:]:
        high += [m | bits[a] for m in high]
    return (outer | inner for outer in high for inner in low)
