"""Interpretations, pairs, the subset and precision orders, and interval
enumeration over the powerset lattice of a fixed finite atom universe.

Bottom is the empty set, top is the full universe.  A pair (lower, upper)
stands for the three-valued interpretation that makes lower true,
upper-minus-lower undefined and everything else false; it is consistent
when lower is contained in upper.

A `Universe` is a tuple of distinct atoms that owns their bit layout:
bit k of a mask stands for universe[k].  An Interpretation is a universe
and a mask, each built through its checked constructor; its set of atoms
is derived on first read and kept outside the fields, and only the
oracle, the CLI and the benchmark read it.  The two sets of an
InterpretationPair share one universe, and the pair is consistent when
`lower & ~upper` is 0.  A Kleene loop that carries a pair as two masks
builds the pair from them each round.  A plain tuple becomes a Universe
where it enters (`Universe.of`), through one bounded table, so equal
tuples share one layout; nothing past that hashes a universe.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InconsistentPairError, UniverseMismatchError

__all__ = [
    "Universe",
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


# The Universe of each plain tuple that entered, cleared when it holds
# this many; a Universe never enters it.
UNIVERSE_TABLE = 64
_universes: dict[tuple[str, ...], "Universe"] = {}


class Universe(tuple):
    """Distinct atoms in a fixed order, with their bit layout: `bits` maps
    universe[k] to 1 << k.  It compares, hashes and prints as the plain
    tuple of its atoms.  A repeated atom raises UniverseMismatchError."""

    def __new__(cls, atoms: Iterable[str] = ()):
        universe = super().__new__(cls, atoms)
        universe.bits = {a: 1 << k for k, a in enumerate(universe)}
        if len(universe.bits) < len(universe):
            raise UniverseMismatchError("universe contains duplicate atoms")
        return universe

    @staticmethod
    def of(atoms: Iterable[str]) -> "Universe":
        """`atoms` itself when it is a Universe, without hashing it; else
        the Universe of its atoms, one per equal tuple while the table
        keeps it."""
        if isinstance(atoms, Universe):
            return atoms
        atoms = tuple(atoms)
        universe = _universes.get(atoms)
        if universe is None:
            universe = Universe(atoms)
            if len(_universes) >= UNIVERSE_TABLE:
                _universes.clear()
            _universes[atoms] = universe
        return universe

    def mask_of(self, atoms: Iterable[str]) -> int:
        """The mask of the atoms; atoms outside the universe raise
        UniverseMismatchError."""
        bits, mask, unknown = self.bits, 0, set()
        for atom in atoms:
            bit = bits.get(atom)
            if bit is None:
                unknown.add(atom)
            else:
                mask |= bit
        if unknown:
            raise UniverseMismatchError(f"atoms outside the universe: {', '.join(sorted(unknown))}")
        return mask

    def atoms_at(self, mask: int) -> list[str]:
        """The atoms whose bits `mask` sets, in universe order."""
        return [a for a, bit in self.bits.items() if mask & bit]

    def __reduce__(self):
        """Pickle the atoms only; the layout is built again."""
        return Universe, (tuple(self),)


class Interpretation:
    """The atoms of `universe` whose bits `mask` sets.  `atoms`, given in
    place of the mask, as `Interpretation.of` and the repr give them, are
    checked against the universe.  Treated as immutable: each operation
    builds a new one."""

    def __init__(
        self, universe: Iterable[str], mask: int = 0, *, atoms: Iterable[str] | None = None
    ):
        self.universe = universe = Universe.of(universe)
        self.mask = mask = mask if atoms is None else universe.mask_of(atoms)
        if mask >> len(universe):
            raise UniverseMismatchError("mask sets bits outside the universe")

    # derived outside the fields, so eq, hash, repr and pickles are unchanged
    @cached_property
    def atoms(self) -> frozenset[str]:
        return frozenset(self.universe.atoms_at(self.mask))

    def __getstate__(self) -> dict:
        """Pickle the fields only; the atoms are derived again on first use."""
        return {"universe": self.universe, "mask": self.mask}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Interpretation:
            return NotImplemented
        return self.mask == other.mask and (
            self.universe is other.universe or self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.universe, self.mask))

    @staticmethod
    def of(universe: Iterable[str], atoms: Iterable[str] = ()) -> "Interpretation":
        return Interpretation(universe, atoms=atoms)

    @staticmethod
    def empty(universe: Iterable[str]) -> "Interpretation":
        return Interpretation(universe)

    @staticmethod
    def full(universe: Iterable[str]) -> "Interpretation":
        universe = Universe.of(universe)
        return Interpretation(universe, (1 << len(universe)) - 1)

    def __contains__(self, atom: str) -> bool:
        return bool(self.mask & self.universe.bits.get(atom, 0))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        """Iterate member atoms in universe order (deterministic)."""
        return iter(self.universe.atoms_at(self.mask))

    def __str__(self) -> str:
        return "{" + ", ".join(self.sorted_atoms) + "}"

    def __repr__(self) -> str:
        """The dataclass format with the atoms in universe order, so equal
        interpretations print alike whatever order their sets were built in."""
        atoms = f"frozenset({{{', '.join(map(repr, self))}}})" if self.mask else "frozenset()"
        return f"Interpretation(universe={self.universe!r}, atoms={atoms})"

    @property
    def sorted_atoms(self) -> tuple[str, ...]:
        return tuple(sorted(self))

    def with_atoms(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, atoms=atoms)

    def union(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, self.mask | self.universe.mask_of(atoms))

    def difference(self, atoms: Iterable[str]) -> "Interpretation":
        return Interpretation(self.universe, self.mask & ~self.universe.mask_of(atoms))


def _require_same_universe(a: Interpretation, b: Interpretation) -> None:
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError("interpretations are over different universes")


def leq_subset(a: Interpretation, b: Interpretation) -> bool:
    """Lattice order: a <= b iff a's atoms are a subset of b's."""
    _require_same_universe(a, b)
    return not a.mask & ~b.mask


class InterpretationPair:
    """Two interpretations over one universe, kept with that universe and
    their two masks (`universe`, `masks`).  Treated as immutable."""

    __slots__ = ("lower", "upper", "universe", "masks")

    def __init__(self, lower: Interpretation, upper: Interpretation):
        _require_same_universe(lower, upper)
        self.lower, self.upper = lower, upper
        self.universe, self.masks = lower.universe, (lower.mask, upper.mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not InterpretationPair:
            return NotImplemented
        return self.lower == other.lower and self.upper == other.upper

    def __hash__(self) -> int:
        return hash((self.lower, self.upper))

    def __repr__(self) -> str:
        return f"InterpretationPair(lower={self.lower!r}, upper={self.upper!r})"

    def __reduce__(self):
        return InterpretationPair, (self.lower, self.upper)

    @staticmethod
    def of(
        universe: Iterable[str], lower: Iterable[str], upper: Iterable[str]
    ) -> "InterpretationPair":
        universe = Universe.of(universe)
        return InterpretationPair(
            Interpretation(universe, atoms=lower), Interpretation(universe, atoms=upper)
        )

    @staticmethod
    def least_precise(universe: Iterable[str]) -> "InterpretationPair":
        universe = Universe.of(universe)
        return InterpretationPair(Interpretation(universe), Interpretation.full(universe))

    @staticmethod
    def exact(interpretation: Interpretation) -> "InterpretationPair":
        return InterpretationPair(interpretation, interpretation)

    @property
    def is_consistent(self) -> bool:
        lower, upper = self.masks
        return not lower & ~upper

    @property
    def is_exact(self) -> bool:
        lower, upper = self.masks
        return lower == upper

    def undefined_atoms(self) -> tuple[str, ...]:
        """Atoms with unknown truth value, in universe order."""
        lower, upper = self.masks
        return tuple(self.universe.atoms_at(upper & ~lower))

    def require_consistent(self) -> None:
        lower, upper = self.masks
        if lower & ~upper:
            raise InconsistentPairError(f"inconsistent pair ({self.lower}, {self.upper})")

    def __str__(self) -> str:
        return f"({self.lower}, {self.upper})"


def leq_precision(a: InterpretationPair, b: InterpretationPair) -> bool:
    """Precision order: b refines a iff a.lower <= b.lower and b.upper <= a.upper."""
    if a.universe is not b.universe and a.universe != b.universe:
        raise UniverseMismatchError("pairs are over different universes")
    return not (a.lower.mask & ~b.lower.mask or b.upper.mask & ~a.upper.mask)


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
    free, bits = y.mask & ~x.mask, x.universe.bits
    if restrict is not None and free:
        kept = 0
        for atom in restrict:
            kept |= bits.get(atom, 0)
        free &= kept
    return x.universe.atoms_at(free) if free else []


def _interval_check(x: Interpretation, y: Interpretation) -> None:
    """The checks of `enumerate_interval`; counts one interval expansion.
    A sweep that reads the interval's members from a table starts here."""
    _require_same_universe(x, y)
    if x.mask & ~y.mask:
        raise InconsistentPairError(f"{x} is not a subset of {y}")
    _count_expansion()


def _count_expansion() -> None:
    """Count one interval expansion, for a sweep that reads its members
    from a table at masks it has checked itself."""
    global _interval_expansions
    _interval_expansions += 1


def extensions(x: Interpretation, free: Sequence[str]) -> Iterator[Interpretation]:
    """Yield x united with every subset of `free`, in the order of
    `_extension_masks`: x itself first, then an Interpretation built at
    each later mask.  `free` is checked against x's universe before the
    first member, so a foreign atom raises UniverseMismatchError there.
    The walk does not count interval expansions."""
    masks = _extension_masks(x, free)
    next(masks)  # x's own mask, once the check has passed
    yield x
    universe = x.universe
    for mask in masks:
        yield Interpretation(universe, mask)


def _extension_masks(x: Interpretation, free: Sequence[str]) -> Iterator[int]:
    """The mask of x united with every subset of `free`, by binary
    counting with free[0] as the least significant bit, so the order is
    fixed.  Every exhaustive subset walk outside the independent oracle
    runs here; `extensions` builds members at its masks.

    `free` is checked against x's universe before the first mask.  Each
    mask joins one entry of a table of the subsets of the low half of
    `free` (indexed by the low bits of the count) with one of a table of
    the subsets of the high half united with x (the high bits).  The low
    table is built first; a high entry is built from an earlier one the
    first time the walk reaches it, so the tables hold O(2^(|free|/2))
    entries and a walk that stops early pays little for what it did not
    visit.
    """
    universe = x.universe
    universe.mask_of(free)  # the check: a foreign atom raises here
    bits = universe.bits
    half = len(free) // 2
    low = [0]  # the subsets of free[:half]
    for atom in free[:half]:
        low += [m | bits[atom] for m in low]
    high = [x.mask]  # x united with the subsets of free[half:]
    for j in range(1 << (len(free) - half)):
        if j:  # j without its lowest set bit, plus that bit's atom
            high.append(high[j & (j - 1)] | bits[free[half + (j & -j).bit_length() - 1]])
        outer = high[j]
        for inner in low:
            yield outer | inner
