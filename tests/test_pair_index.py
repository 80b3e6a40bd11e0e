"""`ternary._PairIndex` over a set of atoms, which `Analysis` gives each
formula in place of the universe's pairs.  The index over atoms A holds
the restrictions of the universe's pairs to A, in the order the
universe's pairs first reach them, and each restriction is the first
pair that reaches it: the pair itself, with the atoms outside A false.
Its exact pairs, one-step refinements and refinements are checked
against references built from `leq_precision` and pair order."""

import random

from aggsem.interp import Interpretation, leq_precision
from aggsem.ternary import _PairIndex


def _universe(rng, size):
    """Distinct atom names in no sorted order."""
    names = [f"{rng.choice('pqrstuvw')}{k}" for k in range(size)]
    rng.shuffle(names)
    return tuple(names)


def _atom_sets(rng, universe):
    """The empty set, the whole universe and a few seeded subsets, in
    seeded order."""
    sets = [(), universe]
    for _ in range(3):
        sets.append(tuple(rng.sample(universe, rng.randint(0, len(universe)))))
    return sets


def _pairs(index):
    return [index.pair(pi) for pi in range(len(index.masks))]


def test_an_index_over_atoms_lists_the_restrictions_in_first_reach_order():
    rng = random.Random(23)
    for size in range(8):
        for _ in range(3):
            universe = _universe(rng, size)
            whole = _pairs(_PairIndex(universe))
            assert len(whole) == 3**size
            for atoms in _atom_sets(rng, universe):
                index = _PairIndex(universe, atoms)
                kept = frozenset(atoms)
                # the first pair of the universe's order to reach each restriction
                first = {}
                for pair in whole:
                    restricted = pair.lower.atoms & kept, pair.upper.atoms & kept
                    first.setdefault(restricted, pair)
                own = _pairs(index)
                assert own == list(first.values()), (universe, atoms)
                assert [(p.lower.atoms, p.upper.atoms) for p in own] == list(first)
                assert all(p.universe == universe for p in own)
                assert index.mask == Interpretation(universe, kept).mask
                assert len(index.bits) == len(kept)


def test_steps_and_refinements_match_precision_order():
    rng = random.Random(24)
    for size in range(8):
        universe = _universe(rng, size)
        sets = [a for a in _atom_sets(rng, universe) if len(set(a)) <= 5]
        for atoms in sets + ([None] if size <= 5 else []):
            index = _PairIndex(universe, atoms)
            pairs = _pairs(index)
            assert index.exact == [pi for pi, p in enumerate(pairs) if p.is_exact]
            for pi, pair in enumerate(pairs):
                refined = [qi for qi, q in enumerate(pairs) if leq_precision(pair, q)]
                assert index.refinements(pi) == refined, (universe, atoms, pair)
                # one atom fewer undefined: per undefined atom in universe
                # order, the refinement making it true, then the one making it false
                width = len(pair.undefined_atoms())
                one_step = [qi for qi in refined if len(pairs[qi].undefined_atoms()) == width - 1]
                expected = [
                    qi
                    for atom in pair.undefined_atoms()
                    for made_true in (True, False)
                    for qi in one_step
                    if atom not in pairs[qi].undefined_atoms()
                    and (atom in pairs[qi].lower) == made_true
                ]
                assert index.steps[pi] == expected, (universe, atoms, pair)
                assert len(expected) == 2 * width
