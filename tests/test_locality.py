"""Locality, the lemma the dependency-driven Kleene loops of `fixpoints`
and the tables of `ternary.Analysis` rest on: every row of the relation
table reads a pair only on the atoms of the formula it is asked about.
Two consistent pairs with the same restriction to those atoms give the
same `sat3` (`sat3_body` for `ultimate`'s disjunctions) answer, or the
same error type and message, with small and with ±2^62 weights.

The loops find the heads to test again through the program's dependency
index, which must list every atom a body mentions, negated or not."""

import dataclasses
import random
from collections import Counter

from aggsem import oracle, parse_program
from aggsem.syntax import AggregateAtom, Literal
from aggsem.ternary import SemanticsId, all_consistent_pairs, sat3, sat3_body

from .test_stable_check import HALF, outcome

UNIVERSE = ("a", "b", "c", "d", "e")
PAIRS = all_consistent_pairs(UNIVERSE)


def big(element):
    """The element with every nonzero aggregate weight replaced by ±2^62."""
    if isinstance(element, AggregateAtom):
        entries = tuple((((w > 0) - (w < 0)) * HALF, lit) for w, lit in element.entries)
        return dataclasses.replace(element, entries=entries)
    return element


def elements(rng):
    """Literals of both signs and aggregates over two or three atoms of the
    universe, each with small weights and with ±2^62 weights."""
    found = [Literal(atom, negated) for atom in UNIVERSE[:2] for negated in (False, True)]
    for _ in range(24):
        atoms = rng.sample(UNIVERSE, rng.randint(2, 3))
        atom = oracle.random_aggregate_atom(rng, atoms)
        found += [atom, big(atom)]
    return found


def atoms_of(elements):
    return frozenset(
        a for e in elements for a in ([e.atom] if isinstance(e, Literal) else e.condition_atoms)
    )


def assert_local(evaluate, formula, atoms, seen):
    """`evaluate` gives one outcome per restriction of the pair to `atoms`."""
    by_restriction = {}
    for pair in PAIRS:
        key = pair.lower.atoms & atoms, pair.upper.atoms & atoms
        value = outcome(lambda: evaluate(formula, pair))
        assert by_restriction.setdefault(key, value) == value, (str(formula), str(pair))
        seen[value[0] if isinstance(value, tuple) else value] += 1


def test_every_row_reads_a_pair_only_on_the_formula_atoms():
    rng = random.Random(20261019)
    seen = Counter()
    for sem in SemanticsId:
        if sem.is_elementwise:
            for element in elements(rng):
                assert_local(lambda e, p: sat3(sem, e, p), element, atoms_of([element]), seen)
        else:
            for _ in range(8):
                pool = elements(rng)
                bodies = tuple(tuple(rng.sample(pool, rng.randint(1, 2))) for _ in range(2))
                atoms = atoms_of(e for body in bodies for e in body)
                assert_local(lambda b, p: sat3_body(sem, b, p), bodies, atoms, seen)
    # both answers and both errors a row can raise are reached
    assert {True, False, "ArithmeticOverflowError", "CapabilityError"} <= set(seen), seen


def test_dependency_index_lists_negated_literals_and_conditions():
    program = parse_program(
        "#atoms e.\n"
        "h :- not a, sum{1:not b, 2:c} > 0.\n"
        "g :- b, card{1:not d} >= 1.\n"
        "h :- g."
    )
    assert [head for head, _ in program.entries] == ["h", "g"]
    assert program.dependents == {"a": (0,), "b": (0, 1), "c": (0,), "d": (1,), "g": (0,)}
