"""The lower and upper operators test each head's disjunction of bodies
through the relation's row: a `Program` and its per-head grouping give
the same steps under every relation, and the steps agree with the
per-rule definition wherever that definition answers."""

import dataclasses
import random
from collections import Counter

from aggsem import AggsemError, CapabilityError, oracle
from aggsem.eval2 import sat2_disjunction
from aggsem.fixpoints import lower_step, upper_step
from aggsem.interp import enumerate_interval
from aggsem.syntax import AggregateAtom, Literal, Program, Rule, combine_rules_per_head
from aggsem.ternary import SemanticsId, all_consistent_pairs, sat3, truth3_body
from aggsem.truth import TruthValue

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64
TRUTH_FUNCTIONAL = [s for s in SemanticsId if s.has_truth_function]


def with_big_weights(program):
    """The program with every nonzero aggregate weight replaced by ±2^62."""

    def big(element):
        if isinstance(element, AggregateAtom):
            entries = tuple((((w > 0) - (w < 0)) * HALF, lit) for w, lit in element.entries)
            return dataclasses.replace(element, entries=entries)
        return element

    rules = tuple(Rule(rule.head, tuple(big(e) for e in rule.body)) for rule in program.rules)
    return Program(rules, program.universe)


def outcome(compute):
    """A value, or the type and message of the error computing it raised."""
    try:
        return compute()
    except AggsemError as error:
        return type(error).__name__, str(error)


def corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        program = oracle.random_program(rng, max_atoms=4, max_rules=5)
        yield program
        yield with_big_weights(program)


def test_both_program_forms_give_the_same_steps():
    for program in corpus(83, 60):
        combined = combine_rules_per_head(program)
        for pair in all_consistent_pairs(program.universe):
            for sem in SemanticsId:
                assert outcome(lambda: lower_step(sem, program, pair)) == outcome(
                    lambda: lower_step(sem, combined, pair)
                ), (str(program), str(pair), sem)
            for sem in TRUTH_FUNCTIONAL:
                assert outcome(lambda: upper_step(sem, program, pair)) == outcome(
                    lambda: upper_step(sem, combined, pair)
                ), (str(program), str(pair), sem)


# ---------------------------------------------------------------------------
# the per-rule definition
# ---------------------------------------------------------------------------


def _reject_gl_on_aggregates(sem, program):
    if sem is SemanticsId.GL and not program.is_aggregate_free:
        raise CapabilityError("gl handles aggregate-free programs only")


def _sweep(bodies, pair):
    """The disjunction holds at every member of the interval, varying the
    atoms the bodies mention."""
    relevant = {
        atom
        for body in bodies
        for element in body
        for atom in ([element.atom] if isinstance(element, Literal) else element.condition_atoms)
    }
    return all(
        sat2_disjunction(bodies, z)
        for z in enumerate_interval(pair.lower, pair.upper, restrict=relevant)
    )


def per_rule_lower(sem, program, pair):
    """Heads of the rules, in source order, whose body has every element
    certainly true by `sat3`; for `ultimate`, heads whose disjunction of
    bodies holds over the whole interval."""
    _reject_gl_on_aggregates(sem, program)
    if sem is SemanticsId.ULTIMATE:
        pair.require_consistent()
        heads = combine_rules_per_head(program).entries
        return frozenset(head for head, bodies in heads if _sweep(bodies, pair))
    return frozenset(
        rule.head for rule in program.rules if all(sat3(sem, e, pair) for e in rule.body)
    )


def per_rule_upper(sem, program, pair):
    """Heads of the rules, in source order, whose body is not false."""
    _reject_gl_on_aggregates(sem, program)
    return frozenset(
        rule.head
        for rule in program.rules
        if truth3_body(sem, rule.body, pair) is not TruthValue.FALSE
    )


def test_per_head_steps_agree_with_the_per_rule_definition():
    where_reference_raised = Counter()
    for program in corpus(89, 150):
        for pair in all_consistent_pairs(program.universe):
            checks = [(lower_step, per_rule_lower, sem) for sem in SemanticsId]
            checks += [(upper_step, per_rule_upper, sem) for sem in TRUTH_FUNCTIONAL]
            for step, reference, sem in checks:
                expected = outcome(lambda: reference(sem, program, pair))
                got = outcome(lambda: step(sem, program, pair))
                if isinstance(expected, tuple):
                    # a head stops at its first certainly or possibly true
                    # body, so it may answer where the reference raised
                    where_reference_raised["raises" if isinstance(got, tuple) else "answers"] += 1
                else:
                    assert got.atoms == expected, (str(program), str(pair), sem, step.__name__)
    assert set(where_reference_raised) == {"raises", "answers"}, where_reference_raised
