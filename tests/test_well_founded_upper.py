"""The well-founded fixpoint against the path it replaced: its upper
bound, the least fixpoint of Z -> upper(x, Z), by plain Kleene iteration
of `upper_step`, which tests every head at every step.

The upper operator of a relation with a truth function is monotone in Z,
so the semi-naive loop walks the same chain of Z's: with normal weights
the pair and `iterations`, or the error type and message, are the same
under gl, triv, ult and bnd.  The loop does not test a head again once
it is possible, so with ±2^62 weights, where an evaluation can leave the
signed 64-bit range, it may answer where the reference raised, or raise
with another message; it never raises or answers differently where the
reference answered."""

import random

import pytest

from aggsem import fixpoints, oracle, parse_program
from aggsem.fixpoints import upper_step, well_founded
from aggsem.interp import Interpretation, InterpretationPair
from aggsem.ternary import SemanticsId

from .conftest import PROGRAMS_DIR
from .test_stable_check import outcome, raised, with_big_weights

TRUTH_FUNCTION_SEMS = [sem for sem in SemanticsId if sem.has_truth_function]


def kleene_lfp_upper(sem, program, x):
    """Least fixpoint of Z -> upper(x, Z), iterated from bottom."""
    return fixpoints._kleene(
        lambda z: upper_step(sem, program, InterpretationPair(x, z.union(x.atoms))),
        Interpretation.empty(program.universe),
        len(program.universe) + 1,
    )[0]


def reference_well_founded(sem, program):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixpoints, "_lfp_upper", kleene_lfp_upper)
        return well_founded(sem, program)


def compare(program, exact, differences):
    for sem in TRUTH_FUNCTION_SEMS:
        got = outcome(lambda: well_founded(sem, program))
        expected = outcome(lambda: reference_well_founded(sem, program))
        where = (str(program), sem.value)
        if exact:
            assert got == expected, where
        elif got != expected:
            assert raised(expected), where
            differences["other message" if raised(got) else "raise to answer"] += 1


def test_truth_function_sems_are_the_rows_with_one():
    assert [sem.value for sem in TRUTH_FUNCTION_SEMS] == ["gl", "triv", "ult", "bnd"]


def test_well_founded_matches_the_kleene_upper_bound_on_the_shipped_programs():
    differences = {"other message": 0, "raise to answer": 0}
    for path in sorted(PROGRAMS_DIR.glob("*.lp")):
        program = parse_program(path.read_text(encoding="utf-8"))
        compare(program, True, differences)
        compare(with_big_weights(program), False, differences)


def test_well_founded_matches_the_kleene_upper_bound_on_a_seeded_corpus():
    rng = random.Random(20261018)
    differences = {"other message": 0, "raise to answer": 0}
    for _ in range(300):
        program = oracle.random_program(rng, max_atoms=5, max_rules=8)
        compare(program, True, differences)
        compare(with_big_weights(program), False, differences)
    # on big weights both kinds of difference are reached
    assert all(count > 0 for count in differences.values()), differences
