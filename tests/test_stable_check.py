"""The stable check against the path it replaced: a support test through
`tp` over every rule, plain Kleene iteration of `lower_step` for the
least fixpoint, and the minimal-model walk for every flp candidate.

With normal weights the two give the same value, or the same error type
and message, for `stable_check` and `lfp_lower` under every relation at
every interpretation.  The new check evaluates fewer bodies, so with
±2^62 weights, where an evaluation can leave the signed 64-bit range, it
may answer where the reference raised, or raise another error; it never
raises or answers differently where the reference answered.

flp takes the least fixpoint only on programs whose aggregates are all
convex, and falls back to the walk wherever convexity is not known."""

import dataclasses
import random

import pytest

from aggsem import AggsemError, CapabilityError, fixpoints, oracle, parse_program
from aggsem.eval2 import tp
from aggsem.fixpoints import (
    _all_convex,
    _minimal_model_check,
    lfp_lower,
    lower_step,
    stable_check,
    stable_enumerate,
)
from aggsem.interp import Interpretation, InterpretationPair, extensions
from aggsem.syntax import AggregateAtom, Program, Rule
from aggsem.ternary import MAX_CONVEXITY_ATOMS, SemanticsId

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64


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


def raised(result):
    return isinstance(result, tuple)


# ---------------------------------------------------------------------------
# the reference: the check as it was before the early exits
# ---------------------------------------------------------------------------


def reference_lfp(sem, program, y):
    """Kleene iteration of the whole lower operator from bottom."""
    sem = SemanticsId.from_tag(sem)
    if not sem.monotone_lower_operator:
        raise CapabilityError(
            f"{sem.value} has no monotone lower operator; use its minimal-model check"
        )
    x = Interpretation.empty(program.universe)
    while True:
        nxt = lower_step(sem, program, InterpretationPair(x, y))
        if nxt == x:
            return x
        x = nxt


def reference_stable(sem, program, y):
    sem = SemanticsId.from_tag(sem)
    if sem is SemanticsId.GL and not program.is_aggregate_free:
        raise CapabilityError("gl handles aggregate-free programs only")
    if tp(program, y).atoms != y.atoms:
        return False
    if not sem.monotone_lower_operator:
        return _minimal_model_check(sem, program, y)
    return reference_lfp(sem, program, y).atoms == y.atoms


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        program = oracle.random_program(rng, max_atoms=5, max_rules=8)
        yield program, with_big_weights(program)


def test_stable_check_and_lfp_match_the_reference():
    checked = {"flp shortcut": 0, "flp walk": 0, "raise to answer": 0, "other error": 0}
    for normal, big in corpus(20261018, 150):
        for program, exact in ((normal, True), (big, False)):
            every = list(extensions(Interpretation.empty(program.universe), program.universe))
            for sem in SemanticsId:
                if sem is SemanticsId.FLP and program.aggregate_atoms():
                    checked["flp shortcut" if _all_convex(program) else "flp walk"] += 1
                for y in every:
                    for new, old in (
                        (lambda: stable_check(sem, program, y), reference_stable),
                        (lambda: lfp_lower(sem, program, y), reference_lfp),
                    ):
                        got, expected = outcome(new), outcome(lambda: old(sem, program, y))
                        where = (str(program), sem.value, str(y), old.__name__)
                        if exact:
                            assert got == expected, where
                        elif got != expected:
                            assert raised(expected), where
                            checked["other error" if raised(got) else "raise to answer"] += 1
    # both flp paths, and both kinds of difference, are reached
    assert all(count > 0 for count in checked.values()), checked


# ---------------------------------------------------------------------------
# flp: the convex shortcut and its fallback to the walk
# ---------------------------------------------------------------------------

# a_i :- sum{1:a_(i-1), 1:b_i} >= 1, with b_i and c_i an even loop: 2^4 models
CHAIN_4 = parse_program(
    "a0. "
    + " ".join(
        f"a{i} :- sum{{1:a{i - 1}, 1:b{i}}} >= 1. b{i} :- not c{i}. c{i} :- not b{i}."
        for i in range(1, 5)
    )
)


@pytest.fixture
def walks(monkeypatch):
    """The programs the minimal-model walk is called on."""
    seen = []

    def spy(sem, program, y):
        seen.append(program)
        return _minimal_model_check(sem, program, y)

    monkeypatch.setattr(fixpoints, "_minimal_model_check", spy)
    return seen


def test_flp_on_a_convex_program_never_walks(monkeypatch):
    def fail(sem, program, y):
        raise AssertionError("walked a convex program")

    monkeypatch.setattr(fixpoints, "_minimal_model_check", fail)
    assert len(stable_enumerate("flp", CHAIN_4)) == 16


def test_flp_on_a_nonconvex_program_walks(nonconvex_loop, walks):
    assert [set(m.atoms) for m in stable_enumerate("flp", nonconvex_loop)] == [{"p", "q", "s"}]
    assert walks and all(program is nonconvex_loop for program in walks)


@pytest.mark.parametrize(
    "text",
    [
        # above the convexity bound, so is_convex raises TooLargeError
        "p :- card{"
        + ", ".join(f"1:q{k}" for k in range(MAX_CONVEXITY_ATOMS + 1))
        + "} >= 0.",
        # 2^62 + 2^62 leaves int64, so is_convex raises ArithmeticOverflowError
        f"p :- sum{{{HALF}:q, {HALF}:r}} >= 0.",
    ],
)
def test_flp_walks_where_convexity_is_unknown(text, walks):
    program = parse_program(text)
    y = Interpretation.of(program.universe, ["p"])
    assert stable_check("flp", program, y)
    assert walks == [program]


def test_gl_decides_once_per_rule_that_the_program_has_no_aggregates(monkeypatch):
    """gl rejects an aggregate program at every stable check and least
    fixpoint; the program reads each rule's `has_aggregates` once, not
    once per candidate (262,144 here)."""
    text = " ".join(
        f"p{i} :- not q{i}. q{i} :- not p{i}. r{i} :- p{i}, not r{(i + 1) % 6}." for i in range(6)
    )
    program = parse_program(text)
    reads = []
    has_aggregates = Rule.has_aggregates.fget

    def counted(rule):
        reads.append(rule)
        return has_aggregates(rule)

    monkeypatch.setattr(Rule, "has_aggregates", property(counted))
    models = stable_enumerate("gl", program)
    assert (len(program.universe), len(models)) == (18, 65)
    assert reads == list(program.rules)
