"""The dependency-driven Kleene loops of `fixpoints` against plain
references that test every head at every step: Kripke-Kleene (and the
`bnd` box of stable search) as `_kleene` over `lower_step` and
`upper_step`, a least fixpoint that tests every waiting head in every
round, and well-founded rounds that compute both bounds afresh.

A row's test of a head reads the pair only on the atoms of the head's
bodies, so a test the new loops skip would give its last answer again.
They walk the same chains and raise the same first error: the value, or
the error type and message, and the well-founded `iterations` are equal,
with normal and with ±2^62 weights.  The loops also do less work, which
the counts below pin."""

import random
from collections import Counter

import pytest

from aggsem import fixpoints, oracle, parse_program
from aggsem.fixpoints import (
    WellFoundedResult,
    kripke_kleene,
    lfp_lower,
    lower_step,
    stable_check,
    stable_enumerate,
    upper_step,
    well_founded,
)
from aggsem.interp import (
    Interpretation,
    InterpretationPair,
    extensions,
    interval_expansion_count,
    reset_interval_expansions,
)
from aggsem.ternary import SemanticsId

from .conftest import PROGRAMS_DIR, load_program
from .test_stable_check import outcome, with_big_weights

TRUTH_FUNCTION_SEMS = [sem for sem in SemanticsId if sem.has_truth_function]
ALL_SUBSETS_UP_TO = 5  # stable_check and lfp_lower run at every subset of such universes


def reference_kripke_kleene_from(sem, program, start):
    return fixpoints._kleene(
        lambda pair: InterpretationPair(
            lower_step(sem, program, pair), upper_step(sem, program, pair)
        ),
        start,
        2 * len(program.universe) + 2,
    )[0]


def reference_least_fixpoint(holds, sem, program, pair_at, stop_at_upper):
    """The plain loop on Interpretations, with the row's test at an
    InterpretationPair.  It takes and returns masks, as
    `fixpoints._least_fixpoint` does."""
    fixpoints._reject_gl_aggregates(sem, program)
    x, waiting = Interpretation.empty(program.universe), program.entries
    while True:
        lower, upper = (Interpretation(program.universe, m) for m in pair_at(x.mask))
        pair = InterpretationPair(lower, upper)
        pair.require_consistent()
        fired = [head for head, bodies in waiting if holds(sem, bodies, pair)]
        if not fired:
            return x.mask
        x = x.union(fired)
        if stop_at_upper and x.atoms == pair.upper.atoms:
            return x.mask
        waiting = [(head, bodies) for head, bodies in waiting if head not in x.atoms]


def reference_well_founded(sem, program):
    sem = SemanticsId.from_tag(sem)
    fixpoints._require_truth_function(sem)

    def refine(pair):
        x = lfp_lower(sem, program, pair.upper)
        y = fixpoints._lfp_upper(sem, program, pair.lower)
        if not x.atoms <= y.atoms:
            raise AssertionError("well-founded refinement left the consistent pairs")
        return InterpretationPair(x, y)

    least = InterpretationPair.least_precise(program.universe)
    pair, iterations = fixpoints._kleene(refine, least, 2 * len(program.universe) + 2)
    return WellFoundedResult(pair, iterations)


def outcomes(program, wf):
    """Every outcome of the three loops on the program, keyed by call,
    with `wf` as the well-founded fixpoint."""
    found = {}
    for sem in SemanticsId:
        found["models", sem] = outcome(lambda: stable_enumerate(sem, program, 24))
    for sem in TRUTH_FUNCTION_SEMS:
        found["kk", sem] = outcome(lambda: kripke_kleene(sem, program))
        found["wf", sem] = outcome(lambda: wf(sem, program))
    if len(program.universe) <= ALL_SUBSETS_UP_TO:
        for y in extensions(Interpretation.empty(program.universe), program.universe):
            for sem in SemanticsId:
                found["check", sem, y] = outcome(lambda: stable_check(sem, program, y))
                found["lfp", sem, y] = outcome(lambda: lfp_lower(sem, program, y))
    return found


def reference_outcomes(program):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixpoints, "_kripke_kleene_from", reference_kripke_kleene_from)
        patch.setattr(fixpoints, "_least_fixpoint", reference_least_fixpoint)
        return outcomes(program, reference_well_founded)


def compare(program, seen):
    got, expected = outcomes(program, well_founded), reference_outcomes(program)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == value, (str(program), key)
        seen[value[0] if isinstance(value, tuple) else "answer"] += 1


def test_loops_match_the_plain_references_on_the_shipped_programs():
    seen = Counter()
    for path in sorted(PROGRAMS_DIR.glob("*.lp")):
        program = parse_program(path.read_text(encoding="utf-8"))
        compare(program, seen)
        compare(with_big_weights(program), seen)
    assert seen["ArithmeticOverflowError"] > 0, seen


def test_loops_match_the_plain_references_on_a_seeded_corpus():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(250):
        program = oracle.random_program(rng, max_atoms=6, max_rules=9)
        compare(program, seen)
        compare(with_big_weights(program), seen)
    # answers and every error the loops raise are reached on both sides
    errors = {"ArithmeticOverflowError", "CapabilityError", "InconsistentPairError"}
    assert {"answer"} | errors <= set(seen), seen


def chain(n):
    """a_i :- sum{1:a_(i-1), 1:b_i} >= 1, with b_i / c_i an even loop."""
    rules = ["a0."]
    for i in range(1, n + 1):
        rules.append(f"a{i} :- sum{{1:a{i - 1}, 1:b{i}}} >= 1.")
        rules.append(f"b{i} :- not c{i}.")
        rules.append(f"c{i} :- not b{i}.")
    return parse_program("\n".join(rules))


def test_the_box_tests_each_head_a_few_times(monkeypatch):
    calls = Counter()
    for name in ("bodies_certain", "bodies_possible"):
        test = getattr(SemanticsId, name)

        def counting(sem, *args, name=name, test=test):
            calls[name] += 1
            return test(sem, *args)

        monkeypatch.setattr(SemanticsId, name, counting)
    program = chain(8)
    box = fixpoints._supported_box(program)
    assert box.lower.atoms == {f"a{i}" for i in range(9)}
    assert box.upper.atoms == set(program.heads)
    # plain iteration makes 10 steps of 2 tests per head: 500 for 25 heads
    assert 0 < sum(calls.values()) <= 3 * len(program.heads), calls


def test_the_fixpoints_reach_the_loops_by_module_lookup(monkeypatch):
    """Stable search, Kripke-Kleene and the well-founded rounds look the
    two loops up in `fixpoints` at each call, so the reference patches
    of this module reach them."""
    reached = Counter()
    for name in ("_least_fixpoint", "_kripke_kleene_from"):
        loop = getattr(fixpoints, name)

        def spy(*args, name=name, loop=loop):
            reached[name] += 1
            return loop(*args)

        monkeypatch.setattr(fixpoints, name, spy)
    program = chain(2)
    calls = {
        "stable_enumerate": lambda: stable_enumerate("ult", program),
        "kripke_kleene": lambda: kripke_kleene("ult", program),
        "well_founded": lambda: well_founded("ult", program),
    }
    loops = {}
    for function, call in calls.items():
        reached.clear()
        call()
        loops[function] = set(reached)
    assert loops == {
        "stable_enumerate": {"_kripke_kleene_from", "_least_fixpoint"},  # the box, each check
        "kripke_kleene": {"_kripke_kleene_from"},
        "well_founded": {"_least_fixpoint"},  # both bounds of each round
    }


def test_well_founded_reuses_a_bound_computed_from_an_unchanged_set():
    program = load_program("wide_aggregate_18.lp")
    reset_interval_expansions()
    result = well_founded("ult", program)
    # recomputing both bounds in every round expands 6 intervals
    assert interval_expansion_count() <= 4
    assert result == reference_well_founded("ult", program)

