"""There is one program form: `combine_rules_per_head(p)` gives what the
program p gives under every relation, as the same value or the same
error type and message, for the operators, the least fixpoint, the
stable check and search, and the Kripke-Kleene and well-founded
fixpoints.  The grouping is the program itself, which caches its rules
grouped per head as `entries`."""

import random
from itertools import islice

from aggsem import oracle, parse_program
from aggsem.fixpoints import (
    _all_convex,
    kripke_kleene,
    lfp_lower,
    lower_step,
    stable_check,
    stable_enumerate,
    upper_step,
    well_founded,
)
from aggsem.interp import Interpretation, InterpretationPair, extensions
from aggsem.syntax import combine_rules_per_head
from aggsem.ternary import SemanticsId, all_consistent_pairs

from .conftest import PROGRAMS_DIR, load_program
from .test_stable_check import outcome

MAX_EXHAUSTIVE_ATOMS = 5


def outcomes(program, pairs, candidates):
    """Each function's outcome on `program` under every relation."""
    found = {}
    for sem in SemanticsId:
        for pair in pairs:
            found[sem, "lower_step", pair] = outcome(lambda: lower_step(sem, program, pair))
            found[sem, "upper_step", pair] = outcome(lambda: upper_step(sem, program, pair))
        for y in candidates:
            found[sem, "lfp_lower", y] = outcome(lambda: lfp_lower(sem, program, y))
            found[sem, "stable_check", y] = outcome(lambda: stable_check(sem, program, y))
        found[sem, "stable_enumerate"] = outcome(lambda: stable_enumerate(sem, program))
        found[sem, "kripke_kleene"] = outcome(lambda: kripke_kleene(sem, program))
        found[sem, "well_founded"] = outcome(lambda: well_founded(sem, program))
    return found


def inputs(program):
    """Every consistent pair and interpretation of a small universe; of a
    larger one, the first pairs and interpretations in walk order."""
    universe = program.universe
    if len(universe) <= MAX_EXHAUSTIVE_ATOMS:
        pairs = all_consistent_pairs(universe)
    else:
        pairs = all_consistent_pairs(universe[:MAX_EXHAUSTIVE_ATOMS])
        pairs = [InterpretationPair.of(universe, p.lower, p.upper) for p in pairs]
        pairs.append(InterpretationPair.least_precise(universe))
    empty = Interpretation.empty(universe)
    candidates = list(islice(extensions(empty, universe), 1 << MAX_EXHAUSTIVE_ATOMS))
    candidates.append(Interpretation.full(universe))
    return pairs, candidates


def assert_same_outcomes(program):
    combined = combine_rules_per_head(program)
    pairs, candidates = inputs(program)
    expected = outcomes(program, pairs, candidates)
    got = outcomes(combined, pairs, candidates)
    for key, value in expected.items():
        assert got[key] == value, (str(program), key)


def test_grouping_gives_what_the_program_gives_on_the_shipped_programs():
    paths = sorted(PROGRAMS_DIR.glob("*.lp"))
    assert len(paths) >= 7
    for path in paths:
        assert_same_outcomes(parse_program(path.read_text(encoding="utf-8")))


def test_grouping_gives_what_the_program_gives_on_a_seeded_corpus():
    rng = random.Random(20261019)
    for _ in range(60):
        assert_same_outcomes(oracle.random_program(rng, max_atoms=4, max_rules=6))


def test_grouping_of_an_aggregate_head_loop():
    """The two rules whose grouping once had no `heads` for the search and
    no `aggregate_atoms` for flp's convexity test."""
    program = parse_program("p :- sum{1:p} > 0. p :- sum{1:p} <= 0.")
    combined = combine_rules_per_head(program)
    p = Interpretation.of(program.universe, ["p"])
    for sem in ("ult", "flp", "ultimate"):
        assert stable_enumerate(sem, combined) == stable_enumerate(sem, program)
        assert stable_check(sem, combined, p) == stable_check(sem, program, p)
    # only the whole-disjunction row sees that one of the two bodies holds
    assert stable_enumerate("ultimate", combined) == [p]
    assert stable_enumerate("ult", combined) == []


def test_flp_walk_on_the_grouping_of_nonconvex_loop():
    program = load_program("nonconvex_loop.lp")
    combined = combine_rules_per_head(program)
    assert not _all_convex(combined)  # so flp takes the minimal-model walk
    for y in extensions(Interpretation.empty(program.universe), program.universe):
        assert stable_check("flp", combined, y) == stable_check("flp", program, y)
    assert stable_enumerate("flp", combined) == stable_enumerate("flp", program)
