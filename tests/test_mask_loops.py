"""The Kleene loops carry pairs as two universe masks and hand the rows'
tests of a head, `SemanticsId.bodies_certain` and `bodies_possible`, an
`interp._MaskPair`, which builds its InterpretationPair only when a test
reads a set.

At a mask pair those tests must answer as at the InterpretationPair: the
same value, or the type and message of the same first error, and the
same number of interval expansions, at every consistent pair of every
program of the outcome fingerprint's corpus, ±2^62 variants included
(where few atoms and heads have kernels, so the tests read the sets).
The loops build at most one pair per round, none where every test reads
masks, and a kernel-backed relation call checks its pair once."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from aggsem import fixpoints, parse_program
from aggsem.bounds import bnd_truth, interval_truth
from aggsem.errors import AggsemError, InconsistentPairError
from aggsem.eval2 import aggregate_holds_everywhere
from aggsem.interp import InterpretationPair, _MaskPair, interval_expansion_count
from aggsem.syntax import AggregateAtom
from aggsem.ternary import SemanticsId, all_consistent_pairs, sat3, truth3

from .test_dependency_loops import chain

ROOT = Path(__file__).resolve().parent.parent


def _outcomes_tool():
    spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _counted(compute):
    """The value, or the first error's type and message, and the interval
    expansions computing it took."""
    before = interval_expansion_count()
    try:
        value = compute()
    except AggsemError as error:
        value = (type(error).__name__, str(error))
    return value, interval_expansion_count() - before


def test_mask_tests_answer_as_the_pair_tests_on_the_fingerprint_corpus():
    tool = _outcomes_tool()
    seen = Counter()
    for name, text in tool.corpus(tool.FINGERPRINT_COUNT, tool.FINGERPRINT_SKIPS):
        program = parse_program(text)
        universe = program.universe
        pairs = all_consistent_pairs(universe)
        for sem in SemanticsId:
            tests = [SemanticsId.bodies_certain]
            if sem.has_truth_function:  # bodies_possible is defined for these rows only
                tests.append(SemanticsId.bodies_possible)
            for test in tests:
                for _, bodies in program.entries:
                    for pair in pairs:
                        expected = _counted(lambda: test(sem, bodies, pair))
                        masks = _MaskPair(universe, *pair.masks)
                        got = _counted(lambda: test(sem, bodies, masks))
                        assert got == expected, (name, sem, test.__name__, bodies, pair)
                        value = expected[0]
                        seen[value[0] if isinstance(value, tuple) else value] += 1
    # both answers and the errors a head test raises are reached
    assert {True, False, "ArithmeticOverflowError", "CapabilityError"} <= set(seen), seen


def _count_pairs(monkeypatch):
    """A counter of the InterpretationPairs built (`pairs`) and of the
    rounds of the least fixpoint (`rounds`, its calls of `pair_at`) from
    now on."""
    built = Counter()
    post_init, least_fixpoint = InterpretationPair.__post_init__, fixpoints._least_fixpoint

    def counting_pairs(pair):
        built["pairs"] += 1
        post_init(pair)

    def counting_rounds(holds, sem, program, pair_at, stop_at_upper):
        def counted(x):
            built["rounds"] += 1
            return pair_at(x)

        return least_fixpoint(holds, sem, program, counted, stop_at_upper)

    monkeypatch.setattr(InterpretationPair, "__post_init__", counting_pairs)
    monkeypatch.setattr(fixpoints, "_least_fixpoint", counting_rounds)
    return built


def test_the_loops_build_pairs_only_at_their_ends(monkeypatch):
    program = chain(8)  # every head and aggregate atom has a kernel
    start = fixpoints._supported_box(program)  # builds the kernels
    y = start.lower.union(f"b{i}" for i in range(1, 9))  # a stable model
    built = _count_pairs(monkeypatch)
    box = fixpoints._supported_box(program)
    # the start pair and the box; plain iteration builds one per step
    assert box == start and built["pairs"] == 2
    # the rows whose aggregate tests read the kernels build no pair
    for sem in ("triv", "ult", "bnd", "mr", "ultimate"):
        built.clear()
        assert fixpoints.stable_check(sem, program, y)
        assert built["pairs"] == 0 and built["rounds"] > 0, (sem, built)
    # gz, lpst and flp read the sets of a pair: at most one per round
    for sem in ("gz", "lpst", "flp"):
        built.clear()
        assert fixpoints.stable_check(sem, program, y)
        assert 0 < built["pairs"] <= built["rounds"], (sem, built)


def _count_checks(monkeypatch):
    checks = Counter()
    require = InterpretationPair.require_consistent

    def counting(pair):
        checks["checks"] += 1
        require(pair)

    monkeypatch.setattr(InterpretationPair, "require_consistent", counting)
    return checks


def test_a_kernel_backed_relation_call_checks_its_pair_once(monkeypatch):
    text = "p :- sum{1:q, 2:r} >= 2. q :- not r. r :- not q. s :- min{1:q, 3:r} < 2."
    program = parse_program(text)
    total, least = program.aggregate_atoms()
    assert all(atom._kernels is not None for atom in (total, least))
    pair = InterpretationPair.least_precise(program.universe)
    checks = _count_checks(monkeypatch)
    # each call with the interval expansions it counts: one per sweep,
    # none for the sum's bnd hull
    calls = [
        (lambda: sat3("ult", total, pair), 1),
        (lambda: truth3("ult", total, pair), 1),
        (lambda: truth3("bnd", total, pair), 0),
        (lambda: truth3("bnd", least, pair), 1),
        (lambda: sat3("bnd", least, pair), 1),
        (lambda: aggregate_holds_everywhere(total, pair), 1),
        (lambda: bnd_truth(least, pair), 1),
    ]
    for call, sweeps in calls:
        checks.clear()
        assert _counted(call)[1] == sweeps
        assert checks["checks"] == 1


def test_the_sweep_at_an_inconsistent_pair_keeps_its_message():
    universe = ("q", "r")
    atom = parse_program("p :- sum{1:q, 2:r} >= 2.").aggregate_atoms()[0]
    assert isinstance(atom, AggregateAtom) and atom._kernels is not None
    inconsistent = InterpretationPair.of(universe, ("q",), ())
    before = interval_expansion_count()
    with pytest.raises(InconsistentPairError, match=r"^\{q\} is not a subset of \{\}$"):
        interval_truth(atom, inconsistent)
    with pytest.raises(InconsistentPairError, match=r"^inconsistent pair \(\{q\}, \{\}\)$"):
        aggregate_holds_everywhere(atom, inconsistent)
    assert interval_expansion_count() == before
