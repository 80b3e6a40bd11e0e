"""Stable search tests support at universe masks: `eval2._supported_extensions`
reads each head's kernel at the candidate's mask and builds an
Interpretation only for a head without one and for a candidate that
passes.  It must accept what `is_supported_model` accepts on the
members of `extensions`, in order, and raise its first error; and
`stable_enumerate` must hand `stable_check` exactly those candidates."""

import importlib.util
import random
from pathlib import Path

import pytest

import aggsem.fixpoints as fixpoints
from aggsem import AggsemError, CapabilityError, oracle, parse_program
from aggsem.eval2 import _supported_extensions, is_supported_model
from aggsem.interp import (
    Interpretation,
    _extension_masks,
    _interpretation_at,
    extensions,
    interval_expansion_count,
)
from aggsem.ternary import SemanticsId

ROOT = Path(__file__).resolve().parent.parent

CHAIN_4 = "a0.\n" + "".join(
    f"a{i} :- sum{{1:a{i - 1}, 1:b{i}}} >= 1.\nb{i} :- not c{i}.\nc{i} :- not b{i}.\n"
    for i in range(1, 5)
)
# the same chain through min atoms, whose bnd hull sweeps, so the box
# counts interval expansions
MIN_CHAIN_4 = "a0.\n" + "".join(
    f"a{i} :- min{{1:a{i - 1}, 2:b{i}}} < 2.\nb{i} :- not c{i}.\nc{i} :- not b{i}.\n"
    for i in range(1, 5)
)


def _outcomes_tool():
    spec = importlib.util.spec_from_file_location("outcomes", ROOT / "tools" / "outcomes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _walk(candidates):
    """The candidates an iterable yields, and the type and message of the
    error that ended it, if one did."""
    accepted = []
    try:
        for candidate in candidates:
            accepted.append(candidate)
    except AggsemError as error:
        return accepted, (type(error).__name__, str(error))
    return accepted, None


def _compare(program, x, free):
    """Both support tests over `extensions(x, free)`; returns the outcome."""
    reference = _walk(y for y in extensions(x, free) if is_supported_model(program, y))
    ours = _walk(_supported_extensions(program, x, free))
    assert ours == reference, (str(program), x, free)
    return reference


def _kernel_free_heads(program):
    return sum(bodies._kernels is None or bodies._kernels.over(bodies, program.universe) is None
               for _, bodies in program.entries)


def test_mask_support_matches_is_supported_model_on_the_fingerprint_corpus():
    seen = {"accepted": 0, "rejected": 0, "error": 0, "kernel-free programs": 0}
    for _, text in _outcomes_tool().corpus(300):
        program = parse_program(text)
        box = fixpoints._supported_box(program)
        free = box.undefined_atoms()
        accepted, error = _compare(program, box.lower, free)
        seen["accepted"] += len(accepted)
        seen["rejected"] += (1 << len(free)) - len(accepted)
        seen["error"] += error is not None
        seen["kernel-free programs"] += _kernel_free_heads(program) > 0
    # the corpus reaches every branch: passing and failing candidates,
    # heads without a kernel, and their overflow errors
    assert seen["accepted"] > 300 and seen["rejected"] > 500, seen
    assert seen["error"] > 10 and seen["kernel-free programs"] > 50, seen


def test_mask_support_matches_is_supported_model_on_every_interpretation():
    """From the empty set over the whole universe, so candidates also hold
    atoms that are no head, which no supported model does."""
    rng = random.Random(20261027)
    tool = _outcomes_tool()
    errors = 0
    for _ in range(200):
        program = oracle.random_program(rng, max_atoms=6, max_rules=6)
        for variant in (program, tool.with_big_weights(program)):
            universe = variant.universe
            _, error = _compare(variant, Interpretation.empty(universe), universe)
            errors += error is not None
    assert errors > 5


def test_extension_masks_follow_extensions():
    rng = random.Random(5)
    for _ in range(40):
        universe = tuple(f"p{k}" for k in range(rng.randint(0, 9)))
        x = Interpretation.of(universe, [a for a in universe if rng.random() < 0.3])
        free = [a for a in universe if a not in x.atoms and rng.random() < 0.8]
        rng.shuffle(free)
        members = list(extensions(x, free))
        assert list(_extension_masks(x, free)) == [z.mask for z in members]
        assert [_interpretation_at(universe, z.mask) for z in members] == members


@pytest.mark.parametrize("text", [CHAIN_4, MIN_CHAIN_4], ids=["sum", "min"])
@pytest.mark.parametrize("sem", [s.value for s in SemanticsId if s.handles_aggregates])
def test_only_supported_candidates_reach_stable_check(monkeypatch, sem, text):
    program = parse_program(text)
    box = fixpoints._supported_box(program)
    candidates = list(extensions(box.lower, box.undefined_atoms()))
    supported = [y for y in candidates if is_supported_model(program, y)]
    assert len(candidates) == 256 and len(supported) == 16
    tested = []
    check = fixpoints.stable_check

    def counting_check(sem, program, candidate):
        tested.append(candidate)
        return check(sem, program, candidate)

    monkeypatch.setattr(fixpoints, "stable_check", counting_check)
    models = fixpoints.stable_enumerate(sem, program)
    assert tested == supported
    assert sorted(m.sorted_atoms for m in models) == sorted(y.sorted_atoms for y in supported)


@pytest.mark.parametrize("text, expansions", [(CHAIN_4, 0), (MIN_CHAIN_4, 16)], ids=["sum", "min"])
def test_gl_still_builds_the_box_then_fails_at_the_first_candidate(monkeypatch, text, expansions):
    """The box's expansions are part of the outcome, so gl builds it
    before `stable_check` rejects the aggregate program."""
    program = parse_program(text)
    tested = []
    check = fixpoints.stable_check

    def counting_check(sem, program, candidate):
        tested.append(candidate)
        return check(sem, program, candidate)

    monkeypatch.setattr(fixpoints, "stable_check", counting_check)
    before = interval_expansion_count()
    with pytest.raises(CapabilityError, match="^gl handles aggregate-free programs only$"):
        fixpoints.stable_enumerate("gl", program)
    assert interval_expansion_count() - before == expansions
    box = fixpoints._supported_box(program)
    assert tested == [box.lower]
