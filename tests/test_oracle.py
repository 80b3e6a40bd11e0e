"""Brute-force oracles and the cross-verification report."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from itertools import combinations

import pytest

from aggsem import TooLargeError, gl_reduct, oracle, parse_program
from aggsem.oracle import (
    brute_bnd_truth,
    brute_bounds,
    brute_sat_mr,
    brute_sat_triv,
    brute_sat_ult,
    brute_sat_ult_upper,
    minimal_model_check,
    random_aggregate_atom,
    random_program,
    reduct_stable_models,
    ultimate_operator_bruteforce,
    verify_program,
)
from aggsem import sat3
from aggsem.ternary import SemanticsId, all_consistent_pairs

from .conftest import interp, pair
from .test_analysis import SIX_ATOMS, outcome, with_big_weights
from .test_eval2 import agg
from .test_oracle_tables import WIDE, own_pairs

ALL_TAGS = [sem.value for sem in SemanticsId]


# ---------------------------------------------------------------------------
# brute primitives
# ---------------------------------------------------------------------------


def test_brute_bounds_mixed_signs():
    bounds = brute_bounds(agg("sum", [(1, "p"), (-1, "q")], ">=", 0), pair(("p", "q"), (), ("p", "q")))
    assert (bounds.lb.value, bounds.ub.value) == (-1, 1)


def test_brute_bounds_empty_multiset():
    bounds = brute_bounds(agg("sum", [], ">", 0), pair(("p",), (), ("p",)))
    assert (bounds.lb.value, bounds.ub.value) == (0, 0)
    assert bounds.empty_certain


def test_brute_bounds_complementary():
    bounds = brute_bounds(agg("sum", [(1, "p"), (1, "~p")], "=", 1), pair(("p",), (), ("p",)))
    assert (bounds.lb.value, bounds.ub.value) == (1, 1)


def test_brute_sat_ult_universal_vs_existential():
    atom = agg("sum", [(1, "p"), (-1, "q")], ">=", 0)
    at = pair(("s", "p", "q"), (), ("s", "p", "q"))
    assert not brute_sat_ult(atom, at)
    assert brute_sat_ult_upper(atom, at)


def test_brute_sat_ult_exact_pair_matches_two_valued():
    atom = agg("card", [(1, "p")], ">=", 1)
    at = pair(("p", "q"), ("p",), ("p",))
    assert brute_sat_ult(atom, at)


def test_brute_sat_ult_fixed_true_condition():
    atom = agg("card", [(1, "p")], ">=", 1)
    assert brute_sat_ult(atom, pair(("p", "q"), ("p",), ("p", "q")))


def test_minimal_model_rejects_counterpart_reduct(nonconvex_loop_counterpart):
    i = interp(nonconvex_loop_counterpart.universe, ("p", "q", "s"))
    reduct = gl_reduct(nonconvex_loop_counterpart, i)
    # the empty set also models the reduct, so i is not minimal
    assert not minimal_model_check(reduct, i)


def test_minimal_model_accepts_fact():
    program = parse_program("p.")
    assert minimal_model_check(program, interp(("p",), "p"))


def test_minimal_model_empty_program():
    program = parse_program("#atoms p.")
    assert minimal_model_check(program, interp(("p",)))


def test_brute_caps():
    atoms = tuple(f"a{i}" for i in range(18))
    atom = agg("sum", [(1, a) for a in atoms], ">", 0)
    with pytest.raises(TooLargeError):
        brute_sat_ult(atom, pair(atoms, (), atoms))


# ---------------------------------------------------------------------------
# oracle agreement fuzz
# ---------------------------------------------------------------------------


def test_ult_agrees_with_unrestricted_brute():
    rng = random.Random(83)
    atoms = ("a", "b", "c", "d")
    pairs = all_consistent_pairs(atoms)
    for _ in range(150):
        atom = random_aggregate_atom(rng, atoms[: rng.randint(1, 4)])
        for p in rng.sample(pairs, 12):
            assert sat3("ult", atom, p) == brute_sat_ult(atom, p)


def test_mr_agrees_with_whole_lower_subsets():
    rng = random.Random(89)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(150):
        atom = random_aggregate_atom(rng, atoms)
        for p in pairs:
            assert sat3("mr", atom, p) == brute_sat_mr(atom, p)


def test_triv_agrees_with_definition_oracle():
    rng = random.Random(97)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(150):
        atom = random_aggregate_atom(rng, atoms)
        for p in pairs:
            assert sat3("triv", atom, p) == brute_sat_triv(atom, p)


def test_oracle_agreement_volume():
    """Ten thousand randomized (atom, pair) cases per semantics pairing."""
    from aggsem.bounds import bnd_truth
    from aggsem.oracle import brute_bnd_truth

    rng = random.Random(20240830)
    cases = 0
    while cases < 10_000:
        n = rng.choice((1, 2, 2, 2, 3))
        atoms = tuple(f"c{i}" for i in range(n))
        atom = random_aggregate_atom(rng, atoms, max_entries=4)
        for p in all_consistent_pairs(atoms):
            assert sat3("ult", atom, p) == brute_sat_ult(atom, p)
            assert sat3("triv", atom, p) == brute_sat_triv(atom, p)
            assert sat3("mr", atom, p) == brute_sat_mr(atom, p)
            assert bnd_truth(atom, p) == brute_bnd_truth(atom, p)
            cases += 1
    assert cases >= 10_000


# ---------------------------------------------------------------------------
# verify_program
# ---------------------------------------------------------------------------


def test_verify_three_rule_all_semantics(three_rule_sum):
    report = verify_program(
        three_rule_sum, ["triv", "gz", "ult", "lpst", "bnd", "mr", "flp", "ultimate"]
    )
    assert report.ok, report.mismatches[:3]
    assert all(
        [m.atoms for m in models] == [frozenset()]
        for models in report.stable_models.values()
    )


def test_verify_loop_program(nonconvex_loop):
    report = verify_program(nonconvex_loop, ["mr", "flp", "ult", "bnd"])
    assert report.ok, report.mismatches[:3]
    full = {"p", "q", "s"}
    assert [set(m.atoms) for m in report.stable_models["mr"]] == [full]
    assert [set(m.atoms) for m in report.stable_models["flp"]] == [full]
    assert report.stable_models["ult"] == []
    assert report.stable_models["bnd"] == []


def test_verify_tautology_pair(tautology_pair):
    report = verify_program(tautology_pair, ["ultimate", "ult"])
    assert report.ok
    assert [set(m.atoms) for m in report.stable_models["ultimate"]] == [{"p"}]
    assert report.stable_models["ult"] == []


def test_verify_samples_pairs_on_wide_universes(wide_aggregate):
    # above six atoms the pair scan switches to a seeded sample
    report = verify_program(wide_aggregate, ["bnd", "triv"], seed=5)
    assert report.ok
    assert report.checked > 800
    again = verify_program(wide_aggregate, ["bnd", "triv"], seed=5)
    assert again.checked == report.checked and again.mismatches == report.mismatches


def test_verify_enumerates_each_semantics_once(nonconvex_loop, monkeypatch):
    import aggsem.oracle as oracle_module

    calls = []
    enumerate_models = oracle_module.stable_enumerate

    def counting(sem, program, *args):
        calls.append(sem)
        return enumerate_models(sem, program, *args)

    monkeypatch.setattr(oracle_module, "stable_enumerate", counting)
    report = verify_program(nonconvex_loop, ["gz", "flp", "ult"])
    assert report.ok
    assert len(calls) == 3
    assert list(report.stable_models) == ["gz", "flp", "ult"]


def test_verify_describes_mismatches_as_before(nonconvex_loop, monkeypatch):
    """Main functions made wrong mismatch at every check, with the
    descriptors, main values and oracle values of this format: each
    aggregate atom at its own pairs, each head at the pairs of its
    bodies' atoms."""
    import aggsem.oracle as oracle_module

    program = nonconvex_loop
    universe = program.universe

    def complement(sem, of, p):
        # every head's membership wrong
        lower = ultimate_operator_bruteforce(of, p).lower
        return lower.with_atoms(set(universe) - lower.atoms)

    monkeypatch.setattr(oracle_module, "exact_bounds", lambda atom, p: "wrong bounds")
    monkeypatch.setattr(oracle_module, "sat3", lambda sem, atom, p: "wrong truth")
    monkeypatch.setattr(oracle_module, "stable_enumerate", lambda sem, program: ["wrong model"])
    monkeypatch.setattr(oracle_module, "lower_step", complement)
    report = verify_program(program, ["ult", "gz", "ultimate"])

    atoms = [(atom, own_pairs(program, atom.condition_atoms)) for atom in program.aggregate_atoms()]
    expected = [
        (f"bounds of {atom} at {p}", "wrong bounds", str(brute_bounds(atom, p)))
        for atom, pairs in atoms
        for p in pairs
    ]
    expected += [
        (f"ult: {atom} at {p}", "wrong truth", str(brute_sat_ult(atom, p)))
        for atom, pairs in atoms
        for p in pairs
    ]
    expected.append(
        (
            "stable models under gz: relation path vs reduct path",
            "['wrong model']",
            str([str(m) for m in reduct_stable_models("gz", program)]),
        )
    )
    for head, bodies in program.entries:
        for p in own_pairs(program, bodies.atoms):
            reference = head in ultimate_operator_bruteforce(program, p).lower
            expected.append(
                (f"most-precise lower operator: {head} at {p}", str(not reference), str(reference))
            )
    assert report.mismatches == expected
    assert (report.checked, report.skipped) == (len(expected), 0)
    # three aggregate atoms (bounds and ult) and three heads over 2, 1
    # and 1 atoms: 3^2 + 3 + 3 pairs each; one stable-model comparison
    assert len(expected) == 3 * (9 + 3 + 3) + 1


def test_verify_random_programs_have_no_mismatches():
    rng = random.Random(101)
    for _ in range(25):
        program = random_program(rng, max_atoms=4, max_rules=4)
        report = verify_program(
            program, ["triv", "gz", "ult", "lpst", "bnd", "mr", "flp", "ultimate"]
        )
        assert report.ok, (str(program), report.mismatches[:3])


# ---------------------------------------------------------------------------
# evaluations kept by verify at each formula's own pairs
# ---------------------------------------------------------------------------


def _recording_tables(monkeypatch):
    """The per-formula tables each `verify_program` call builds."""
    built = []

    class AtomTables(oracle._AtomTables):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class MostPreciseTable(oracle._MostPreciseTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(oracle, "_AtomTables", AtomTables)
    monkeypatch.setattr(oracle, "_MostPreciseTable", MostPreciseTable)
    return built


def test_kept_references_match_the_public_ones(monkeypatch):
    """Every entry of the per-formula tables a `verify_program` call
    builds, keeping each evaluation by whole interpretation, against the
    public references at each of the table's pairs: same value, or same
    error.  Then the whole report under every tag, gz and flp with the
    new programs their reducts make among them, with and without kept
    evaluations."""
    rng = random.Random(17)
    programs = [random_program(rng, max_atoms=6, max_rules=5) for _ in range(8)]
    assert max(len(p.universe) for p in programs) == 6
    seen = Counter()
    for program in programs:
        for variant in (program, with_big_weights(program)):
            universe = variant.universe
            with monkeypatch.context() as recording:
                built = _recording_tables(recording)
                report = outcome(lambda: verify_program(variant, ALL_TAGS))
            for tables in built:
                for p in tables.pairs.pairs(universe):
                    if isinstance(tables, oracle._AtomTables):
                        atom = tables.atom
                        assert tables.sat_ult(p) == brute_sat_ult(atom, p)
                        assert tables.sat_ult_upper(p) == brute_sat_ult_upper(atom, p)
                        assert tables.sat_mr(p) == brute_sat_mr(atom, p)
                        assert tables.sat_triv(p) == brute_sat_triv(atom, p)
                        assert tables.bnd_truth(p) == brute_bnd_truth(atom, p)
                        assert tables.bounds(p) == brute_bounds(atom, p)
                        seen["atom"] += 1
                        continue
                    expected = outcome(lambda: ultimate_operator_bruteforce(variant, p).lower)
                    assert outcome(lambda: tables.lower(p)) == expected, (str(variant), str(p))
                    seen["operator", isinstance(expected, tuple)] += 1
            with monkeypatch.context() as fresh:
                fresh.setattr(oracle, "_kept", lambda evaluate: evaluate)
                assert outcome(lambda: verify_program(variant, ALL_TAGS)) == report, str(variant)
            seen["report", isinstance(report, tuple)] += 1
    # atom entries, and values and errors (an overflow on a ±2^62
    # variant) of the operator and of the report
    assert len(seen) == 5, seen


def _counting_evaluations(monkeypatch, program):
    """Count `_brute_holds` calls per (atom, interpretation) and
    `_consequences` calls on `program` per interpretation."""
    holds, images = Counter(), Counter()
    brute_holds, consequences = oracle._brute_holds, oracle._consequences

    def counting_holds(atom, true_atoms):
        holds[atom, true_atoms] += 1
        return brute_holds(atom, true_atoms)

    def counting_consequences(of, true_atoms):
        if of is program:
            images[true_atoms] += 1
        return consequences(of, true_atoms)

    monkeypatch.setattr(oracle, "_brute_holds", counting_holds)
    monkeypatch.setattr(oracle, "_consequences", counting_consequences)
    return holds, images


def _own_interpretations(atoms):
    """The whole interpretations over `atoms`, every other atom false."""
    return {frozenset(c) for size in range(len(atoms) + 1) for c in combinations(atoms, size)}


def test_all_pairs_verify_evaluates_once_per_interpretation(monkeypatch):
    """Each aggregate atom's truth once at each interpretation over its
    condition atoms, and the consequences once at each interpretation
    over the atoms of some head's bodies."""
    program = parse_program(SIX_ATOMS)
    holds, images = _counting_evaluations(monkeypatch, program)
    assert verify_program(program, ALL_TAGS).ok
    over_heads = set().union(*(_own_interpretations(b.atoms) for _, b in program.entries))
    # {}, the six one-atom sets, {p, q}, and {a, b, s} with its subsets
    assert len(over_heads) == 1 + 6 + 1 + 3
    assert images == Counter(over_heads)
    assert holds == Counter(
        (a, z) for a in program.aggregate_atoms() for z in _own_interpretations(a.condition_atoms)
    )


def test_sampled_verify_keeps_nothing(monkeypatch):
    program = parse_program(WIDE)
    assert [len(b.atoms) for _, b in program.entries] == [oracle.ALL_PAIRS_ATOMS + 1]

    def no_keeping(evaluate):
        raise AssertionError("a sampled verify keeps evaluations")

    monkeypatch.setattr(oracle, "_kept", no_keeping)
    holds, images = _counting_evaluations(monkeypatch, program)
    assert verify_program(program, ["ult", "ultimate"]).ok
    assert max(holds.values()) > 1 and max(images.values()) > 1


# ---------------------------------------------------------------------------
# generator determinism
# ---------------------------------------------------------------------------


def test_generator_is_seed_reproducible():
    assert random_program(random.Random(7)) == random_program(random.Random(7))
    a = random_aggregate_atom(random.Random(3), ("x", "y"))
    b = random_aggregate_atom(random.Random(3), ("x", "y"))
    assert a == b


# seven atoms, so verify samples pairs; the 2^62 weights make some checks skip
SAMPLED = """
c :- not d. d :- not c.
h :- sum{4611686018427387904:a, 4611686018427387904:b, 1:c} >= 1.
g :- avg{-4611686018427387904:a, -4611686018427387904:b, -1:d} < 0.
k :- prod{4611686018427387904:a, 2:b, 0:c} = 0.
"""


def test_sampled_verify_depends_on_the_seed_alone(tmp_path):
    """The report is the same under two string hash seeds.  Every formula
    of this 7-atom program has at most three atoms, so `verify` checks
    each at its own pairs and samples none: this checks an own-pairs
    report, and `test_oracle_tables.py` the sampled pairs."""
    path = tmp_path / "seven.lp"
    path.write_text(SAMPLED, encoding="utf-8")
    src = str(Path(oracle.__file__).resolve().parent.parent)
    tags = "triv,gz,ult,lpst,bnd,mr,flp,ultimate"
    command = [sys.executable, "-m", "aggsem", "verify", str(path), "--semantics", tags]
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
        outputs.append((done.returncode, done.stdout, done.stderr))
    assert outputs[0] == outputs[1]
    assert "skipped: 0" not in outputs[0][1]
