"""Fixpoint engines: lower least fixpoints, stable checking/enumeration,
reducts, Kripke-Kleene and well-founded fixpoints, the brute-force most
precise approximator, and the cross-semantics lattice properties."""

import random

import pytest

from aggsem import (
    AggsemError,
    CapabilityError,
    InterpretationPair,
    Literal,
    TooLargeError,
    combine_rules_per_head,
    flp_reduct,
    gl_reduct,
    gz_reduct,
    kripke_kleene,
    lfp_lower,
    parse_program,
    stable_check,
    stable_enumerate,
    tp,
    ultimate_operator_bruteforce,
    well_founded,
)
from aggsem import fixpoints
from aggsem.fixpoints import lower_step
from aggsem.oracle import random_program, reduct_stable_models
from aggsem.ternary import SemanticsId, all_consistent_pairs

from .conftest import interp, pair


def models_as_sets(models):
    return [set(m.atoms) for m in models]


# ---------------------------------------------------------------------------
# lfp_lower
# ---------------------------------------------------------------------------


def test_lfp_mr_derives_loop(nonconvex_loop):
    y = interp(nonconvex_loop.universe, ("p", "q", "s"))
    assert lfp_lower("mr", nonconvex_loop, y).atoms == {"p", "q", "s"}


def test_lfp_mr_derivation_order(nonconvex_loop):
    """The witness-subset relation derives s first, then q, then p."""
    y = interp(nonconvex_loop.universe, ("p", "q", "s"))
    current = interp(nonconvex_loop.universe)
    seen = []
    while True:
        nxt = lower_step("mr", nonconvex_loop, InterpretationPair(current, y))
        if nxt.atoms == current.atoms:
            break
        seen.append(nxt.atoms - current.atoms)
        current = nxt
    assert seen == [{"s"}, {"q"}, {"p"}]


def test_lfp_ult_is_empty_on_loop(nonconvex_loop):
    y = interp(nonconvex_loop.universe, ("p", "q", "s"))
    assert lfp_lower("ult", nonconvex_loop, y).atoms == set()


def test_lfp_gl_positive_loop():
    program = parse_program("p :- p.  p :- q.  q :- p.")
    assert lfp_lower("gl", program, interp(program.universe)).atoms == set()


def test_lfp_rejects_flp(nonconvex_loop):
    with pytest.raises(CapabilityError, match="minimal-model"):
        lfp_lower("flp", nonconvex_loop, interp(nonconvex_loop.universe))


# ---------------------------------------------------------------------------
# stable_check
# ---------------------------------------------------------------------------


def test_tautology_stability(tautology_pair):
    p_only = interp(tautology_pair.universe, "p")
    empty = interp(tautology_pair.universe)
    assert stable_check("ultimate", tautology_pair, p_only)
    for sem in ("ult", "bnd", "triv", "gz", "lpst"):
        assert not stable_check(sem, tautology_pair, p_only)
        assert not stable_check(sem, tautology_pair, empty)


def test_loop_stability(nonconvex_loop):
    full = interp(nonconvex_loop.universe, ("p", "q", "s"))
    assert stable_check("mr", nonconvex_loop, full)
    assert stable_check("flp", nonconvex_loop, full)
    for sem in ("ult", "bnd", "triv", "gz", "ultimate"):
        assert not stable_check(sem, nonconvex_loop, full)


def test_gl_stability_on_counterpart(nonconvex_loop_counterpart):
    full = interp(nonconvex_loop_counterpart.universe, ("p", "q", "s"))
    assert not stable_check("gl", nonconvex_loop_counterpart, full)


def test_stable_check_rejects_unsupported(tautology_pair):
    # the empty set is not supported: the second rule fires
    assert not stable_check("ultimate", tautology_pair, interp(tautology_pair.universe))


@pytest.mark.parametrize("model", ["", "p", "q", "p,q"])
def test_gl_rejects_aggregates_before_the_support_test(model):
    # {p} and {q} are not supported, {} and {p, q} are
    program = parse_program("p :- sum{1:q} > 0. q :- p.")
    y = interp(program.universe, [a for a in model.split(",") if a])
    with pytest.raises(CapabilityError, match="gl handles aggregate-free programs only"):
        stable_check("gl", program, y)


# ---------------------------------------------------------------------------
# stable_enumerate
# ---------------------------------------------------------------------------


def test_enumerate_three_rule_program(three_rule_sum, three_rule_counterpart):
    assert models_as_sets(stable_enumerate("ult", three_rule_sum)) == [set()]
    assert models_as_sets(stable_enumerate("gl", three_rule_counterpart)) == [set()]


def test_enumerate_loop_under_bnd(nonconvex_loop):
    assert stable_enumerate("bnd", nonconvex_loop) == []


def test_enumerate_sorted_lexicographically():
    program = parse_program("a :- not b.  b :- not a.")
    models = stable_enumerate("gl", program)
    assert [m.sorted_atoms for m in models] == [("a",), ("b",)]


def test_enumerate_matches_unpruned_scan():
    """Pruning candidates to head-set subsets loses nothing."""
    rng = random.Random(41)
    for _ in range(60):
        program = random_program(rng, max_atoms=4, max_rules=4)
        for sem in ("triv", "ult", "bnd", "mr", "flp", "ultimate"):
            pruned = stable_enumerate(sem, program)
            universe = program.universe
            full = [
                candidate
                for mask in range(1 << len(universe))
                if stable_check(
                    sem,
                    program,
                    candidate := interp(
                        universe,
                        [a for bit, a in enumerate(universe) if mask >> bit & 1],
                    ),
                )
            ]
            assert models_as_sets(pruned) == models_as_sets(
                sorted(full, key=lambda m: m.sorted_atoms)
            )


def test_enumerate_universe_cap():
    atoms = ", ".join(f"a{i}" for i in range(21))
    program = parse_program(f"#atoms {atoms}.")
    with pytest.raises(TooLargeError):
        stable_enumerate("ult", program)


def _outcome(compute):
    """Models as sorted atom tuples, or the type and message of the error."""
    try:
        return [m.sorted_atoms for m in compute()]
    except AggsemError as error:
        return type(error), str(error)


def test_enumerate_box_matches_universe_scan_and_reducts():
    """The box search loses no model and raises no other error than a
    scan of every interpretation with stable_check, under every relation."""
    for seed in range(300):
        program = random_program(
            random.Random(seed),
            max_atoms=7,
            max_rules=6,
            aggregate_probability=0.0 if seed % 5 == 4 else 0.5,
        )
        universe = program.universe
        subsets = [
            interp(universe, [a for bit, a in enumerate(universe) if mask >> bit & 1])
            for mask in range(1 << len(universe))
        ]
        for sem in SemanticsId:
            found = _outcome(lambda: stable_enumerate(sem, program))
            scanned = _outcome(
                lambda: sorted(
                    (y for y in subsets if stable_check(sem, program, y)),
                    key=lambda m: m.sorted_atoms,
                )
            )
            assert found == scanned, (seed, sem)
            if sem in (SemanticsId.GZ, SemanticsId.FLP) or (
                sem is SemanticsId.GL and program.is_aggregate_free
            ):
                assert found == _outcome(lambda: reduct_stable_models(sem, program)), (seed, sem)


# a_i :- sum{1:a_{i-1}, 1:b_i} >= 1 with b_i, c_i an even loop: 13 atoms,
# 16 models; the box fixes every a_i, leaving 2^8 candidates of the 2^13
CHAIN_4 = "a0.\n" + "".join(
    f"a{i} :- sum{{1:a{i - 1}, 1:b{i}}} >= 1.\nb{i} :- not c{i}.\nc{i} :- not b{i}.\n"
    for i in range(1, 5)
)


@pytest.mark.parametrize("sem", [s.value for s in SemanticsId])
def test_enumerate_tests_only_candidates_in_the_box(monkeypatch, sem):
    tested = []
    check = fixpoints.stable_check

    def counting_check(sem, program, candidate):
        tested.append(candidate)
        return check(sem, program, candidate)

    monkeypatch.setattr(fixpoints, "stable_check", counting_check)
    program = parse_program(CHAIN_4)
    if sem == "gl":
        with pytest.raises(CapabilityError):
            stable_enumerate(sem, program)
    else:
        assert len(stable_enumerate(sem, program)) == 16
    assert 0 < len(tested) <= 2**8


# ---------------------------------------------------------------------------
# Reducts
# ---------------------------------------------------------------------------


def test_gl_reduct_of_counterpart(nonconvex_loop_counterpart):
    i = interp(nonconvex_loop_counterpart.universe, ("p", "q", "s"))
    reduct = gl_reduct(nonconvex_loop_counterpart, i)
    assert str(reduct) == "s :- p.\nq :- s.\np :- q."


def test_gl_reduct_keeps_positive_programs():
    program = parse_program("p :- q.  q.")
    assert gl_reduct(program, interp(program.universe)) == program


def test_gl_reduct_strips_false_negation():
    program = parse_program("p :- not p.")
    reduct = gl_reduct(program, interp(program.universe))
    assert str(reduct) == "p."


def test_gl_reduct_rejects_aggregates(nonconvex_loop):
    with pytest.raises(CapabilityError):
        gl_reduct(nonconvex_loop, interp(nonconvex_loop.universe))


def test_gz_reduct_projects_true_conditions():
    program = parse_program("p :- sum{1:q} > 0.")
    i = interp(program.universe, ("p", "q"))
    assert str(gz_reduct(program, i)) == "p :- q."


def test_gz_reduct_drops_false_aggregates():
    program = parse_program("p :- sum{1:q} > 0.")
    reduct = gz_reduct(program, interp(program.universe))
    assert reduct.rules == ()


def test_gz_reduct_two_phases_with_negation():
    program = parse_program("p :- card{1:q, 1:not r} >= 1.")
    reduct = gz_reduct(program, interp(program.universe, ("q",)))
    # phase 2 keeps q and not r; the classical phase strips not r (r outside i)
    assert [str(rule) for rule in reduct.rules] == ["p :- q."]
    assert reduct.universe == program.universe


def test_flp_reduct_keeps_loop_rules(nonconvex_loop):
    i = interp(nonconvex_loop.universe, ("p", "q", "s"))
    assert flp_reduct(nonconvex_loop, i) == nonconvex_loop


def test_flp_reduct_drops_unsatisfied_bodies():
    assert flp_reduct(parse_program("p :- not p."), interp(("p",), "p")).rules == ()
    program = parse_program("p :- sum{1:q} > 0.")
    assert flp_reduct(program, interp(program.universe)).rules == ()


# ---------------------------------------------------------------------------
# Kripke-Kleene and well-founded fixpoints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sem", [s for s in SemanticsId if not s.has_truth_function])
@pytest.mark.parametrize("text", ["a0.", "a0. a0 :- a1."])
def test_upper_step_needs_a_truth_function(sem, text):
    program = parse_program(text)
    least = InterpretationPair.least_precise(program.universe)
    with pytest.raises(CapabilityError, match="no three-valued truth function"):
        fixpoints.upper_step(sem, program, least)


@pytest.mark.parametrize("sem", [s for s in SemanticsId if not s.has_truth_function])
def test_upper_step_needs_a_truth_function_without_rules(sem):
    program = parse_program("#atoms a0.")
    least = InterpretationPair.least_precise(program.universe)
    with pytest.raises(CapabilityError, match="no three-valued truth function"):
        fixpoints.upper_step(sem, program, least)


def test_kk_classic_negation_loop():
    program = parse_program("p :- not q.  q :- not p.")
    result = kripke_kleene("gl", program)
    assert result.lower.atoms == set() and result.upper.atoms == {"p", "q"}


def test_kk_fact_is_exact():
    for sem in ("gl", "triv", "ult", "bnd"):
        program = parse_program("p.")
        result = kripke_kleene(sem, program)
        assert result.lower.atoms == result.upper.atoms == {"p"}


def test_kk_self_support_stays_undefined():
    program = parse_program("p :- sum{1:p} > 0.")
    result = kripke_kleene("ult", program)
    assert result.lower.atoms == set() and result.upper.atoms == {"p"}


def test_wf_unfounded_atom_is_false():
    result = well_founded("gl", parse_program("p :- p."))
    assert result.pair.lower.atoms == result.pair.upper.atoms == set()


def test_wf_negation_loop_stays_undefined():
    result = well_founded("gl", parse_program("p :- not q.  q :- not p."))
    assert result.pair.lower.atoms == set()
    assert result.pair.upper.atoms == {"p", "q"}


def test_wf_self_supporting_aggregate_is_false():
    result = well_founded("ult", parse_program("p :- sum{1:p} > 0."))
    assert result.pair.lower.atoms == result.pair.upper.atoms == set()


def test_wf_positive_chain_with_negation():
    program = parse_program("p.  q :- not p.  r :- q.")
    result = well_founded("gl", program)
    assert result.pair.lower.atoms == {"p"}
    assert result.pair.upper.atoms == {"p"}


def test_kk_wf_reject_semantics_without_truth_function(nonconvex_loop):
    for sem in ("mr", "flp", "gz", "lpst", "ultimate"):
        with pytest.raises(CapabilityError):
            kripke_kleene(sem, nonconvex_loop)
        with pytest.raises(CapabilityError):
            well_founded(sem, nonconvex_loop)


def test_wf_iteration_bound():
    rng = random.Random(43)
    for _ in range(100):
        program = random_program(rng, max_atoms=5)
        for sem in ("triv", "ult", "bnd"):
            result = well_founded(sem, program)
            assert result.iterations <= 2 * len(program.universe) + 2


def test_wf_matches_alternating_reduct_oracle():
    """The lattice-style engine agrees with the classical alternating
    reduct computation on aggregate-free programs."""
    from aggsem.oracle import alternating_reduct_wf

    rng = random.Random(109)
    for _ in range(200):
        program = random_program(rng, max_atoms=5, max_rules=6, aggregate_probability=0.0)
        engine = well_founded("gl", program).pair
        reference = alternating_reduct_wf(program)
        assert engine.lower.atoms == reference.lower.atoms, str(program)
        assert engine.upper.atoms == reference.upper.atoms, str(program)


def test_kk_refines_to_wf():
    rng = random.Random(44)
    from aggsem import leq_precision

    for _ in range(80):
        program = random_program(rng, max_atoms=5)
        for sem in ("triv", "ult", "bnd"):
            kk = kripke_kleene(sem, program)
            wf = well_founded(sem, program).pair
            assert leq_precision(kk, wf)


# ---------------------------------------------------------------------------
# Brute-force most precise approximator
# ---------------------------------------------------------------------------


def test_ultimate_bruteforce_tautology(tautology_pair):
    result = ultimate_operator_bruteforce(
        tautology_pair, InterpretationPair.least_precise(tautology_pair.universe)
    )
    assert result.lower.atoms == result.upper.atoms == {"p"}


def test_ultimate_bruteforce_exact_pair_is_tp(three_rule_sum):
    x = interp(three_rule_sum.universe, "q")
    result = ultimate_operator_bruteforce(three_rule_sum, InterpretationPair(x, x))
    expected = tp(three_rule_sum, x).atoms
    assert result.lower.atoms == result.upper.atoms == expected


def test_ultimate_bruteforce_three_rule(three_rule_sum):
    result = ultimate_operator_bruteforce(
        three_rule_sum, InterpretationPair.least_precise(three_rule_sum.universe)
    )
    assert result.lower.atoms == set()
    assert result.upper.atoms == {"p", "q"}


def test_ultimate_coherence_lower_operator():
    """The intersection component of the brute-force operator equals the
    disjunctive lower operator on one-rule-per-head programs."""
    rng = random.Random(47)
    for _ in range(40):
        program = random_program(rng, max_atoms=4, max_rules=4)
        combined = combine_rules_per_head(program)
        for p in all_consistent_pairs(program.universe):
            brute = ultimate_operator_bruteforce(program, p)
            assert lower_step("ultimate", combined, p).atoms == brute.lower.atoms


# ---------------------------------------------------------------------------
# Cross-semantics properties
# ---------------------------------------------------------------------------


def test_reduct_equals_relation_operator_gl():
    rng = random.Random(53)
    for _ in range(120):
        program = random_program(rng, max_atoms=4, aggregate_probability=0.0)
        universe = program.universe
        for imask in range(1 << len(universe)):
            i = interp(universe, [a for b, a in enumerate(universe) if imask >> b & 1])
            reduct = gl_reduct(program, i)
            members = tuple(i)
            for jmask in range(1 << len(members)):
                j = interp(universe, [a for b, a in enumerate(members) if jmask >> b & 1])
                assert tp(reduct, j).atoms == lower_step(
                    "gl", program, InterpretationPair(j, i)
                ).atoms


def test_gz_two_paths_agree():
    rng = random.Random(59)
    for _ in range(80):
        program = random_program(rng, max_atoms=4, max_rules=5)
        assert models_as_sets(stable_enumerate("gz", program)) == models_as_sets(
            reduct_stable_models("gz", program)
        )


def test_flp_two_paths_agree():
    rng = random.Random(61)
    for _ in range(80):
        program = random_program(rng, max_atoms=4, max_rules=5)
        assert models_as_sets(stable_enumerate("flp", program)) == models_as_sets(
            reduct_stable_models("flp", program)
        )


def test_gl_two_paths_agree():
    rng = random.Random(67)
    for _ in range(80):
        program = random_program(rng, max_atoms=4, max_rules=5, aggregate_probability=0.0)
        assert models_as_sets(stable_enumerate("gl", program)) == models_as_sets(
            reduct_stable_models("gl", program)
        )


PRECISION_CHAIN = [
    (SemanticsId.TRIV, SemanticsId.BND),
    (SemanticsId.BND, SemanticsId.ULT),
    (SemanticsId.TRIV, SemanticsId.ULT),
    (SemanticsId.ULT, SemanticsId.ULTIMATE),
    (SemanticsId.TRIV, SemanticsId.ULTIMATE),
]


def test_precision_implies_stable_inclusion():
    rng = random.Random(71)
    for _ in range(150):
        program = random_program(rng, max_atoms=4, max_rules=4)
        models = {
            sem: models_as_sets(stable_enumerate(sem, program))
            for sem in ("triv", "bnd", "ult", "ultimate")
        }
        for less, more in PRECISION_CHAIN:
            for m in models[less.value]:
                assert m in models[more.value], (str(program), less.value, more.value)


def test_wf_approximates_every_stable_model():
    rng = random.Random(73)
    for _ in range(150):
        program = random_program(rng, max_atoms=4, max_rules=4)
        for sem in ("triv", "ult", "bnd"):
            wf = well_founded(sem, program).pair
            for model in stable_enumerate(sem, program):
                assert wf.lower.atoms <= model.atoms <= wf.upper.atoms


def _rewrite_literal(lit: Literal):
    from .test_eval2 import agg

    if lit.negated:
        return agg("sum", [(1, lit.atom)], "<", 1)
    return agg("sum", [(1, lit.atom)], ">", 0)


def test_rewriting_invariance():
    """Replacing literals by their sum forms preserves stable models."""
    from aggsem import Program, Rule

    rng = random.Random(79)
    for _ in range(100):
        program = random_program(rng, max_atoms=4, max_rules=4, aggregate_probability=0.0)
        rewritten = Program(
            tuple(
                Rule(rule.head, tuple(_rewrite_literal(lit) for lit in rule.body))
                for rule in program.rules
            ),
            program.universe,
        )
        baseline = models_as_sets(stable_enumerate("gl", program))
        for sem in ("triv", "ult", "bnd", "gz"):
            assert models_as_sets(stable_enumerate(sem, rewritten)) == baseline
            assert models_as_sets(stable_enumerate(sem, program)) == baseline


def test_rewriting_preserves_kk_and_wf():
    """The sum forms of literals have the same three-valued truth as the
    literals themselves, so the whole approximator (not just the stable
    models) is unchanged: Kripke-Kleene and well-founded fixpoints of the
    rewritten program match the classic ones of the original."""
    from aggsem import Program, Rule

    rng = random.Random(113)
    for _ in range(100):
        program = random_program(rng, max_atoms=5, max_rules=5, aggregate_probability=0.0)
        rewritten = Program(
            tuple(
                Rule(rule.head, tuple(_rewrite_literal(lit) for lit in rule.body))
                for rule in program.rules
            ),
            program.universe,
        )
        kk_baseline = kripke_kleene("gl", program)
        wf_baseline = well_founded("gl", program).pair
        for sem in ("triv", "ult", "bnd"):
            assert kripke_kleene(sem, rewritten) == kk_baseline
            assert well_founded(sem, rewritten).pair == wf_baseline


def test_exact_wf_is_the_unique_stable_model():
    """Whenever the well-founded fixpoint is exact, its value is a stable
    model and the only one."""
    rng = random.Random(127)
    exact_seen = 0
    for _ in range(300):
        program = random_program(rng, max_atoms=4, max_rules=4, max_body=2)
        for sem in ("triv", "ult", "bnd"):
            wf = well_founded(sem, program).pair
            if wf.lower.atoms != wf.upper.atoms:
                continue
            exact_seen += 1
            assert stable_check(sem, program, wf.lower)
            assert models_as_sets(stable_enumerate(sem, program)) == [set(wf.lower.atoms)]
    assert exact_seen > 50  # the corpus actually exercises the property


def test_conjunction_rewriting_invariance():
    """Merging two positive literals into one 2-entry sum atom preserves
    stable models."""
    from .test_eval2 import agg as mk

    for text in (
        "h :- p, q.  p :- not q.  q.",
        "h :- p, q.  p.  q :- p.",
        "h :- p, q.  p :- h, q.  q :- not r.  r :- not q.",
    ):
        program = parse_program(text)
        from aggsem import Program, Rule

        first = program.rules[0]
        merged = mk("sum", [(1, "p"), (1, "q")], ">", 1)
        rewritten = Program(
            (Rule(first.head, (merged,)),) + program.rules[1:], program.universe
        )
        baseline = models_as_sets(stable_enumerate("gl", program))
        for sem in ("triv", "ult", "bnd", "gz"):
            assert models_as_sets(stable_enumerate(sem, rewritten)) == baseline
