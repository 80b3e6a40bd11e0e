"""Ternary satisfaction relations, truth functions, well-behavedness,
precision comparison and convexity."""

import random
from itertools import product

import pytest

from aggsem import (
    CapabilityError,
    Literal,
    compare_precision,
    check_well_behaved,
    is_convex,
    parse_program,
    sat3,
    sat3_body,
    truth3,
    truth3_body,
)
from aggsem.eval2 import literal_holds, sat2_element
from aggsem.oracle import random_aggregate_atom
from aggsem.ternary import PrecisionOrder, SemanticsId, all_consistent_pairs, sat3_upper
from aggsem.truth import TruthValue

from .conftest import interp, pair
from .test_eval2 import agg

T, U, F = TruthValue.TRUE, TruthValue.UNDEFINED, TruthValue.FALSE

LOOP_UNIVERSE = ("s", "p", "q")
LOOP_AGG = agg("sum", [(1, "p"), (-1, "q")], ">=", 0)

COMPOSITIONAL = [
    SemanticsId.TRIV,
    SemanticsId.GZ,
    SemanticsId.ULT,
    SemanticsId.LPST,
    SemanticsId.BND,
    SemanticsId.MR,
    SemanticsId.FLP,
]


# ---------------------------------------------------------------------------
# sat3 on the flagship aggregate
# ---------------------------------------------------------------------------


def test_mr_accepts_least_precise_pair():
    assert sat3("mr", LOOP_AGG, pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE))


def test_mr_rejects_refined_pair():
    assert not sat3("mr", LOOP_AGG, pair(LOOP_UNIVERSE, (), "q"))


def test_ult_rejects_least_precise_pair():
    # the interval member {q} gives -1 < 0
    assert not sat3("ult", LOOP_AGG, pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE))


def test_flp_rejects_lower_failure():
    assert not sat3("flp", LOOP_AGG, pair(LOOP_UNIVERSE, ("q",), LOOP_UNIVERSE))


def test_flp_accepts_when_both_ends_satisfy():
    assert sat3("flp", LOOP_AGG, pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE))


def test_triv_ignores_non_condition_atoms():
    a = agg("sum", [(1, "q")], ">", 0)
    assert sat3("triv", a, pair(("q", "p"), ("q",), ("q", "p")))


def test_triv_requires_decided_conditions():
    a = agg("sum", [(1, "q")], ">=", 0)
    assert not sat3("triv", a, pair(("q",), (), ("q",)))


def test_gz_requires_true_conditions_in_lower():
    a = agg("sum", [(1, "q")], ">", 0)
    assert not sat3("gz", a, pair(("q",), (), ("q",)))
    assert sat3("gz", a, pair(("q",), ("q",), ("q",)))


def test_lpst_matches_ult_pointwise():
    rng = random.Random(11)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(100):
        atom = random_aggregate_atom(rng, atoms)
        for p in pairs:
            assert sat3("lpst", atom, p) == sat3("ult", atom, p)


def test_literals_follow_lower_upper_reads():
    at = pair(("a", "b"), ("a",), ("a", "b"))
    for sem in COMPOSITIONAL:
        assert sat3(sem, Literal("a"), at)
        assert not sat3(sem, Literal("b"), at)  # undefined atom is not certain
        assert not sat3(sem, Literal("a", negated=True), at)
        assert not sat3(sem, Literal("b", negated=True), at)  # still possibly true


@pytest.mark.parametrize("sem", [s for s in SemanticsId if s is not SemanticsId.ULTIMATE])
def test_literals_hold_in_lower_and_in_upper(sem):
    # on a consistent pair the shared literal rule is double satisfaction
    atoms = ("a", "b")
    for p in all_consistent_pairs(atoms):
        for lit in (Literal(a, negated) for a in atoms for negated in (False, True)):
            expected = literal_holds(lit, p.lower) and literal_holds(lit, p.upper)
            assert sat3(sem, lit, p) == expected, (str(lit), str(p))


def test_sat3_rejects_gl_on_aggregates():
    with pytest.raises(CapabilityError):
        sat3("gl", LOOP_AGG, pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE))


def test_sat3_rejects_ultimate_elements():
    with pytest.raises(CapabilityError):
        sat3("ultimate", LOOP_AGG, pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE))


def test_sat3_rejects_inconsistent_pairs():
    from aggsem import InconsistentPairError, Interpretation, InterpretationPair

    bad = InterpretationPair(Interpretation.of(("a",), "a"), Interpretation.of(("a",)))
    with pytest.raises(InconsistentPairError):
        sat3("ult", Literal("a"), bad)


# ---------------------------------------------------------------------------
# sat3_body
# ---------------------------------------------------------------------------


def test_ultimate_recognizes_tautological_disjunction(tautology_pair):
    bodies = tuple(rule.body for rule in tautology_pair.rules)
    at = pair(("p",), (), ("p",))
    assert sat3_body("ultimate", bodies, at)
    for body in bodies:
        assert not sat3_body("ult", body, at)


def test_gl_body_on_exact_pair_is_two_valued():
    body = (Literal("q"), Literal("r", negated=True))
    assert sat3_body("gl", body, pair(("q", "r"), ("q",), ("q",)))


# ---------------------------------------------------------------------------
# truth3
# ---------------------------------------------------------------------------


def test_truth3_ult_undefined_when_interval_splits():
    assert truth3("ult", agg("sum", [(1, "p"), (-1, "q")], ">=", 0), pair(("p", "q"), (), ("p", "q"))) is U


def test_truth3_kleene_negative_literal():
    assert truth3("gl", Literal("r", negated=True), pair(("r",), (), ("r",))) is U


def test_truth3_bnd_forced():
    assert truth3("bnd", agg("sum", [(1, "p"), (1, "~p")], "=", 1), pair(("p",), (), ("p",))) is T


def test_truth3_body_kleene_conjunction():
    body = (Literal("a"), Literal("b", negated=True))
    assert truth3_body("gl", body, pair(("a", "b"), ("a", "b"), ("a", "b"))) is F
    assert truth3_body("gl", body, pair(("a", "b"), ("a",), ("a", "b"))) is U
    assert truth3_body("gl", body, pair(("a", "b"), ("a",), ("a",))) is T


def test_truth3_rejects_semantics_without_truth_function():
    for sem in ("mr", "flp", "gz", "lpst", "ultimate"):
        with pytest.raises(CapabilityError):
            truth3(sem, Literal("a"), pair(("a",), (), ("a",)))


# ---------------------------------------------------------------------------
# Coherence of derived relations
# ---------------------------------------------------------------------------


def test_sat3_and_upper_derive_from_truth3():
    rng = random.Random(13)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(80):
        atom = random_aggregate_atom(rng, atoms)
        for sem in ("triv", "ult", "bnd"):
            for p in pairs:
                value = truth3(sem, atom, p)
                assert sat3(sem, atom, p) == (value is T)
                assert sat3_upper(sem, atom, p) == (value is not F)


# ---------------------------------------------------------------------------
# Well-behavedness
# ---------------------------------------------------------------------------


def test_well_behaved_relations_hold_on_loop_program(nonconvex_loop):
    for sem in ("gl", "triv", "gz", "ult", "lpst", "bnd", "ultimate"):
        source = (
            nonconvex_loop
            if sem != "gl"
            else parse_program("s :- p.  q :- s.  s :- not q.  p :- q.")
        )
        assert check_well_behaved(sem, source).holds, sem


def test_mr_flp_fail_with_flagship_counterexample(nonconvex_loop):
    for sem in ("mr", "flp"):
        report = check_well_behaved(sem, nonconvex_loop)
        assert not report.holds
        ce = report.counterexample
        assert ce.kind == "monotone"
        assert ce.formula == LOOP_AGG
        assert ce.pair == pair(LOOP_UNIVERSE, (), LOOP_UNIVERSE)
        assert ce.refined == pair(LOOP_UNIVERSE, (), "q")
        # re-verify the counterexample against the relation itself
        assert sat3(sem, ce.formula, ce.pair)
        assert not sat3(sem, ce.formula, ce.refined)


def test_well_behavedness_of_truth_function_transfers_to_relation():
    """If the truth function passes its two conditions on a universe, the
    derived satisfaction relation passes the relation-level check."""
    rng = random.Random(17)
    atoms = ("a", "b")
    pairs = all_consistent_pairs(atoms)
    from aggsem import eval_aggregate, leq_precision

    for _ in range(60):
        atom = random_aggregate_atom(rng, atoms)
        for sem in ("triv", "ult", "bnd"):
            for p in pairs:
                if p.is_exact:
                    assert truth3(sem, atom, p) == TruthValue.from_bool(
                        eval_aggregate(atom, p.lower)
                    )
            for a in pairs:
                for b in pairs:
                    if leq_precision(a, b):
                        assert truth3(sem, atom, a).leq_precision(truth3(sem, atom, b))
            assert check_well_behaved(sem, [atom]).holds


def test_all_relations_extend_two_valued_satisfaction():
    rng = random.Random(19)
    atoms = ("a", "b", "c")
    subsets = [
        interp(atoms, [a for bit, a in enumerate(atoms) if mask >> bit & 1])
        for mask in range(8)
    ]
    for _ in range(80):
        atom = random_aggregate_atom(rng, atoms)
        for sem in COMPOSITIONAL:
            for x in subsets:
                from aggsem import InterpretationPair

                assert sat3(sem, atom, InterpretationPair(x, x)) == sat2_element(atom, x)


def test_mr_satisfies_weaker_lower_monotonicity():
    rng = random.Random(23)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(80):
        atom = random_aggregate_atom(rng, atoms)
        for p in pairs:
            if not sat3("mr", atom, p):
                continue
            for extra in p.undefined_atoms():
                grown = pair(atoms, p.lower.atoms | {extra}, p.upper.atoms)
                assert sat3("mr", atom, grown)


def test_convex_atoms_collapse_mr_flp_ult():
    rng = random.Random(29)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    checked = 0
    while checked < 60:
        atom = random_aggregate_atom(rng, atoms)
        if not is_convex(atom):
            continue
        checked += 1
        for p in pairs:
            expected = sat3("ult", atom, p)
            assert sat3("mr", atom, p) == expected
            assert sat3("flp", atom, p) == expected


# ---------------------------------------------------------------------------
# Precision comparison
# ---------------------------------------------------------------------------


def test_precision_triv_below_ult(nonconvex_loop):
    result = compare_precision("triv", "ult", nonconvex_loop)
    assert result.order is PrecisionOrder.FIRST_LESS_PRECISE
    element, witness = result.only_second
    assert sat3("ult", element, witness) and not sat3("triv", element, witness)


def test_precision_ult_equals_lpst(nonconvex_loop):
    assert compare_precision("ult", "lpst", nonconvex_loop).order is PrecisionOrder.EQUAL


def test_precision_flp_below_mr(nonconvex_loop):
    assert (
        compare_precision("flp", "mr", nonconvex_loop).order
        is PrecisionOrder.FIRST_LESS_PRECISE
    )


def test_precision_gz_equals_triv_on_positive_conditions(nonconvex_loop):
    assert compare_precision("gz", "triv", nonconvex_loop).order is PrecisionOrder.EQUAL


def test_precision_bnd_strictly_below_ult(bounds_gap):
    assert (
        compare_precision("bnd", "ult", bounds_gap).order
        is PrecisionOrder.FIRST_LESS_PRECISE
    )


def test_precision_gz_ult_incomparable():
    program = parse_program("h :- sum{1:not q} < 1.  h :- sum{1:p} >= 0.")
    assert compare_precision("gz", "ult", program).order is PrecisionOrder.INCOMPARABLE


def test_precision_rejects_ultimate(nonconvex_loop):
    with pytest.raises(CapabilityError):
        compare_precision("ultimate", "ult", nonconvex_loop)


# ---------------------------------------------------------------------------
# The reduct-projection relation on negated conditions (documented gap)
# ---------------------------------------------------------------------------


def test_gz_diverges_from_triv_on_negated_conditions():
    """With negated conditions, gz is strictly more permissive than triv:
    a condition false in the upper set constrains gz not at all."""
    atom = agg("sum", [(1, "~q"), (1, "r")], ">=", 1)
    witness = pair(("q", "r"), ("r",), ("q", "r"))
    assert sat3("gz", atom, witness)
    assert not sat3("triv", atom, witness)
    program = parse_program("h :- sum{1:not q, 1:r} >= 1.")
    assert (
        compare_precision("gz", "triv", program).order
        is PrecisionOrder.SECOND_LESS_PRECISE
    )


def test_gz_not_monotone_on_negated_conditions():
    report = check_well_behaved("gz", parse_program("h :- sum{1:not q} < 1."))
    assert not report.holds
    assert report.counterexample.kind == "monotone"


def test_triv_implies_gz_everywhere():
    rng = random.Random(31)
    atoms = ("a", "b", "c")
    pairs = all_consistent_pairs(atoms)
    for _ in range(100):
        atom = random_aggregate_atom(rng, atoms, negative_conditions=True)
        for p in pairs:
            if sat3("triv", atom, p):
                assert sat3("gz", atom, p)


# ---------------------------------------------------------------------------
# Convexity
# ---------------------------------------------------------------------------


def test_card_at_least_is_convex():
    assert is_convex(agg("card", [(1, "p"), (1, "q")], ">=", 1))


def test_mixed_sign_sum_is_not_convex():
    assert not is_convex(agg("sum", [(1, "p"), (-1, "q")], ">=", 0))


def test_single_condition_inequality_is_convex():
    assert is_convex(agg("sum", [(1, "p")], "!=", 0))


def test_is_convex_matches_chain_definition():
    rng = random.Random(37)
    atoms = ("a", "b", "c")
    subsets = [frozenset(c) for r in range(4) for c in _combinations(atoms, r)]
    from aggsem import eval_aggregate

    for _ in range(120):
        atom = random_aggregate_atom(rng, atoms)
        sat = {
            s: eval_aggregate(atom, interp(atoms, s)) for s in subsets
        }
        chain_convex = all(
            not (sat[x] and sat[z] and not sat[y])
            for x, y, z in product(subsets, repeat=3)
            if x <= y <= z
        )
        assert is_convex(atom) == chain_convex, str(atom)


def _combinations(atoms, r):
    from itertools import combinations

    return combinations(atoms, r)


def test_is_convex_condition_atom_cap():
    from aggsem import TooLargeError

    atoms = [f"a{i}" for i in range(17)]
    atom = agg("sum", [(1, a) for a in atoms], ">", 0)
    with pytest.raises(TooLargeError):
        is_convex(atom)


# ---------------------------------------------------------------------------
# Identifier capabilities and truth-value orders
# ---------------------------------------------------------------------------


def test_semantics_capability_flags():
    truth = {s for s in SemanticsId if s.has_truth_function}
    assert truth == {SemanticsId.GL, SemanticsId.TRIV, SemanticsId.ULT, SemanticsId.BND}
    claimed = {s for s in SemanticsId if s.is_well_behaved_claimed}
    assert claimed == set(SemanticsId) - {SemanticsId.MR, SemanticsId.FLP}
    monotone = {s for s in SemanticsId if s.monotone_lower_operator}
    assert monotone == set(SemanticsId) - {SemanticsId.FLP}
    with pytest.raises(CapabilityError, match="unknown semantics"):
        SemanticsId.from_tag("nope")


def test_truth_value_orders():
    assert F.leq_truth(U) and U.leq_truth(T) and not T.leq_truth(U)
    assert U.leq_precision(T) and U.leq_precision(F)
    assert not T.leq_precision(F) and not F.leq_precision(T)
    assert T.leq_precision(T) and F.leq_precision(F)
