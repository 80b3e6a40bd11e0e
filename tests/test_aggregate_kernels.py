"""The per-atom two-valued evaluators and the `bnd` hull against the paths
they replace: `eval_aggregate` against the oracle's own evaluation, which
has the main path's int64 checks and messages, and `bnd_truth` against
its former formula on `exact_bounds`.  Outcomes match as values or as an
error type and message.  Stable search builds no value objects."""

import pickle
import random

import pytest

from aggsem import ArithmeticOverflowError, CapabilityError, oracle, parse_program
from aggsem.bounds import Bounds, bnd_truth, exact_bounds, interval_truth
from aggsem.eval2 import AggValue, eval_aggregate, sat2, sat2_disjunction, sat2_element
from aggsem.fixpoints import stable_enumerate
from aggsem.interp import Interpretation, InterpretationPair
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import SemanticsId, all_consistent_pairs
from aggsem.truth import TruthValue

from .conftest import PROGRAMS_DIR

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64
SMALL = (0, 1, -1, 3, -3)
WIDE = SMALL + (HALF, -HALF, HALF - 1)


def _outcome(fn):
    try:
        return ("ok", fn())
    except ArithmeticOverflowError as exc:
        return (type(exc).__name__, str(exc))


def _aggregates(universe, seed):
    """Every function and comparison, four times each with small and with
    wide weights; "u" lies outside the universe, so its conditions never
    vary."""
    rng = random.Random(seed)
    atoms = universe + ("u",)
    found = []
    for func in AggFunc:
        for cmp in Comparison:
            for weights in (SMALL, WIDE) * 4:
                entries = tuple(
                    (rng.choice(weights), Literal(rng.choice(atoms), rng.random() < 0.3))
                    for _ in range(rng.randint(0, 7))
                )
                found.append(AggregateAtom(func, entries, cmp, rng.choice(weights)))
    return found


def _subsets(universe):
    return [
        frozenset(a for bit, a in enumerate(universe) if mask >> bit & 1)
        for mask in range(1 << len(universe))
    ]


def test_evaluator_matches_the_oracle_evaluation():
    """Each atom, and its unpickled copy, is evaluated over the universe
    and over one that orders the same atoms differently, alternately, so
    its evaluator is built again for each call; and `sat2_element` of the
    atom over the universe."""
    universe = ("s", "q", "t", "p", "r")
    reordered = ("r", "t", "s", "p", "q")
    seen = {}
    for atom in _aggregates(universe, 1501):
        copy = pickle.loads(pickle.dumps(atom))
        for atoms in _subsets(universe):
            expected = _outcome(lambda: oracle._element_holds(atom, atoms))
            for evaluated, order in ((atom, universe), (atom, reordered), (copy, reordered)):
                i = Interpretation.of(order, atoms)
                ours = _outcome(lambda: eval_aggregate(evaluated, i))
                assert ours == expected, f"{atom} at {i}"
            i = Interpretation.of(universe, atoms)
            assert _outcome(lambda: sat2_element(atom, i)) == expected, f"{atom} at {i}"
            seen.setdefault(atom.func, set()).add(expected[0])
    for func in (AggFunc.SUM, AggFunc.PROD, AggFunc.AVG):
        assert seen[func] == {"ok", "ArithmeticOverflowError"}, func
    for func in (AggFunc.CARD, AggFunc.MIN, AggFunc.MAX):
        assert seen[func] == {"ok"}, func  # no value to overflow


def test_prod_checks_every_factor_in_entry_order():
    # the first two factors leave the range, though the product is 0
    atom = parse_program(f"h :- prod{{{HALF}:p, 2:q, 0:r}} = 0.").rules[0].body[0]
    i = Interpretation.of(("h", "p", "q", "r"), "pqr")
    with pytest.raises(ArithmeticOverflowError, match="product 9223372036854775808"):
        eval_aggregate(atom, i)
    assert eval_aggregate(atom, i.difference("p")) is True


def test_body_is_evaluated_left_to_right():
    program = parse_program(f"h :- q, sum{{{HALF}:p, {HALF}:q}} >= 1.")
    body = program.rules[0].body
    i = Interpretation.of(program.universe, "p")
    # the false literal comes first, so the overflowing sum is never evaluated
    assert sat2(body, i) is False
    assert sat2_disjunction((body,), i) is False
    with pytest.raises(ArithmeticOverflowError, match="sum 9223372036854775808"):
        sat2(body, i.union("q"))


def test_evaluated_atom_pickles():
    atom = _aggregates(("p", "q"), 7)[0]
    eval_aggregate(atom, Interpretation.of(("p", "q")))
    copy = pickle.loads(pickle.dumps(atom))
    assert copy == atom
    assert eval_aggregate(copy, Interpretation.of(("p", "q"), "p")) == eval_aggregate(
        atom, Interpretation.of(("p", "q"), "p")
    )


def reference_bnd_truth(atom, pair):
    """`bnd_truth` as it read the value objects of `exact_bounds`."""
    pair.require_consistent()
    if atom.func in (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG):
        return interval_truth(atom, pair)
    bounds = exact_bounds(atom, pair)
    lb, ub, w = bounds.lb.value, bounds.ub.value, atom.bound
    cmp, holds = atom.cmp, atom.cmp.holds
    outside = w < lb or w > ub
    forced = outside if cmp is Comparison.NE else holds(lb, w) and holds(ub, w)
    refuted = outside if cmp is Comparison.EQ else not (holds(lb, w) or holds(ub, w))
    if forced:
        return TruthValue.TRUE
    if refuted:
        return TruthValue.FALSE
    return TruthValue.UNDEFINED


def test_bnd_truth_matches_the_exact_bounds_reference():
    universe = ("s", "q", "p", "r")
    pairs = all_consistent_pairs(universe)
    seen = {}
    for atom in _aggregates(universe, 1502):
        for pair in pairs:
            ours = _outcome(lambda: bnd_truth(atom, pair))
            assert ours == _outcome(lambda: reference_bnd_truth(atom, pair)), f"{atom} at {pair}"
            seen.setdefault(atom.func, set()).add(ours[0])
    for func in (AggFunc.SUM, AggFunc.PROD):
        assert seen[func] == {"ok", "ArithmeticOverflowError"}, func


CHAIN3 = "a0.\n" + "".join(
    f"a{i} :- sum{{1:a{i - 1}, 1:b{i}}} >= 1.\nb{i} :- not c{i}.\nc{i} :- not b{i}.\n"
    for i in range(1, 4)
)


def _counting(init, built):
    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    return counted


def test_stable_search_builds_no_value_objects(monkeypatch):
    built = []
    for cls in (AggValue, Bounds):
        monkeypatch.setattr(cls, "__init__", _counting(cls.__init__, built))
    # the count sees a construction
    atom = parse_program("h :- sum{1:p} > 0.").rules[0].body[0]
    exact_bounds(atom, InterpretationPair.least_precise(("h", "p")))
    assert sorted(built) == ["AggValue", "AggValue", "Bounds"]
    built.clear()

    texts = [
        path.read_text(encoding="utf-8")
        for path in sorted(PROGRAMS_DIR.glob("*.lp"))
        if path.name != "wide_aggregate_18.lp"
    ]
    rng = random.Random(1503)
    programs = [parse_program(text) for text in texts + [CHAIN3]]
    programs += [oracle.random_program(rng, max_atoms=5) for _ in range(30)]
    assert len(programs) == 37
    answered = 0
    for program in programs:
        for sem in SemanticsId:
            try:
                stable_enumerate(sem, program)
            except (CapabilityError, ArithmeticOverflowError):
                continue
            answered += 1
    assert answered > 200
    assert built == []

