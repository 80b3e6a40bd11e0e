"""The interval sweep behind `ult` (`bounds.interval_truth` and
`eval2.aggregate_holds_everywhere`) against a reference that evaluates
`eval_aggregate` at each `enumerate_interval` member in order: the same
answer, or the same error type and message, at every pair."""

import random

import aggsem.eval2 as eval2
from aggsem import ArithmeticOverflowError, InconsistentPairError
from aggsem.bounds import interval_truth
from aggsem.eval2 import aggregate_holds_everywhere, eval_aggregate
from aggsem.interp import InterpretationPair, enumerate_interval, interval_expansion_count
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs
from aggsem.truth import TruthValue

HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64
UNIVERSE = ("s", "q", "t", "p", "r")  # not sorted, so universe order is not name order


def _members(atom, pair):
    return enumerate_interval(pair.lower, pair.upper, restrict=frozenset(atom.condition_atoms))


def reference_interval_truth(atom, pair):
    values = (eval_aggregate(atom, z) for z in _members(atom, pair))
    first = next(values)
    if any(value != first for value in values):
        return TruthValue.UNDEFINED
    return TruthValue.from_bool(first)


def reference_holds_everywhere(atom, pair):
    pair.require_consistent()
    return all(eval_aggregate(atom, z) for z in _members(atom, pair))


def _outcome(fn):
    try:
        return ("ok", fn())
    except (ArithmeticOverflowError, InconsistentPairError) as exc:
        return (type(exc).__name__, str(exc))


def _random_aggregate(rng, func, wide):
    weights = (HALF, HALF, -HALF, -HALF, HALF - 1, 1, 0) if wide else (-3, -1, 0, 1, 2, 5)
    # "u" is outside the universe, so its conditions never vary
    atoms = UNIVERSE + ("u",)
    entries = tuple(
        (rng.choice(weights), Literal(rng.choice(atoms), rng.random() < 0.3))
        for _ in range(rng.randint(0, 7))
    )
    bounds = (0, 1, -1, HALF, -HALF) if wide else (-2, -1, 0, 1, 2, 3)
    return AggregateAtom(func, entries, rng.choice(list(Comparison)), rng.choice(bounds))


def _aggregates():
    rng = random.Random(1207)
    return [
        _random_aggregate(rng, func, wide)
        for _ in range(12)
        for func in AggFunc
        for wide in (False, True)
    ]


def test_sweep_matches_member_reference():
    pairs = all_consistent_pairs(UNIVERSE)
    seen = {}
    for atom in _aggregates():
        for pair in pairs:
            for name, main, reference in (
                ("interval_truth", interval_truth, reference_interval_truth),
                ("holds_everywhere", aggregate_holds_everywhere, reference_holds_everywhere),
            ):
                before = interval_expansion_count()
                ours = _outcome(lambda: main(atom, pair))
                assert interval_expansion_count() == before + 1, (name, atom, pair)
                assert ours == _outcome(lambda: reference(atom, pair)), (name, f"{atom} at {pair}")
                seen.setdefault((name, atom.func), set()).add(ours[0])
    # every function answered and raised under both entry points, so
    # values and messages were compared
    assert len(seen) == 2 * len(AggFunc)
    for key, outcomes in seen.items():
        if key[1] in (AggFunc.CARD, AggFunc.MIN, AggFunc.MAX):
            assert outcomes == {"ok"}, key  # no value to overflow
        else:
            assert outcomes == {"ok", "ArithmeticOverflowError"}, key


def test_inconsistent_pair_raises_as_the_walk_does():
    pair = InterpretationPair.of(UNIVERSE, ["p", "q"], ["q", "r"])
    for atom in _aggregates()[:24]:
        assert _outcome(lambda: interval_truth(atom, pair)) == _outcome(
            lambda: reference_interval_truth(atom, pair)
        )
        assert _outcome(lambda: aggregate_holds_everywhere(atom, pair)) == _outcome(
            lambda: reference_holds_everywhere(atom, pair)
        )


def test_only_a_kernel_less_prod_walks_members(monkeypatch):
    walked = []

    def counting_evaluator(atom, universe):  # each call of the atom's mask evaluator
        return lambda mask: walked.append(atom) or True

    monkeypatch.setattr(eval2, "aggregate_evaluator", counting_evaluator)
    pair = InterpretationPair.least_precise(UNIVERSE)
    two = ((1, Literal("p")), (2, Literal("q", True)))
    small = [AggregateAtom(func, two, Comparison.GE, 0) for func in AggFunc]
    # seven condition atoms, two of them outside the universe: past the cap
    seven = tuple((2, Literal(a)) for a in UNIVERSE + ("u", "v"))
    past_cap = AggregateAtom(AggFunc.PROD, seven, Comparison.GE, 0)
    # max(1, |2^62|) * max(1, |2|) is past the guard
    past_guard = AggregateAtom(
        AggFunc.PROD, ((HALF, Literal("p")), (2, Literal("q"))), Comparison.GE, 0
    )
    for atom in small + [past_cap, past_guard]:
        interval_truth(atom, pair)
        aggregate_holds_everywhere(atom, pair)
    assert all(atom._kernels is not None for atom in small)
    assert (past_cap._kernels, past_guard._kernels) == (None, None)
    # each of the two sweeps per atom visits every member once: the 2^5
    # choices of the five condition atoms in the universe, the 2^2 of
    # {p, q}; the small atoms, prod among them, walk none
    assert walked == [past_cap] * 32 * 2 + [past_guard] * 4 * 2

