"""The value rules of the aggregate functions are stated once, in the rows
of `eval2._RULES`.  `exact_bounds` reads min/max/avg values from the half
tables of `ult`'s interval sweep, without a member walk, and agrees with
the member-walk reference of `test_bounds_branches` at pairs with five
to eight undefined condition atoms, where the two halves differ in size
and both tables have several entries."""

import ast
import random
from pathlib import Path

import aggsem.bounds as bounds
import aggsem.eval2 as eval2
import aggsem.interp as interp
from aggsem import exact_bounds
from aggsem.interp import Interpretation, InterpretationPair, interval_expansion_count
from aggsem.syntax import AggFunc, AggregateAtom, Comparison, Literal
from aggsem.ternary import all_consistent_pairs

from .test_bounds_branches import WEIGHTS, reference_exact_bounds
from .test_stable_check import outcome

SPREAD = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7")
FUNCS = (AggFunc.MIN, AggFunc.MAX, AggFunc.AVG)


def test_min_max_avg_bounds_build_no_members(monkeypatch):
    pairs = all_consistent_pairs(SPREAD[:4])
    walked = []
    for module in (interp, eval2, bounds):
        for name in ("extensions", "enumerate_interval", "eval_multiset", "aggregate_value"):
            if hasattr(module, name):
                spy = lambda *args, name=name: walked.append(name) or iter(())  # noqa: E731
                monkeypatch.setattr(module, name, spy)
    built, init = [], Interpretation.__init__

    def counting_init(self, *args, **kwargs):  # every build, `extensions`' members included
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Interpretation, "__init__", counting_init)
    entries = (
        (1, Literal("a0")),
        (2, Literal("a1", True)),
        (-3, Literal("a2")),
        (4, Literal("a3")),
    )
    before = interval_expansion_count()
    for func in FUNCS:
        atom = AggregateAtom(func, entries, Comparison.GE, 0)
        for pair in pairs:
            exact_bounds(atom, pair)
    assert (walked, built, interval_expansion_count()) == ([], [], before)


def _wide_case(rng, func, undefined):
    """An aggregate over eight atoms, each a condition, and a pair that
    leaves `undefined` of them undefined."""
    entries = [(rng.choice(WEIGHTS), Literal(a, rng.random() < 0.4)) for a in SPREAD]
    entries += [
        (rng.choice(WEIGHTS), Literal(rng.choice(SPREAD), rng.random() < 0.4))
        for _ in range(rng.randint(0, 6))
    ]
    rng.shuffle(entries)
    atom = AggregateAtom(func, tuple(entries), rng.choice(list(Comparison)), rng.randint(-2, 2))
    free = set(rng.sample(SPREAD, undefined))
    lower = {a for a in SPREAD if a not in free and rng.random() < 0.5}
    return atom, InterpretationPair.of(SPREAD, lower, lower | free)


def test_min_max_avg_bounds_match_the_walk_at_wide_pairs():
    rng = random.Random(20261020)
    seen = {func: {"value": 0, "error": 0} for func in FUNCS}
    for undefined in range(5, 9):
        for func in FUNCS:
            for _ in range(25):
                atom, pair = _wide_case(rng, func, undefined)
                got = outcome(lambda: exact_bounds(atom, pair))
                assert got == outcome(lambda: reference_exact_bounds(atom, pair)), (
                    str(atom),
                    str(pair),
                )
                seen[func]["error" if isinstance(got, tuple) else "value"] += 1
    # an avg total leaves the signed 64-bit range at some pairs; min and
    # max have no arithmetic to overflow
    assert all(seen[AggFunc.AVG].values()), seen
    assert seen[AggFunc.MIN]["error"] == seen[AggFunc.MAX]["error"] == 0


def test_only_eval2_states_value_rules():
    package = Path(eval2.__file__).parent
    imported = set()
    for node in ast.walk(ast.parse((package / "bounds.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module, *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    rules = {"checked_int", "checked_product", "aggregate_value", "eval_multiset"}
    assert not imported & (rules | {"extensions", "operator", "Fraction", "fractions"}), imported
    (value,) = [
        node
        for node in ast.walk(ast.parse((package / "eval2.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_value"
    ]
    # the body names no function; the annotations may
    body = [node for statement in value.body for node in ast.walk(statement)]
    assert "AggFunc" not in {node.id for node in body if isinstance(node, ast.Name)}
