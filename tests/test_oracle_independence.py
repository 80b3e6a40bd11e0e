"""The oracle stays independent of the main path it checks: what it
imports, where exhaustive subset walks live, and its own two-valued
evaluation against `eval2`."""

import ast
import random
from pathlib import Path

import pytest

from aggsem import ArithmeticOverflowError, oracle, parse_program
from aggsem import errors, interp, syntax, truth
from aggsem.eval2 import is_model, tp
from aggsem.oracle import random_program
from aggsem.syntax import AggregateAtom, Program, Rule

from .conftest import interp as make_interp

PACKAGE = Path(oracle.__file__).parent
HALF = 1 << 62  # two of these sum to 2^63, one past the largest int64


def _module_tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_oracle_imports_only_what_it_compares_against():
    imported = {}
    for node in ast.walk(_module_tree("oracle")):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not any(n.startswith("aggsem") for n in names), names
    main_path = {
        m: imported.pop(m) for m in ("bounds", "eval2", "fixpoints", "ternary") if m in imported
    }
    assert main_path == {
        "bounds": {"Bounds", "bnd_truth", "exact_bounds"},
        "eval2": {"AggValue"},
        "fixpoints": {"gl_reduct", "lower_step", "stable_enumerate"},
        "ternary": {"SemanticsId", "all_consistent_pairs", "sat3"},
    }
    modules = {"errors": errors, "interp": interp, "syntax": syntax, "truth": truth}
    assert set(imported) <= set(modules)
    for module, names in imported.items():
        for name in names:
            # the per-head grouping builds the input `ultimate` is checked on
            if name != "combine_rules_per_head":
                assert isinstance(getattr(modules[module], name), type), (module, name)


def _subset_loops(module):
    """(module, enclosing function) of each `range(...)` call whose
    argument contains `1 << ...`."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.function = None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Call(self, node):
            if isinstance(node.func, ast.Name) and node.func.id == "range":
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if (
                            isinstance(sub, ast.BinOp)
                            and isinstance(sub.op, ast.LShift)
                            and isinstance(sub.left, ast.Constant)
                            and sub.left.value == 1
                        ):
                            found.append((module, self.function))
            self.generic_visit(node)

    Visitor().visit(_module_tree(module))
    return found


def test_one_subset_walk_each_in_interp_and_oracle():
    loops = [loop for path in sorted(PACKAGE.glob("*.py")) for loop in _subset_loops(path.stem)]
    assert sorted(loops) == [("interp", "_extension_masks"), ("oracle", "_subsets")]


def _unchecked_interpretations(module):
    """(module, enclosing function) of each way past `Interpretation`'s
    universe check: a call that takes the class itself as an argument,
    such as `object.__new__(Interpretation)` under any name, and a use of
    `__dict__` or `__setattr__`, which fill an instance's fields without
    its `__init__`."""
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.function = None

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Call(self, node):
            is_type_test = isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            if not is_type_test and any(
                isinstance(arg, ast.Name) and arg.id == "Interpretation" for arg in node.args
            ):
                found.append((module, self.function))
            self.generic_visit(node)

        def visit_Attribute(self, node):
            if node.attr in ("__dict__", "__setattr__"):
                found.append((module, self.function))
            self.generic_visit(node)

    Visitor().visit(_module_tree(module))
    return found


def test_only_the_walk_builds_interpretations_unchecked():
    """Not even the walk does: `extensions` builds every member through
    the checked constructor."""
    places = {
        place for path in PACKAGE.glob("*.py") for place in _unchecked_interpretations(path.stem)
    }
    assert places == set()


# ---------------------------------------------------------------------------
# the oracle's two-valued evaluation against eval2
# ---------------------------------------------------------------------------


def _outcome(fn):
    try:
        return ("ok", fn())
    except ArithmeticOverflowError as exc:
        return ("overflow", str(exc))


def _with_big_weights(program):
    def big(element):
        if not isinstance(element, AggregateAtom):
            return element
        entries = tuple((HALF if w >= 0 else -HALF, lit) for w, lit in element.entries)
        bound = HALF if element.bound >= 0 else -HALF
        return AggregateAtom(element.func, entries, element.cmp, bound)

    rules = tuple(Rule(r.head, tuple(big(e) for e in r.body)) for r in program.rules)
    return Program(rules, program.universe)


def _interpretations(universe):
    return [
        make_interp(universe, [a for bit, a in enumerate(universe) if mask >> bit & 1])
        for mask in range(1 << len(universe))
    ]


def _agree(program, i):
    ours = _outcome(lambda: oracle._consequences(program, i.atoms))
    theirs = _outcome(lambda: tp(program, i).atoms)
    assert ours == theirs, (str(program), str(i))
    assert _outcome(lambda: oracle._is_model(program, i.atoms)) == _outcome(
        lambda: is_model(program, i)
    ), (str(program), str(i))
    return ours[0]


def test_oracle_evaluation_agrees_with_eval2():
    rng = random.Random(131)
    outcomes = set()
    for _ in range(150):
        program = random_program(rng)
        for variant in (program, _with_big_weights(program)):
            for i in _interpretations(program.universe):
                outcomes.add(_agree(variant, i))
    # the big variants reach both outcomes, so the messages were compared
    assert outcomes == {"ok", "overflow"}


@pytest.mark.parametrize(
    "text, true_atoms, message",
    [
        (f"h :- sum{{{HALF}:p, {HALF}:q}} >= 1.", "pq", "sum 9223372036854775808"),
        (f"h :- avg{{{-HALF}:p, {-HALF}:q, -1:r}} < 0.", "pqr", "sum -9223372036854775809"),
        # the first two factors leave the range, though the product is 0
        (f"h :- prod{{{HALF}:p, 2:q, 0:r}} = 0.", "pqr", "product 9223372036854775808"),
    ],
    ids=["sum", "avg", "prod"],
)
def test_oracle_evaluation_overflows_like_eval2(text, true_atoms, message):
    program = parse_program(text)
    i = make_interp(program.universe, true_atoms)
    assert _agree(program, i) == "overflow"
    with pytest.raises(ArithmeticOverflowError, match=message):
        oracle._consequences(program, i.atoms)
