"""The choice of semantics has one dispatch point: outside the rows of the
`SemanticsId` table, no main-path module singles out `ultimate` or `flp`.
The oracle, which is not on the main path, may."""

import ast
from pathlib import Path

from aggsem import ternary

PACKAGE = Path(ternary.__file__).parent
MAIN_PATH = sorted(path for path in PACKAGE.glob("*.py") if path.stem != "oracle")


def _ultimate_references(path):
    """Line numbers of `SemanticsId.ULTIMATE` outside the class body that
    defines `SemanticsId`."""
    return _member_references(path, "ULTIMATE")


def _member_references(path, member):
    """Line numbers of `SemanticsId.<member>` outside the class body that
    defines `SemanticsId`."""
    found = []

    class Visitor(ast.NodeVisitor):
        def visit_ClassDef(self, node):
            if node.name != "SemanticsId":
                self.generic_visit(node)

        def visit_Attribute(self, node):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "SemanticsId":
                if node.attr == member:
                    found.append(node.lineno)
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_main_path_names_ultimate_only_in_its_row():
    assert {"ternary", "fixpoints", "cli"} <= {path.stem for path in MAIN_PATH}
    found = {path.stem: lines for path in MAIN_PATH if (lines := _ultimate_references(path))}
    assert found == {}


def test_main_path_names_flp_only_in_its_row():
    """flp's stable check keys on its row's flag and on the program's
    convexity, not on the tag."""
    found = {path.stem: lines for path in MAIN_PATH if (lines := _member_references(path, "FLP"))}
    assert found == {}


def _member_references_by_function(path):
    """(enclosing function, member) of each `SemanticsId.<member>` outside
    the class body that defines `SemanticsId`."""
    found = []

    class Visitor(ast.NodeVisitor):
        function = None

        def visit_ClassDef(self, node):
            if node.name != "SemanticsId":
                self.generic_visit(node)

        def visit_FunctionDef(self, node):
            outer, self.function = self.function, node.name
            self.generic_visit(node)
            self.function = outer

        def visit_Attribute(self, node):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "SemanticsId":
                if node.attr in ternary.SemanticsId.__members__:
                    found.append((self.function, node.attr))
            self.generic_visit(node)

    Visitor().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


def test_main_path_names_only_bnd_and_only_for_the_box():
    """gl's aggregate check reads its row's `handles_aggregates` flag, so
    outside the table the main path names one member: `bnd`, with which
    `fixpoints._supported_box` builds the search box by design."""
    found = [
        (path.stem, function, member)
        for path in MAIN_PATH
        for function, member in _member_references_by_function(path)
    ]
    assert found == [("fixpoints", "_supported_box", "BND")]


def test_kripke_kleene_loop_calls_neither_step():
    """`_kripke_kleene_from` re-tests only the heads that mention a changed
    atom, so it calls neither full step: plain iteration of `lower_step`
    and `upper_step` cannot survive beside it."""
    path = PACKAGE / "fixpoints.py"
    (loop,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "_kripke_kleene_from"
    ]
    called = {
        node.func.id
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"lower_step", "upper_step"}, called


def test_each_row_states_each_test_once():
    """A row holds one test per question, each taking a pair: the Kleene
    loops hand the same tests a mask pair, so no row keeps a second copy
    of a test at masks."""
    assert ternary._Row._fields == ("tag", "truth", "certain", "well_behaved", "monotone", "bodies")
    for name in ("certain_at", "possible_at"):
        assert not hasattr(ternary.SemanticsId, name), name
