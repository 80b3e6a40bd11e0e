"""No module of the package imports a name it never uses.  A name counts
as used when the module reads it, in code or in an annotation (string
annotations included), or lists it in `__all__`."""

import ast
from pathlib import Path

from aggsem import ternary

PACKAGE = Path(ternary.__file__).parent


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            yield node.returns
            yield from (arg.annotation for arg in every if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source):
    """The names `source` imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    source = (
        "from typing import Callable, Union\n"
        "import operator\n"
        "__all__ = ['run']\n"
        "def run(f: 'Callable[[], int]') -> int:\n"
        "    return f()\n"
    )
    assert unused_imports(source) == ["Union", "operator"]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"fixpoints", "bounds", "syntax"} <= {path.stem for path in modules}
    found = {
        path.stem: names
        for path in modules
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
