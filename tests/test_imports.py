"""Every name a library module imports is used in that module.

No linter ships with the project, so the check reads the source with `ast`.
`__init__.py` is left out: its imports are the package's exports.
"""

import ast
import pathlib

import pytest

import localsolv

MODULES = sorted(
    p for p in pathlib.Path(localsolv.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations such as "SymmetricForm" included."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    quoted = [
        ast.parse(a.value, mode="eval")
        for a in annotations
        if isinstance(a, ast.Constant) and isinstance(a.value, str)
    ]
    return {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
