"""The library keeps only what something reads: every public module-level
function of ``src/diagsynth`` is named by code outside its own body (in the
package, ``scripts/`` or ``perfbench/``), is exported in
``diagsynth.__all__``, or is a reference route that the tests compare
against."""

import ast
import pathlib

import diagsynth

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diagsynth"
READERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# independent routes that stay in the library as the tests' ground truth
TEST_REFERENCES = {
    "cyclo.sqrt2",
    "cyclo.cos_pi_over",
    "cyclo.minus_i_sin_pi_over",
    "families.expected_2l_row",
    "hierarchy.level_recursive",
}


def _named(node: ast.AST) -> set[str]:
    """Every name and attribute that code under node reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _trees(root: pathlib.Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _public_functions() -> set[str]:
    found = set()
    for path, tree in _trees(PACKAGE):
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                found.add(f"{path.stem}.{stmt.name}")
    return found


def _references() -> set[str]:
    """Names read anywhere in the readers, a function's own name inside its
    body (recursion) excepted."""
    names = set()
    for root in READERS:
        for _, tree in _trees(root):
            for stmt in tree.body:
                used = _named(stmt)
                if isinstance(stmt, ast.FunctionDef):
                    used.discard(stmt.name)
                names |= used
    return names


def test_every_public_function_has_a_reader():
    public = _public_functions()
    assert TEST_REFERENCES <= public, "a named test reference no longer exists"
    read = _references() | set(diagsynth.__all__)
    unread = sorted(f for f in public - TEST_REFERENCES if f.split(".")[1] not in read)
    assert unread == []
