"""The library keeps only what something reads: every public module-level
function of ``src/diagsynth`` is named by code outside its own body (in the
package, ``scripts/`` or ``perfbench/``), is exported in
``diagsynth.__all__``, or is a reference route that the tests compare
against; every method and property of a class is read as an attribute
outside its own body, or is a named public member."""

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

# members of the public model with no library reader, each with its reason
PUBLIC_MEMBERS = {
    "CssCode.z_logical": "the Z-side twin of x_word: a Z-logical by its label",
    "CssCode.syndrome_reps": "the X-syndrome quotient's representatives, traced by perfbench by name",
    "SparseState.inner": "the overlap of two encoded states",
    "Cyclo.abs_sq": "|z|^2 in the ring, traced by perfbench among the ring arithmetic",
    "Cyclo.is_zero": "the exact zero test of a ring element",
    "Cyclo.parse": "the inverse of the documented serialization",
    "BitVec.from_support": "a vector from its list of qubits",
    "BitVec.weight": "the Hamming weight of one vector",
    "Reducer.contains": "membership of a BitVec; the library reads contains_int",
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


def _members() -> set[str]:
    """Class.name of every method and property of a class in the package,
    dunders excluded."""
    found = set()
    for _, tree in _trees(PACKAGE):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not (
                    stmt.name.startswith("__") and stmt.name.endswith("__")
                ):
                    found.add(f"{cls.name}.{stmt.name}")
    return found


def _attributes_read() -> set[str]:
    """Every attribute read in the readers, a function's own name inside
    its body (recursion) excepted."""
    names = set()

    def visit(node: ast.AST, own: frozenset) -> None:
        if isinstance(node, ast.Attribute) and node.attr not in own:
            names.add(node.attr)
        if isinstance(node, ast.FunctionDef):
            own |= {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for root in READERS:
        for _, tree in _trees(root):
            visit(tree, frozenset())
    return names


def test_every_member_has_a_reader():
    """Like the module-level pass this matches by name: ``.weight`` read
    anywhere counts as a read of every member called ``weight``."""
    members, read = _members(), _attributes_read()
    assert set(PUBLIC_MEMBERS) <= members, "a named public member no longer exists"
    assert sorted(m for m in PUBLIC_MEMBERS if m.split(".")[1] in read) == [], (
        "a named public member now has a library reader"
    )
    unread = sorted(m for m in members - set(PUBLIC_MEMBERS) if m.split(".")[1] not in read)
    assert unread == []
