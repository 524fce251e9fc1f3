"""Every definition and every stored attribute in the package has a reader
inside the package.

A top-level function, class or method of `src/hho` that no other code in
`src/hho` names exists only for the tests; the tests should assert on the
stored operators the solver reads instead. Names the benchmark traces
(perfbench/spans.py LAYERS) count as used, since the benchmark names them.
A re-export from hho/__init__.py is not a use: each name public for its own
sake is listed in ALLOWED with its reason.

The same holds for instance attributes: a `self.x` assigned in a class of
`src/hho` that no code in `src/hho` reads is kept only for the tests (and
is held in memory for as long as its object lives). Tests compute such
values themselves.
"""

import ast
from collections import Counter
from pathlib import Path

from test_spans import load_perfbench

SRC = Path(__file__).resolve().parents[1] / "src" / "hho"

# name -> why it stays without a caller in src/hho
ALLOWED = {
    "hho.cli:main": "the console entry point",
    "hho.mesh:write_mesh_file": "writes the mesh files `hho verify --mesh` "
                                "reads (perfbench/inputs.py makes its input "
                                "with it)",
    "hho.smoothing:consistency_constant": "measures the paper's smoother "
                                          "constant (acceptance criterion 6)",
}


def _references(node, owner=None):
    """Every name read or imported in the subtree, as a multiset of keys.

    A name or import is keyed (None, name). An attribute is keyed
    (C, attr) when it is `self.attr` inside class C, and ("", attr)
    otherwise, where it may mean a method of any class.
    """
    refs = Counter()
    if isinstance(node, ast.ClassDef):
        owner = node.name
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Name):
            refs[None, sub.id] += 1
        elif isinstance(sub, ast.alias):
            refs[None, sub.asname or sub.name] += 1
        elif isinstance(sub, ast.Attribute):
            on_self = isinstance(sub.value, ast.Name) and sub.value.id == "self"
            refs[owner if on_self else "", sub.attr] += 1
        refs.update(_references(sub, owner))
    return refs


def _definitions(tree, module):
    """(qualified name, owning class, name, node) of top-level definitions
    and of the methods of top-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield f"{module}:{node.name}", None, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds):
                    yield (f"{module}:{node.name}.{member.name}", node.name,
                           member.name, member)


def unused_definitions():
    """Definitions no kept code names, found to a fixed point.

    A definition named only inside unused definitions is unused as well.
    """
    kept = {name for names in load_perfbench("spans").LAYERS.values()
            for name in names}
    kept.update(ALLOWED)
    trees = {f"hho.{path.stem}": ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for module, tree in trees.items():
        if module != "hho.__init__":
            refs.update(_references(tree))
    candidates = []
    for module, tree in trees.items():
        for qualified, owner, name, node in _definitions(tree, module):
            if qualified in kept or (name.startswith("__") and name.endswith("__")):
                continue
            # a module attribute may name a function; only attributes
            # name a method
            keys = {("", name), (owner, name)}
            own = _references(node, owner)
            candidates.append((qualified, keys, own))
    unused = []
    while True:
        found = [(qualified, own) for qualified, keys, own in candidates
                 if qualified not in unused
                 and all(refs[key] == own[key] for key in keys)]
        if not found:
            return sorted(unused)
        for qualified, own in found:
            unused.append(qualified)
            refs.subtract(own)


def test_every_definition_is_used_in_the_package():
    assert unused_definitions() == []


def _attribute_reads(tree):
    """Attributes read in the tree, as a set of keys.

    `self.x` read inside class C is keyed (C, x), any other `obj.x` and a
    `getattr(obj, "x")` with a literal name ("", x). Writing into an
    attribute's items (`self.x[i] = ...`) is not a read.
    """
    written_into = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Store)}
    reads = set()

    def visit(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in written_into):
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            reads.add((owner if on_self else "", node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)):
            reads.add(("", node.args[1].value))
        for sub in ast.iter_child_nodes(node):
            visit(sub, owner)

    visit(tree, None)
    return reads


def _attribute_writes(tree, module):
    """(qualified name, class, attribute) of every `self.x = ...` in the
    top-level classes of the module."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names = {sub.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.ctx, ast.Store)
                 and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
        for attr in sorted(names):
            yield f"{module}:{node.name}.{attr}", node.name, attr


def unread_attributes():
    """Instance attributes assigned in src/hho that no src/hho code reads."""
    trees = {f"hho.{path.stem}": ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    reads = set()
    for module, tree in trees.items():
        if module != "hho.__init__":
            reads |= _attribute_reads(tree)
    unread = []
    for module, tree in trees.items():
        for qualified, owner, attr in _attribute_writes(tree, module):
            if qualified in ALLOWED:
                continue
            if (owner, attr) not in reads and ("", attr) not in reads:
                unread.append(qualified)
    return sorted(unread)


def test_every_stored_attribute_is_read_in_the_package():
    assert unread_attributes() == []
