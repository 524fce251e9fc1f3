"""Every definition in the package has a caller inside the package.

A top-level function, class or method of `src/hho` that no other code in
`src/hho` names exists only for the tests; the tests should assert on the
stored operators the solver reads instead. Names the benchmark traces
(perfbench/spans.py LAYERS) count as used, since the benchmark names them.
A re-export from hho/__init__.py is not a use: each name public for its own
sake is listed in ALLOWED with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

from test_spans import load_layers

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
    kept = {name for names in load_layers().values() for name in names}
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
