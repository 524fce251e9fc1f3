"""Hybrid high-order Poisson solver with a moment-preserving load smoother."""

import importlib.machinery
import importlib.util
import sys

from .mesh import (
    MeshError,
    SimplicialMesh,
    UnsupportedDimensionError,
    build_lshape,
    build_unit_square,
    check_matching,
    read_mesh_file,
    refine_red,
    shape_parameter,
    write_mesh_file,
)
from .polyquad import QuadratureRule, UnsupportedDegreeError, quad_for_degree

__version__ = "0.1.0"


def lazy_module(name):
    """The module `name`, whose code runs on the first read of an attribute.

    A module already in `sys.modules` is returned as it is. Otherwise `name`
    and each parent package not yet imported are registered there with
    `importlib.util.LazyLoader`. A submodule's spec is found on its
    parent's `__path__`, read past the lazy module's attribute hook, so
    registering loads nothing: `importlib.util.find_spec` would execute
    the parent package.
    """
    if name in sys.modules:
        return sys.modules[name]
    parent, _, child = name.rpartition(".")
    path = object.__getattribute__(lazy_module(parent), "__path__") if parent else None
    spec = importlib.machinery.PathFinder.find_spec(name, path)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
