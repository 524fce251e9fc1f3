"""Hybrid high-order Poisson solver with a moment-preserving load smoother."""

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
