import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hho
from conftest import jittered_square, single_triangle_mesh
from hho.mesh import (
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


def test_unit_square_n1_counts():
    m = build_unit_square(1)
    assert m.num_cells == 2
    assert m.num_faces == 5
    assert m.num_interior_faces == 1


def test_unit_square_n2_euler_count():
    # E = (3T + B)/2 with T = 8 triangles and B = 8 boundary edges
    m = build_unit_square(2)
    assert m.num_cells == 8
    assert m.num_faces == (3 * 8 + 8) // 2 == 16
    assert m.num_interior_faces == 16 - 8 == 8


def test_unit_square_mesh_size():
    for n in (1, 2, 5):
        m = build_unit_square(n)
        assert m.h_cell.max() == pytest.approx(np.sqrt(2.0) / n, rel=1e-14)


def test_unit_square_shape_parameter_scale_invariant():
    g1 = shape_parameter(build_unit_square(1))
    g4 = shape_parameter(build_unit_square(4))
    assert g4 == pytest.approx(g1, rel=1e-14)


def test_shape_parameter_equilateral():
    # closed form: h = 1, r = 1/(2 sqrt(3)), gamma = 2 sqrt(3)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
    m = SimplicialMesh(verts, np.array([[0, 1, 2]]))
    assert shape_parameter(m) == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-12)


def test_shape_parameter_right_isoceles():
    # r = (a + b - c)/2 = (2 - sqrt(2))/2, h = sqrt(2), gamma = 2 + 2 sqrt(2)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = SimplicialMesh(verts, np.array([[0, 1, 2]]))
    assert shape_parameter(m) == pytest.approx(2.0 + 2.0 * np.sqrt(2.0), rel=1e-12)


def test_shape_parameter_congruent_mesh_equals_single_cell():
    # every cell of the structured square mesh is a right isoceles triangle
    m = build_unit_square(3)
    assert shape_parameter(m) == pytest.approx(2.0 + 2.0 * np.sqrt(2.0), rel=1e-12)


def test_volumes_cover_unit_square():
    for n in (1, 2, 5):
        m = build_unit_square(n)
        assert abs(m.volumes.sum() - 1.0) < 1e-12


def test_normal_closure_per_cell():
    m = build_unit_square(3)
    lengths = m.h_face[m.cell_faces]
    closure = np.einsum("tf,tfd->td", lengths, m.normals)
    assert np.abs(closure).max() < 1e-12


def test_interior_face_normals_opposite_and_vertex_sets_match():
    m = build_unit_square(2)
    for f in m.interior_faces:
        k1, k2 = m.face_cells[f]
        i1 = int(np.nonzero(m.cell_faces[k1] == f)[0][0])
        i2 = int(np.nonzero(m.cell_faces[k2] == f)[0][0])
        assert np.linalg.norm(m.normals[k1, i1] + m.normals[k2, i2]) < 1e-14
        local1 = sorted(np.delete(m.cells[k1], i1))
        local2 = sorted(np.delete(m.cells[k2], i2))
        assert local1 == local2 == list(m.faces[f])


def test_refine_red_counts_and_h():
    m = build_unit_square(1)
    r = refine_red(m)
    assert r.num_cells == 8
    assert r.h_cell.max() == pytest.approx(m.h_cell.max() / 2.0, rel=0, abs=0)
    assert r.volumes.sum() == pytest.approx(1.0, abs=1e-13)


def test_refine_red_preserves_gamma():
    m = build_unit_square(2)
    r = refine_red(m)
    assert shape_parameter(r) == pytest.approx(shape_parameter(m), rel=1e-13)
    rr = refine_red(r)
    assert rr.num_cells == 4 * r.num_cells
    assert shape_parameter(rr) == pytest.approx(shape_parameter(m), rel=1e-13)


def test_cell_size_invariants():
    m = refine_red(build_unit_square(3))
    assert np.all(m.r_cell > 0.0)
    assert np.all(m.r_cell <= m.h_cell)
    assert np.all(m.h_face[m.cell_faces] <= m.h_cell[:, None] + 1e-15)


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        SimplicialMesh(verts, np.array([[0, 1, 2]]))


def test_orientation_fixed_on_construction():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = SimplicialMesh(verts, np.array([[0, 2, 1]]))  # clockwise input
    assert m.volumes[0] > 0.0
    # a grid given with every other cell clockwise: the orientation step's
    # cross product gives the areas, bitwise those of the counter-clockwise
    # input (the flip negates it exactly)
    ccw = jittered_square(6)
    cells = ccw.cells.copy()
    cells[::2] = cells[::2][:, [0, 2, 1]]
    mixed = SimplicialMesh(ccw.vertices.copy(), cells)
    assert np.array_equal(mixed.cells, ccw.cells)
    assert mixed.volumes.tobytes() == ccw.volumes.tobytes()


def test_three_dimensional_input_rejected():
    verts = np.zeros((4, 3))
    with pytest.raises(UnsupportedDimensionError):
        SimplicialMesh(verts, np.array([[0, 1, 2]]))


def test_check_matching_accepts_valid_meshes():
    assert check_matching(build_unit_square(3)) == []
    assert check_matching(refine_red(build_lshape(2))) == []


def test_check_matching_detects_hanging_node():
    # square with the lower triangle bisected along the diagonal: the diagonal
    # is a full face of the upper triangle but split on the other side
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    cells = np.array([[0, 1, 4], [1, 2, 4], [0, 4, 2, ]][:2] + [[0, 2, 3]])
    m = SimplicialMesh(verts, np.array([[0, 1, 4], [1, 2, 4], [0, 2, 3]]))
    problems = check_matching(m)
    assert any("matching" in p for p in problems)


def test_mesh_file_roundtrip(tmp_path):
    m = build_unit_square(2)
    path = tmp_path / "square.mesh"
    write_mesh_file(m, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.cells, m.cells)
    assert np.allclose(back.vertices, m.vertices)


def test_mesh_file_errors(tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_text("2 1\n0 0\n1 0\n")
    with pytest.raises(MeshError):
        read_mesh_file(bad)
    three_d = tmp_path / "threed.mesh"
    three_d.write_text("3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 2\n")
    with pytest.raises(UnsupportedDimensionError):
        read_mesh_file(three_d)


def test_unreadable_mesh_file_is_a_mesh_error(tmp_path):
    # a missing file, a directory and bytes that are not text all fail as
    # MeshError naming the path
    binary = tmp_path / "binary.mesh"
    binary.write_bytes(b"\xff\xfe\x00\x80")
    for path in (tmp_path / "missing.mesh", tmp_path, binary):
        with pytest.raises(MeshError, match="cannot read"):
            read_mesh_file(path)


def test_lshape_area():
    m = build_lshape(2)
    assert m.volumes.sum() == pytest.approx(3.0, abs=1e-12)
    assert check_matching(m) == []


def test_unit_square_rejects_bad_n():
    with pytest.raises(MeshError):
        build_unit_square(0)


@pytest.mark.parametrize("build", [build_unit_square, build_lshape])
@pytest.mark.parametrize("n", [0, -2, 1.5])
def test_grid_builders_reject_bad_n(build, n):
    with pytest.raises(MeshError, match="n must be a positive integer"):
        build(n)


def _relabelled(mesh, seed):
    """`mesh` with its vertices and cells permuted and each cell's vertices
    in a random one of their six orders (so about half turn clockwise).
    Returns the mesh, the new label of each old vertex and the old cell of
    each new cell."""
    rng = np.random.default_rng(seed)
    vperm = rng.permutation(mesh.num_vertices)
    label = np.argsort(vperm)
    order = rng.permutation(mesh.num_cells)
    orders = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 2, 1], [2, 1, 0], [1, 0, 2]])
    cells = label[mesh.cells[order]]
    cells = np.take_along_axis(cells, orders[rng.integers(0, 6, len(cells))], axis=1)
    return SimplicialMesh(mesh.vertices[vperm], cells), label, order


ORACLE_MESHES = {
    "square-1": lambda: build_unit_square(1),
    "square-3": lambda: build_unit_square(3),
    "lshape-1": lambda: build_lshape(1),
    "lshape-2": lambda: build_lshape(2),
    "lshape-1-refined-twice": lambda: refine_red(refine_red(build_lshape(1))),
    "jittered-6": lambda: jittered_square(6),
    "relabelled-grid-5": lambda: _relabelled(build_unit_square(5), 4)[0],
    "single-triangle": single_triangle_mesh,
}


def _face_oracle(cells):
    """faces, cell_faces, face_cells, face_local and boundary_face_mask of
    the (positively oriented) cells, edge by edge through a dict keyed by
    sorted vertex pairs."""
    sides = {}
    for t, cell in enumerate(cells.tolist()):
        for i in range(3):
            pair = tuple(sorted((cell[(i + 1) % 3], cell[(i + 2) % 3])))
            sides.setdefault(pair, []).append((t, i))
    faces = sorted(sides)
    index = {pair: f for f, pair in enumerate(faces)}
    cell_faces = np.array([
        [index[tuple(sorted((c[(i + 1) % 3], c[(i + 2) % 3])))] for i in range(3)]
        for c in cells.tolist()
    ]).reshape(-1, 3)
    face_cells = np.full((len(faces), 2), -1)
    face_local = np.full((len(faces), 2), -1)
    for f, pair in enumerate(faces):
        for col, (t, i) in enumerate(sorted(sides[pair])):
            face_cells[f, col], face_local[f, col] = t, i
    boundary = np.array([len(sides[pair]) == 1 for pair in faces])
    return np.array(faces).reshape(-1, 2), cell_faces, face_cells, face_local, boundary


@pytest.mark.parametrize("make", ORACLE_MESHES.values(), ids=ORACLE_MESHES.keys())
def test_faces_match_edge_by_edge_oracle(make):
    m = make()
    faces, cell_faces, face_cells, face_local, boundary = _face_oracle(m.cells)
    assert np.array_equal(m.faces, faces)
    assert np.array_equal(m.cell_faces, cell_faces)
    assert np.array_equal(m.face_cells, face_cells)
    assert np.array_equal(m.face_local, face_local)
    assert np.array_equal(m.boundary_face_mask, boundary)
    flips = np.array([[c[(i + 1) % 3] > c[(i + 2) % 3] for i in range(3)]
                      for c in m.cells.tolist()])
    assert np.array_equal(m.face_flips, flips)


@pytest.mark.parametrize("make", ORACLE_MESHES.values(), ids=ORACLE_MESHES.keys())
def test_normals_point_out_and_h_cell_is_longest_edge(make):
    m = make()
    p = m.vertices[m.cells]  # (T, 3, 2)
    a, b = p[:, [1, 2, 0]], p[:, [2, 0, 1]]  # ends of local face i
    assert np.abs(np.linalg.norm(m.normals, axis=-1) - 1.0).max() < 1e-15
    assert np.all(np.einsum("tid,tid->ti", m.normals, 0.5 * (a + b) - p) > 0.0)
    edges = np.linalg.norm(b - a, axis=-1)
    assert np.abs(np.einsum("tid,tid->ti", m.normals, b - a)).max() < 1e-15 * edges.max()
    assert np.array_equal(m.h_cell, edges.max(axis=1))


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       base=st.sampled_from(["jittered-6", "lshape-2", "single-triangle"]))
def test_relabelling_permutes_the_geometry(seed, base):
    # the volumes, sizes and the normal of each (cell, face as a vertex pair)
    # follow the cells and vertices to their new labels
    m = ORACLE_MESHES[base]()
    r, label, order = _relabelled(m, seed)
    np.testing.assert_allclose(r.volumes, m.volumes[order], rtol=1e-13)
    np.testing.assert_allclose(r.h_cell, m.h_cell[order], rtol=1e-15)
    np.testing.assert_allclose(r.r_cell, m.r_cell[order], rtol=1e-13)
    # the face opposite vertex v of old cell order[s] is the face opposite
    # label[v] of new cell s
    local = np.argmax(r.cells[:, None, :] == label[m.cells[order]][:, :, None], axis=2)
    np.testing.assert_allclose(np.take_along_axis(r.normals, local[..., None], axis=1),
                               m.normals[order], rtol=0.0, atol=1e-15)
    assert check_matching(r) == []


def _brute_force_pairs(mesh, points, tol):
    """Every (point, cell) pair with all barycentric coordinates >= -tol."""
    pairs = []
    for k in range(mesh.num_cells):
        lam = mesh.barycentric_coordinates(np.full(len(points), k), points)
        pairs += [(i, k) for i in np.nonzero(np.all(lam >= -tol, axis=1))[0]]
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
def test_containing_cells_matches_brute_force(tol):
    m = jittered_square(8)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 20)
    points = np.concatenate([
        m.vertices,
        m.face_midpoints,
        rng.uniform(0.0, 1.0, (200, 2)),
        # just outside the bottom edge: inside the slack for one tol only
        np.stack([x, np.full(20, -1e-13)], axis=1),
        np.stack([x, np.full(20, -1e-10)], axis=1),
        [[1.5, 0.5], [-0.5, -0.5]],
    ])
    point, cell = m.containing_cells(points, tol)
    want = _brute_force_pairs(m, points, tol)
    assert np.array_equal(np.stack([point, cell], axis=1), want)
    outside = np.unique(point[point >= len(points) - 42])
    assert len(outside) == (20 if tol == 1e-12 else 40)


def _with_stray_vertices(*stray):
    m = build_unit_square(2)
    return SimplicialMesh(np.concatenate([m.vertices, stray]), m.cells)


def _bisected_square():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    )
    return SimplicialMesh(verts, np.array([[0, 1, 4], [1, 2, 4], [0, 2, 3]]))


def _doubled_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return SimplicialMesh(verts, np.array([[0, 1, 2], [0, 1, 2]]))


@pytest.mark.parametrize("make, expected", [
    (_bisected_square, ["vertex 4 hangs on cell 2 (mesh is not matching)"]),
    (_doubled_triangle, ["normals on interior face 0 are not opposite"]),
    (lambda: _with_stray_vertices([0.25, 0.25], [0.75, 0.75]),
     ["vertex 9 hangs on cell 0 (mesh is not matching)"]),
    # the lowest cell wins over the lowest vertex
    (lambda: _with_stray_vertices([0.75, 0.75], [0.25, 0.25]),
     ["vertex 10 hangs on cell 0 (mesh is not matching)"]),
    (lambda: jittered_square(8), []),
], ids=["bisected-square", "doubled-triangle", "stray-vertices",
        "stray-vertices-reversed", "jittered"])
def test_check_matching_exact_messages(make, expected):
    assert check_matching(make()) == expected


def test_check_matching_names_lowest_bad_interior_face():
    # four doubled triangles in a row, the first vertices rightmost: all 12
    # interior faces are bad, and the dissection order of the faces starts
    # with the leftmost pair, whose faces have the highest indices
    tri = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    verts = np.concatenate([tri + [3.0 - i, 0.0] for i in range(4)])
    cells = np.repeat(np.arange(12).reshape(4, 3), 2, axis=0)
    m = SimplicialMesh(verts, cells)
    assert m.num_interior_faces == 12 and m.interior_faces[0] != 0
    assert check_matching(m) == ["normals on interior face 0 are not opposite"]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_rejected(tmp_path, bad):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    verts[2, 1] = bad
    with pytest.raises(MeshError, match="finite"):
        SimplicialMesh(verts, np.array([[0, 1, 2]]))
    path = tmp_path / "bad.mesh"
    path.write_text(f"3 1\n0 0\n1 0\n0 {bad}\n0 1 2\n")
    with pytest.raises(MeshError, match="finite"):
        read_mesh_file(path)


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial would add about a quarter to the time of a fresh `import hho`
    src = os.path.dirname(os.path.dirname(hho.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hho; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_import_does_not_load_scipy_special():
    # the Gauss-Jacobi rule is computed in hho.polyquad; scipy.special would
    # add about 50 ms and 4 MB to every hho command
    src = os.path.dirname(os.path.dirname(hho.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, hho.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
