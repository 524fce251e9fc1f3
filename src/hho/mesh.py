"""Matching simplicial meshes of polygonal domains.

The mesh is the combinatorial and geometric substrate of the solver: cells,
globally numbered faces with interior/boundary classification, per-cell face
incidence with outward normals, and the size quantities (diameters, inradii)
entering the shape parameter and the face-weighted forms.

Only d = 2 is implemented; d = 3 input is recognized and rejected with
:class:`UnsupportedDimensionError`.
"""

import numpy as np


# a part of the dissection with at most this many interior faces is a leaf
DISSECTION_LEAF = 4


def _cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _split(ranked, upper, first, upper_first):
    """The cells `ranked` in runs by part, reordered so that each run lists
    its lower half, then its upper half (the cells marked `upper`), each in
    the order it had: a stable counting sort. `first` and `upper_first`
    give, per position, where its run and its run's upper half start."""
    s = upper[ranked]
    ones = np.cumsum(s) - s  # upper-half cells before each position
    d = ones - ones[first]  # ... in the position's run
    out = np.empty_like(ranked)
    out[np.where(s, upper_first + d, np.arange(len(s)) - d)] = ranked
    return out


def dissection_order(face_cells, centroids):
    """Nested-dissection elimination order of the faces with the two cells
    `face_cells` (F, 2), as a permutation of range(F), for the cells with
    the given centroids (T, 2) (George, SINUM 1973), and its tree.

    The cells are split recursively at the median centroid, along the axis
    whose cut crosses fewer faces of the part (x on a tie), with floor(n/2)
    cells in the lower half (equal coordinates by cell index). The faces
    across a cut are its separator and come after every face of both
    halves; a part with at most `DISSECTION_LEAF` faces is a leaf and keeps
    them in the given order. All parts of a level are split at once: each
    face gains one base-3 digit per level (its half, 0 or 1, or 2 once it
    is placed), and the order sorts these keys. The cells are sorted along
    each axis once and stay in that order within their parts.

    The tree is, for each face in the order, the heap index of the part
    that places it: the whole mesh is 0, and the lower and upper halves of
    part i are 2 i + 1 and 2 i + 2. A face's part places it as a separator
    face or as a leaf face; a part may place no face.
    """
    ends = face_cells.T  # (2, F)
    T = len(centroids)
    part = np.zeros(T, dtype=np.int64)
    key = np.zeros(ends.shape[1], dtype=np.int64)
    node = np.zeros(ends.shape[1], dtype=np.int64)
    active = np.ones(ends.shape[1], dtype=bool)  # in a part, not yet placed
    ranked = [np.argsort(centroids[:, axis], kind="stable") for axis in range(2)]
    level = 0
    while active.any():
        # a face's cells share its part until the face is placed
        fpart, nparts = part[ends[0]], 1 << level
        was = active.copy()
        active &= np.bincount(fpart[active], minlength=nparts)[fpart] > DISSECTION_LEAF
        # both orders list the parts in runs of equal sizes, so a position's
        # run and half are the same along both axes
        sizes = np.bincount(part, minlength=nparts)
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        upper_first = first + np.repeat(sizes // 2, sizes)
        upper = np.arange(T) >= upper_first
        sides = []
        for r in ranked:
            side = np.empty(T, dtype=bool)
            side[r] = upper
            sides.append(side)
        cuts = [np.bincount(fpart[active & (s[ends[0]] != s[ends[1]])],
                            minlength=nparts) for s in sides]
        side = np.where((cuts[1] < cuts[0])[part], sides[1], sides[0])
        halves = side[ends]
        active &= halves[0] == halves[1]
        placed = was & ~active
        node[placed] = nparts - 1 + fpart[placed]
        key = 3 * key + np.where(active, halves[0], 2)
        ranked = [_split(r, side, first, upper_first) for r in ranked]
        part = 2 * part + side
        level += 1
    order = np.argsort(key, kind="stable")
    return order, node[order]


class MeshError(ValueError):
    """Invalid mesh data (degenerate cells, broken incidence, bad file)."""


class UnsupportedDimensionError(MeshError):
    """Mesh dimension is typed but not implemented (d = 3 in v1)."""


class SimplicialMesh:
    """Immutable matching simplicial mesh.

    Construction orients every cell counter-clockwise with one cross product
    per cell, which also gives its area (a zero-area cell is refused),
    numbers the faces with one sort of integer edge keys (`_build_faces`)
    and measures each edge once (`_build_geometry`).

    Attributes
    ----------
    dim : int
        Spatial dimension (2).
    vertices : (N, 2) float array
        Vertex coordinates in domain units.
    cells : (T, 3) int array
        Vertex indices per cell, positively oriented.
    faces : (E, 2) int array
        Global faces as sorted vertex pairs, lexicographically ordered.
    face_cells : (E, 2) int array
        Adjacent cells per face, ascending; second entry -1 on boundary.
    cell_faces : (T, 3) int array
        Global face index opposite each local vertex.
    boundary_face_mask : (E,) bool array
    interior_faces : (Ei,) int array
        Global indices of interior faces in the `dissection_order` of the
        ascending ones: the one numbering of the face unknowns.
    face_interior_index : (E,) int array
        Rank within `interior_faces`, -1 for boundary faces.
    dissection_tree : (Ei,) int array
        The dissection-tree node that places each face of `interior_faces`,
        by heap index: 0 is the whole mesh, 2 i + 1 and 2 i + 2 the lower
        and upper halves of node i. A node's faces follow its descendants'.
    face_local : (E, 2) int array
        Local index of the face in each cell of `face_cells`, -1 where that
        cell is missing.
    face_flips : (T, 3) int array
        1 where the lower-index global vertex of local face i is local
        vertex i+2, 0 where it is local vertex i+1 (indices mod 3).
    volumes, h_cell, r_cell : (T,) float arrays
        Cell areas, diameters (longest edge), inradii (2 |K| / perimeter).
    h_face : (E,) float array
        Face diameters; the cell sizes read them through `cell_faces`.
    normals : (T, 3, 2) float array
        Unit outward normal per (cell, local face): the edge from local
        vertex i+1 to i+2, turned clockwise, over its length.
    face_midpoints : (E, 2) float array
        Face midpoints.
    inverse_jacobians : (T, 2, 2) float array
        J_K^{-1} of the affine map x = v_0 + J_K (l1, l2) from barycentric
        coordinates, J_K = [v_1 - v_0, v_2 - v_0].

    The mesh is never mutated after construction and is safe for concurrent
    reads.
    """

    def __init__(self, vertices, cells):
        vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if vertices.ndim != 2:
            raise MeshError("vertices must be a 2d array of coordinates")
        if vertices.shape[1] == 3:
            raise UnsupportedDimensionError("d = 3 meshes are not implemented in v1")
        if vertices.shape[1] != 2:
            raise MeshError(f"unsupported vertex dimension {vertices.shape[1]}")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise MeshError("cells must be a (T, 3) array of vertex indices")
        if cells.min(initial=0) < 0 or cells.max(initial=-1) >= len(vertices):
            raise MeshError("cell vertex index out of range")

        self.dim = 2
        self.vertices = vertices
        self.cells, self.volumes = self._orient_positive(vertices, cells)
        self._build_faces()
        self._build_geometry()
        self.vertices.setflags(write=False)
        self.cells.setflags(write=False)

    @staticmethod
    def _orient_positive(vertices, cells):
        """The cells turned counter-clockwise, and their areas."""
        p = vertices[cells]
        area2 = _cross2(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        if np.any(area2 == 0.0):
            raise MeshError("degenerate cell with zero area")
        cells = cells.copy()
        flip = area2 < 0.0
        cells[flip] = cells[flip][:, [0, 2, 1]]
        # the flip negates the cross product exactly
        return cells, 0.5 * np.abs(area2)

    def _build_faces(self):
        """Faces, incidences and the dissection order of the interior faces.

        Local face i of a cell is its edge from local vertex i+1 to i+2
        (mod 3), keyed by the integer lo * N + hi of its sorted vertex pair:
        one sort of the keys orders the faces as the pairs. Slot 3 t + i is
        local face i of cell t; one stable sort of the slots by face lists
        each face's cells in ascending order.
        """
        c, nv = self.cells, len(self.vertices)
        a, b = c[:, [1, 2, 0]], c[:, [2, 0, 1]]
        keys, inverse = np.unique(
            (np.minimum(a, b) * nv + np.maximum(a, b)).ravel(), return_inverse=True
        )
        self.faces = np.stack([keys // nv, keys % nv], axis=1)
        self.cell_faces = inverse.reshape(-1, 3)
        self.face_flips = (a > b).astype(np.int64)

        counts = np.bincount(inverse)
        if counts.max(initial=0) > 2:
            raise MeshError("face shared by more than two cells")
        self.boundary_face_mask = counts == 1
        interior = np.nonzero(counts == 2)[0]

        slots = np.argsort(inverse, kind="stable")
        starts = np.cumsum(counts) - counts
        face_slots = np.full((len(keys), 2), -1, dtype=np.int64)
        face_slots[:, 0] = slots[starts]
        face_slots[interior, 1] = slots[starts[interior] + 1]
        self.face_cells = face_slots // 3  # floor division keeps the -1
        self.face_local = np.where(face_slots < 0, -1, face_slots % 3)

        centroids = self.vertices[c].mean(axis=1)
        order, self.dissection_tree = dissection_order(self.face_cells[interior],
                                                       centroids)
        self.interior_faces = interior[order]
        self.face_interior_index = np.full(len(keys), -1, dtype=np.int64)
        self.face_interior_index[self.interior_faces] = np.arange(len(interior))

    def _build_geometry(self):
        p = self.vertices[self.cells]  # (T, 3, 2)
        self.inverse_jacobians = np.linalg.inv(
            np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        )

        fv = self.vertices[self.faces]
        self.h_face = np.linalg.norm(fv[:, 1] - fv[:, 0], axis=1)
        if np.any(self.h_face == 0.0):
            raise MeshError("zero-length face")
        self.face_midpoints = 0.5 * (fv[:, 0] + fv[:, 1])

        edge_len = self.h_face[self.cell_faces]  # (T, 3)
        self.h_cell = edge_len.max(axis=1)
        self.r_cell = 2.0 * self.volumes / edge_len.sum(axis=1)
        if np.any(self.r_cell <= 0.0):
            raise MeshError("degenerate cell: zero inradius")

        # the edge p[i+2] - p[i+1] of a counter-clockwise cell, turned
        # clockwise, points away from p[i]
        e = p[:, [2, 0, 1]] - p[:, [1, 2, 0]]
        self.normals = np.stack([e[..., 1], -e[..., 0]], axis=-1) / edge_len[..., None]

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_interior_faces(self):
        return len(self.interior_faces)

    def cell_vertices(self):
        """Vertex coordinates per cell, shape (T, 3, 2)."""
        return self.vertices[self.cells]

    def barycentric_coordinates(self, cells, points):
        """Barycentric coordinates (..., 3) of `points` (..., 2) in `cells`.

        The shape of `cells` broadcasts against ``points.shape[:-1]``: pass
        (N,) cells for N points, or (T, 1) cells for (T, Q) points.
        """
        v0 = self.vertices[self.cells[cells, 0]]
        lam12 = np.einsum("...ij,...j->...i", self.inverse_jacobians[cells], points - v0)
        lam0 = 1.0 - lam12.sum(axis=-1)
        return np.concatenate([lam0[..., None], lam12], axis=-1)

    def containing_cells(self, points, tol):
        """(point, cell) index pairs, sorted by point then cell, for the points
        (N, 2) in each cell's closure: all barycentric coordinates >= -tol.

        Candidates are pruned by bounding box (points sorted by x, each cell's
        x-range bisected, then filtered on y) before one batched test."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        p = self.vertices[self.cells]
        # passing points lie within 2 tol * extent of the box; 4 covers rounding
        pad = 4.0 * tol * np.ptp(p, axis=1)
        lo, hi = p.min(axis=1) - pad, p.max(axis=1) + pad
        by_x = np.argsort(points[:, 0], kind="stable")
        start = np.searchsorted(points[by_x, 0], lo[:, 0])
        counts = np.searchsorted(points[by_x, 0], hi[:, 0], side="right") - start
        cell = np.repeat(np.arange(self.num_cells), counts)
        offset = np.repeat(start - np.cumsum(counts) + counts, counts)
        point = by_x[np.arange(len(cell)) + offset]
        keep = (lo[cell, 1] <= points[point, 1]) & (points[point, 1] <= hi[cell, 1])
        point, cell = point[keep], cell[keep]
        inside = (self.barycentric_coordinates(cell, points[point]) >= -tol).all(axis=1)
        order = np.lexsort((cell[inside], point[inside]))
        return point[inside][order], cell[inside][order]

    def __repr__(self):
        return (
            f"SimplicialMesh(d={self.dim}, {self.num_vertices} vertices, "
            f"{self.num_cells} cells, {self.num_faces} faces)"
        )


def _grid(n, width, corner, keep=None):
    """Triangulated grid of squares of side 1/n, `width` n of them to a side,
    with lower-left corner (corner, corner); only the squares whose centres
    (cx, cy) pass `keep(cx, cy)` are kept (all by default), and the vertices
    of no kept square are dropped.

    Every square is split along the same lower-left to upper-right diagonal
    so that generated tables are reproducible bit-for-bit.
    """
    if int(n) != n or n < 1:
        raise MeshError("n must be a positive integer")
    n = int(n)
    m = width * n
    ii, jj = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
    vertices = np.stack([ii.ravel() / n + corner, jj.ravel() / n + corner], axis=1)

    i, j = (k.ravel() for k in np.meshgrid(np.arange(m), np.arange(m), indexing="ij"))
    if keep is not None:
        inside = keep((i + 0.5) / n + corner, (j + 0.5) / n + corner)
        i, j = i[inside], j[inside]
    a = i * (m + 1) + j  # vertex (i, j); b, c, d go counter-clockwise
    b, c, d = a + m + 1, a + m + 2, a + 1
    cells = np.concatenate([np.stack([a, b, c], axis=1),
                            np.stack([a, c, d], axis=1)])
    used = np.zeros(len(vertices), dtype=bool)
    used[cells] = True
    return SimplicialMesh(vertices[used], (np.cumsum(used) - 1)[cells])


def build_unit_square(n):
    """Uniform n-by-n triangulation of the unit square; mesh size sqrt(2)/n."""
    return _grid(n, 1, 0.0)


def build_lshape(n):
    """L-shaped domain (-1,1)^2 minus the quadrant x > 0, y < 0, with `n`
    squares per unit side, triangulated as :func:`build_unit_square`."""
    return _grid(n, 2, -1.0, keep=lambda cx, cy: (cx <= 0.0) | (cy >= 0.0))


def refine_red(mesh):
    """Uniform red refinement: each triangle split into 4 congruent children.

    Children are built from edge midpoints; the maximal mesh size halves
    exactly and the shape parameter is unchanged in 2d.
    """
    if mesh.dim != 2:
        raise UnsupportedDimensionError("red refinement implemented for d = 2 only")
    nv = mesh.num_vertices
    midpoints = mesh.face_midpoints
    vertices = np.concatenate([mesh.vertices, midpoints])
    m = nv + mesh.cell_faces  # (T, 3): midpoint of edge opposite vertex i
    c = mesh.cells
    children = np.concatenate([
        np.stack([c[:, 0], m[:, 2], m[:, 1]], axis=1),
        np.stack([c[:, 1], m[:, 0], m[:, 2]], axis=1),
        np.stack([c[:, 2], m[:, 1], m[:, 0]], axis=1),
        m,
    ])
    return SimplicialMesh(vertices, children)


def shape_parameter(mesh):
    """Largest gamma with gamma * r_K <= h_K for all cells: min_K h_K / r_K."""
    if np.any(mesh.r_cell <= 0.0):
        raise MeshError("degenerate cell: zero inradius")
    return float(np.min(mesh.h_cell / mesh.r_cell))


def check_matching(mesh):
    """Verify the matching-mesh invariants; return a list of violations.

    Checks: face incidence counts, opposite normals on interior faces,
    positive volumes and inradii, h_F <= h_K, the divergence-theorem closure
    sum_F |F| n_K(F) = 0 per cell, hanging vertices (a vertex lying in
    the closure of a cell without being one of its vertices) and unused
    vertices (one that no cell refers to and no cell contains). The
    geometric identities hold to a slack of 1e-12, vertex containment to
    1e-9.
    """
    tol = 1e-12
    problems = []
    counts = np.bincount(mesh.cell_faces.ravel(), minlength=mesh.num_faces)
    if counts.min(initial=2) < 1 or counts.max(initial=0) > 2:
        problems.append("face incidence count outside {1, 2}")

    n_sum = np.zeros((mesh.num_faces, 2))
    np.add.at(n_sum, mesh.cell_faces, mesh.normals)  # n_K1 + n_K2 on interior faces
    bad = mesh.interior_faces[np.linalg.norm(n_sum[mesh.interior_faces], axis=1) > tol]
    if len(bad):
        problems.append(f"normals on interior face {bad.min()} are not opposite")

    if np.any(mesh.volumes <= 0.0):
        problems.append("non-positive cell volume")
    if np.any(mesh.r_cell <= 0.0) or np.any(mesh.r_cell > mesh.h_cell):
        problems.append("inradius out of range (0, h_K]")
    if np.any(mesh.h_face[mesh.cell_faces] > mesh.h_cell[:, None] * (1 + tol)):
        problems.append("face diameter exceeds cell diameter")

    lengths = mesh.h_face[mesh.cell_faces]  # (T, 3)
    closure = np.einsum("tf,tfd->td", lengths, mesh.normals)
    if np.abs(closure).max(initial=0.0) > tol * max(1.0, mesh.h_cell.max()):
        problems.append("sum of |F| n_K over cell faces does not vanish")

    # hanging vertices: every vertex inside closure(K) must be a vertex of K
    vertex, cell = mesh.containing_cells(mesh.vertices, 1e-9)
    hanging = np.flatnonzero(np.all(mesh.cells[cell] != vertex[:, None], axis=1))
    if len(hanging):
        i = hanging[np.argmin(cell[hanging])]  # lowest cell, then its lowest vertex
        problems.append(
            f"vertex {vertex[i]} hangs on cell {cell[i]} (mesh is not matching)"
        )

    # unused vertices outside every cell (an unused one inside a cell hangs)
    unused = np.bincount(mesh.cells.ravel(), minlength=mesh.num_vertices) == 0
    unused[vertex] = False
    if unused.any():
        problems.append(f"vertex {np.flatnonzero(unused)[0]} is used by no cell")
    return problems


def read_mesh_file(path):
    """Read the plain-text node/element format.

    Line 1: ``<num_vertices> <num_cells>``; then one vertex per line
    (coordinates), then one cell per line (0-based vertex indices).
    Blank lines and ``#`` comments are ignored. Every `MeshError` it
    raises starts with the path.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise MeshError(f"{path}: cannot read: {reason}") from exc
    lines = []
    for lineno, text in enumerate(raw, start=1):
        stripped = text.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise MeshError(f"{path}: empty mesh file")

    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise MeshError(f"{path}:{lineno}: header must be '<nv> <nc>'")
    try:
        nv, nc = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshError(f"{path}:{lineno}: non-integer header counts") from None
    if nv < 0 or nc < 0:
        raise MeshError(f"{path}:{lineno}: negative header counts")
    if len(lines) != 1 + nv + nc:
        raise MeshError(
            f"{path}: expected {1 + nv + nc} data lines, found {len(lines)}"
        )

    vdim = len(lines[1][1].split()) if nv else 2
    if vdim == 3:
        raise UnsupportedDimensionError(f"{path}: 3d mesh files are not supported in v1")
    vertices = np.empty((nv, 2))
    for row, (lineno, text) in enumerate(lines[1:1 + nv]):
        parts = text.split()
        if len(parts) != 2:
            raise MeshError(f"{path}:{lineno}: expected 2 coordinates")
        try:
            vertices[row] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad coordinate") from None

    cells = np.empty((nc, 3), dtype=np.int64)
    for row, (lineno, text) in enumerate(lines[1 + nv:]):
        parts = text.split()
        if len(parts) != 3:
            raise MeshError(f"{path}:{lineno}: expected 3 vertex indices")
        try:
            cells[row] = [int(p) for p in parts]
        except ValueError:
            raise MeshError(f"{path}:{lineno}: bad vertex index") from None
    try:
        return SimplicialMesh(vertices, cells)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


def write_mesh_file(mesh, path):
    """Write a mesh in the plain-text node/element format."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_cells}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for a, b, c in mesh.cells:
            fh.write(f"{a} {b} {c}\n")
