"""Cell-local HHO operators and the discrete space.

A discrete function of degree p is a pair: polynomial coefficients of degree
p per cell plus coefficients of degree p per interior face (boundary faces
carry no unknowns; their data is structurally zero). It is stored as one dof
vector, the cell blocks first by index, then the interior-face blocks in
the mesh's order (`SimplicialMesh.interior_faces`, a nested-dissection
order); this module owns that layout (`HHOSpace.local_dof_ids`,
`HHOSpace.split`). :class:`HHOSpace` precomputes, for every geometry
class of cells, the reconstruction matrix mapping local (cell, face)
coefficients to the degree-(p+1) reconstruction, obtained from the local
Neumann problem solved on the mean-zero complement with the constant fixed
by the cell average. Both terms of the HHO form are read from it, per class
and gathered to a block of cells where they are needed:

* the face-residual trace matrices behind the stabilization form (with the
  h_F^{-1} face weight), built from the stabilization operator
  (`HHOSpace.face_traces`), and
* the local bilinear blocks condensed and assembled by the `system` module
  (`HHOSpace.local_matrices`).

A cell enters the local operators only through its scaled metric
2|K| J^{-1} J^{-T} and its face orientations; the cells that share the exact
bits of both form a class, whose operators are formed once. Per cell the
space stores only the class id and the dof map, and per-cell work runs over
fixed-size cell blocks (:class:`HHOSpace`).

All local matrices are pure functions of immutable mesh/basis data; any set
of cells may be processed concurrently.
"""

import numpy as np
from scipy import sparse

from .polyquad import (
    MAX_DEGREE,
    UnsupportedDegreeError,
    cell_basis_gradients,
    cell_basis_laplacians,
    cell_basis_values,
    cell_quadrature,
    face_barycentric,
    face_basis_values,
    face_quadrature,
    quad_for_degree,
    space_dimension,
    symmetrize,
)

P_MAX = 3

# cells per block of per-cell work: the temporaries of a block have a fixed
# size (about 3 MB at p = 3), whatever the number of cells
CELL_BLOCK = 256


def smoother_degree(p):
    """Degree 2 + max(p, 1) of the smoother's broken output at HHO degree p;
    the load rule integrates it against the load with `quad_extra` more."""
    return 2 + max(p, 1)


def max_quad_extra(p):
    """Largest `quad_extra` at HHO degree p: the load rule's degree
    smoother_degree(p) + quad_extra stays within `MAX_DEGREE`."""
    return MAX_DEGREE - smoother_degree(p)


def cell_blocks(num_cells):
    """Consecutive slices of at most `CELL_BLOCK` cells covering all cells."""
    return [slice(s, min(s + CELL_BLOCK, num_cells))
            for s in range(0, num_cells, CELL_BLOCK)]


class BrokenPoly:
    """Piecewise polynomial on the mesh: per-cell coefficients in the cell basis."""

    def __init__(self, mesh, degree, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        expected = (mesh.num_cells, space_dimension(degree))
        if coeffs.shape != expected:
            raise ValueError(f"coefficient shape {coeffs.shape}, expected {expected}")
        self.mesh = mesh
        self.degree = degree
        self.coeffs = coeffs

    def _pull_back(self, points, cells):
        """Cells (T,) and barycentric coordinates (T, Q, 3) of points (T, Q, 2)."""
        cells = np.arange(self.mesh.num_cells)[cells]
        return cells, self.mesh.barycentric_coordinates(cells[:, None], points)

    def values_at(self, points, cells=slice(None)):
        """Cell-wise values at physical points (T, Q, 2) aligned with `cells`."""
        cells, bary = self._pull_back(points, cells)
        vals = cell_basis_values(self.degree, bary)
        return (vals @ self.coeffs[cells][..., None])[..., 0]

    def gradients_at(self, points, cells=slice(None)):
        """Broken gradient at physical points (T, Q, 2) -> (T, Q, 2)."""
        cells, bary = self._pull_back(points, cells)
        grads = cell_basis_gradients(self.degree, bary)
        ref = (self.coeffs[cells][:, None, None, :] @ grads)[..., 0, :]
        return ref @ self.mesh.inverse_jacobians[cells]

    def values_on(self, table, cells=slice(None)):
        """Values of `cells` (T, Q) at the same barycentric points in every
        cell, from the basis table (Q, n) tabulated there once
        (`cell_basis_values(self.degree, bary)`)."""
        return self.coeffs[cells] @ table.T

    def gradients_on(self, grads, cells=slice(None)):
        """Gradients of `cells` (T, Q, 2) at the same barycentric points in
        every cell, from the reference gradient table (Q, n, 2) tabulated
        there once (`cell_basis_gradients(self.degree, bary)`).

        The coefficients are contracted with the reference table first; only
        the (T, Q, 2) result is mapped by J_K^{-1}.
        """
        Q, n, _ = grads.shape
        ref = self.coeffs[cells] @ grads.transpose(1, 0, 2).reshape(n, 2 * Q)
        return ref.reshape(-1, Q, 2) @ self.mesh.inverse_jacobians[cells]


def checked_values(fn, points, name, gradient=False):
    """fn(points) for points (..., 2), checked before use.

    Scalar values must have shape points.shape[:-1], gradients (gradient=True)
    points.shape, and every value must be finite; anything else raises
    ValueError naming `name`.
    """
    shape = points.shape if gradient else points.shape[:-1]
    vals = np.asarray(fn(points), dtype=float)
    if vals.shape != shape:
        raise ValueError(f"{name} returned shape {vals.shape}, expected {shape}")
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} returned non-finite values")
    return vals


def _check_mesh(v, mesh):
    """Refuse a BrokenPoly that does not live on `mesh` (the same vertices
    and cells): its coefficients are read by cell index."""
    if v.mesh is not mesh and not (
        np.array_equal(v.mesh.vertices, mesh.vertices)
        and np.array_equal(v.mesh.cells, mesh.cells)
    ):
        raise ValueError(
            f"BrokenPoly is defined on another mesh ({v.mesh.num_cells} "
            f"cells) than the space ({mesh.num_cells} cells)"
        )


def _evaluate(v, mesh, points, cells=slice(None)):
    """Evaluate a callable (vectorized over trailing coordinate axis) or a
    BrokenPoly on `mesh` (`_check_mesh`) at points of `mesh`."""
    if isinstance(v, BrokenPoly):
        _check_mesh(v, mesh)
        return v.values_at(points, cells=cells)
    return checked_values(v, points, "function v")


def _t(a):
    """Batched transpose of the last two axes."""
    return a.swapaxes(-1, -2)


def _gather(vec, ids):
    """Rows vec[ids] of a (n, ...) array, zero where an id is negative."""
    out = np.zeros(ids.shape + vec.shape[1:])
    keep = ids >= 0
    out[keep] = vec[ids[keep]]
    return out


def _tmul(a, b):
    """Batched a^T b over the second-to-last axis: (T, Q, m), (T, Q, n) -> (T, m, n)."""
    return _t(a) @ b


def metric(mesh, cells=slice(None)):
    """Entries (G11, G12, G22) of the metric G = J^{-1} J^{-T} per cell, (T, 3)."""
    jinv = mesh.inverse_jacobians[cells]
    G = jinv @ _t(jinv)
    return G[:, [0, 0, 1], [0, 1, 1]]


def reference_stiffness(degree, rule):
    """The reference matrices S_11, S_12 + S_21, S_22 (3, n, n) of the
    degree-`degree` stiffness, tabulated on the rule."""
    g = cell_basis_gradients(degree, rule.points)  # (Q, n, 2)
    S = np.einsum("qia,qjb->abij", rule.weights[:, None, None] * g, g)
    return np.stack([S[0, 0], S[0, 1] + S[1, 0], S[1, 1]])


def stiffness_blocks(mesh, S, cells=slice(None)):
    """Stiffness blocks int_K grad phi_i . grad phi_j of `cells` (all by
    default), (T, n, n): 2|K| sum_ab G_ab S_ab with the metric G and the
    reference matrices S of :func:`reference_stiffness`."""
    coef = 2.0 * mesh.volumes[cells, None] * metric(mesh, cells)
    return symmetrize(_metric_times(coef, S))


def _metric_times(coef, tables):
    """sum_a coef[:, a] tables[a] per row of coef (T, 3), for reference
    tables (3, ...) -> (T, ...), as one matrix product taken on at least two
    rows: numpy sends a one-row product to GEMV, which rounds differently
    from GEMM, so a row's result would depend on the rows it is formed with.
    """
    T, flat = len(coef), tables.reshape(len(tables), -1)
    rows = coef if T > 1 else np.repeat(coef, 2, axis=0)
    return (rows @ flat)[:T].reshape(T, *tables.shape[1:])


def gradient_moments(mesh, grads, wg, cells=slice(None)):
    """int_K g . grad phi_i on `cells` (T, n) from weighted data wg (T, Q, 2).

    The data is mapped to J_K^{-1} g and contracted with the reference
    gradient table `grads` (Q, n, 2), tabulated once at the rule's points."""
    mapped = wg @ _t(mesh.inverse_jacobians[cells])
    Q, n, _ = grads.shape
    return mapped.reshape(-1, 2 * Q) @ grads.transpose(0, 2, 1).reshape(2 * Q, n)


class HHOSpace:
    """Discrete HHO space of degree p on a mesh, with cached local operators.

    A cell enters the local operators only through its scaled metric
    2|K| J^{-1} J^{-T} and its face orientations `face_flips`. The cells
    that share the exact bits of both form a geometry class (two on every
    built-in grid, one per cell on a jittered mesh), numbered in the order
    of their first cell `class_cells` (C,). Stored per cell (leading axis T)
    are only the class id `cell_class` (T,) and the dof map `local_dof_ids`
    (T, nloc); the reconstruction `G` (C, n1, nloc) is held per class, and
    `gather(table, cells)` reads any class table (C, ...) for a block of
    cells. Both terms of
    the HHO form a_h = (grad R ., grad R .) + s_h are read from `G`:
    `face_traces(cells)` gives the face-residual traces T_K
    (T, 3, nf, nloc) behind s_h and `local_matrices(cells)` the local
    bilinear blocks A_K (T, nloc, nloc), each formed for the classes of a
    block of cells and gathered to its cells (`class_matrices` gives A_K
    per class, for the static condensation of `system`). Formed from
    bitwise-equal inputs, a class's tables are bitwise those of each of its
    cells. Every other cell table is a reference table times a per-cell
    scale and is kept only in reference form:

    * the degree-(p+1) cell mass is 2|K| `mass_hat` (n1, n1),
    * the degree-(p+1) integrals int_K phi_i are 2|K| `ints_hat` (n1,),
    * the degree-(p+1) stiffness is 2|K| sum_ab G_ab S_ab with the metric G
      and the reference matrices `stiff_hat` (3, n1, n1), formed for a
      block of cells where it is read (:func:`stiffness_blocks`),
    * the face basis is orthonormal, so the face mass is h_F I and the L2
      projection onto P^p(F) of a cell polynomial on local face i is its
      trace int_F psi_m phi_j / h_F, the reference table
      `proj_hat[i, face_flips[:, i]]`, with `proj_hat` (3, 2, nf, n1) per
      (local face, orientation), and
    * the cell projection Pi_M onto P^p is `pi_hat` (nc, n1).

    The class key, the construction (over blocks of `CELL_BLOCK` classes),
    the local operators, the projections and the error functions of
    `analysis` run over blocks of `CELL_BLOCK` cells: the stiffness, the
    local Neumann data behind `G`, the stabilization operator, T_K and A_K
    exist one block at a time, so a level's held memory is the dof map,
    the class ids, `G` and the tables above, and its peak the factor of the
    face system, whatever the cell count.

    Parameters
    ----------
    mesh : SimplicialMesh
    p : int
        Polynomial degree of cell and face unknowns, 0 <= p <= 3.
    quad_extra : int
        Extra quadrature exactness for load integrands (callables are
        generally non-polynomial), from 0 to `max_quad_extra(p)`; the single
        source of quadrature error in rough-load runs.
    """

    def __init__(self, mesh, p, quad_extra=2):
        if not 0 <= p <= P_MAX:
            raise UnsupportedDegreeError(f"degree p={p} outside [0, {P_MAX}]")
        if not 0 <= quad_extra <= max_quad_extra(p):
            # fewer points than the smoothed test functions need would
            # under-integrate the load without any visible failure; above
            # the bound there is no rule
            raise ValueError(
                f"quad_extra={quad_extra} must be in [0, {max_quad_extra(p)}] "
                f"at degree {p} (quadrature degree {smoother_degree(p)} + "
                f"quad_extra <= {MAX_DEGREE})"
            )
        self.mesh = mesh
        self.p = p
        self.quad_extra = int(quad_extra)

        self.nc = space_dimension(p)
        self.n1 = space_dimension(p + 1)
        self.nf = p + 1
        self.nloc = self.nc + 3 * self.nf
        self.degree_star = smoother_degree(p)

        self.rule_cell = quad_for_degree(2, 2 * (p + 3))
        self.rule_face = quad_for_degree(1, 2 * (p + 3))
        # projections of general (transcendental) fields: the highest rule,
        # so the structural identities hold to 1e-10 even on the 1 x 1 grid
        self.rule_cell_proj = quad_for_degree(2, MAX_DEGREE)
        self.rule_face_proj = quad_for_degree(1, MAX_DEGREE)
        self.rule_cell_load = quad_for_degree(2, self.degree_star + self.quad_extra)

        self._build_cell_tables()
        flux_hat = self._build_face_tables()
        self._build_classes()
        self._build_local_operators(flux_hat)
        self._build_dof_maps()

    # -- construction ---------------------------------------------------

    def _build_cell_tables(self):
        rule = self.rule_cell
        phi1 = cell_basis_values(self.p + 1, rule.points)  # (Q, n1)
        wphi1 = rule.weights[:, None] * phi1
        self.mass_hat = symmetrize(_t(wphi1) @ phi1)
        self.ints_hat = wphi1.sum(axis=0)
        self.stiff_hat = reference_stiffness(self.p + 1, rule)

    def _build_face_tables(self):
        """Reference face tables; returns the flux table only the build reads."""
        p, rule = self.p, self.rule_face
        # reference tables per (local face, orientation); rule points run
        # from the face's lower-index vertex, so s = t - 1/2
        t = rule.points[:, 1]
        bary = face_barycentric(t)  # (3, 2, Q, 3)
        wpsi = rule.weights[:, None] * face_basis_values(p, t - 0.5)  # (Q, nf)
        # the face mass is h_F I: the trace over h_F is the projection
        self.proj_hat = _t(wpsi) @ cell_basis_values(p + 1, bary)
        # h_F J^{-1} n_K = 2|K| J^{-1} J^{-T} nu_i on a counter-clockwise
        # cell, with nu_i the scaled outward normal of reference face i: the
        # flux is sum_ab G_ab nu_a f_b with f_b = int psi_m d_b phi_j, one
        # table per metric entry (G11, G12, G22)
        f = _t(wpsi) @ np.moveaxis(cell_basis_gradients(p + 1, bary), -1, 2)
        f1, f2 = f[:, :, 0], f[:, :, 1]  # (3, 2, nf, n1)
        nu = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # (3, 2)
        nu1, nu2 = nu.T[:, :, None, None, None]  # (3, 1, 1, 1) each
        return np.stack([nu1 * f1, nu2 * f1 + nu1 * f2, nu2 * f2], axis=2)

    def _build_classes(self):
        """Class id of every cell: the cells that share the exact bits of
        their scaled metric 2|K| J^{-1} J^{-T} and face orientations form a
        class, numbered in the order of their first cell (`class_cells`).
        Each cell block is keyed on its own, and only the distinct keys of
        the blocks are matched across blocks."""
        mesh, T = self.mesh, self.mesh.num_cells
        self.cell_class = np.empty(T, dtype=np.int64)
        keys, firsts, count = [], [], 0
        for cells in cell_blocks(T):
            coef = 2.0 * mesh.volumes[cells, None] * metric(mesh, cells)
            bits = np.ascontiguousarray(
                np.concatenate([coef.view(np.int64), mesh.face_flips[cells]], axis=1))
            row = np.dtype((np.void, bits.itemsize * bits.shape[1]))
            key, first, at = np.unique(bits.view(row)[:, 0],
                                       return_index=True, return_inverse=True)
            self.cell_class[cells] = count + at  # an index into the block keys
            keys.append(key)
            firsts.append(cells.start + first)
            count += len(key)
        # a key's first entry is in the earliest block that holds it, at that
        # block's first cell with it: the class's first cell
        _, first, at = np.unique(np.concatenate(keys), return_index=True,
                                 return_inverse=True)
        first = np.concatenate(firsts)[first]
        order = np.argsort(first)
        self.class_cells = first[order]
        relabel = np.argsort(order)[at]  # the inverse permutation
        for cells in cell_blocks(T):
            self.cell_class[cells] = relabel[self.cell_class[cells]]

    def _build_local_operators(self, flux_hat):
        """Allocate `G` and fill it for one block of classes at a time."""
        C, nc, n1, nloc = len(self.class_cells), self.nc, self.n1, self.nloc
        # the Laplacian block of the local Neumann data, -int (lap phi_j)
        # q_i, from three reference matrices
        rule = self.rule_cell
        wphi_p = rule.weights[:, None] * cell_basis_values(self.p, rule.points)
        lap = cell_basis_laplacians(self.p + 1, rule.points)  # (Q, n1, 3)
        lap_hat = lap.transpose(2, 1, 0) @ wphi_p  # (3, n1, nc)
        # Pi_M is one reference matrix since the mass is 2|K| times mass_hat
        self.pi_hat = np.linalg.solve(self.mass_hat[:nc, :nc], self.mass_hat[:nc, :])
        self.G = np.empty((C, n1, nloc))
        for classes in cell_blocks(C):
            self._build_block(classes, flux_hat, lap_hat)

    def _build_block(self, classes, flux_hat, lap_hat):
        """Fill the rows `classes` of `G` from the first cell of each class
        (T cells here).

        A single class is formed on two copies of its cell: numpy takes
        the flux product of one cell through BLAS and that of more cells
        without it, and the two round differently.
        """
        mesh, G = self.mesh, self.G[classes]
        cells = np.resize(self.class_cells[classes], max(len(G), 2))
        nc, n1, nf, nloc = self.nc, self.n1, self.nf, self.nloc
        flips = mesh.face_flips[cells]
        coef = 2.0 * mesh.volumes[cells, None] * metric(mesh, cells)
        T = len(coef)

        # right-hand side of the local Neumann problem, test function phi_j:
        # the Laplacian columns and the face columns int_F psi_m grad(phi_j) . n_K
        B = np.zeros((T, n1, nloc))
        B[:, :, :nc] = -_metric_times(coef, lap_hat)
        for i in range(3):
            flux = coef[:, None, :] @ flux_hat[i, flips[:, i]].reshape(T, 3, nf * n1)
            B[:, :, nc + i * nf: nc + (i + 1) * nf] = _t(flux.reshape(T, nf, n1))

        # solve on the mean-zero complement, then fix the constant by the
        # cell-average condition (|K| cancels)
        stiff = stiffness_blocks(mesh, self.stiff_hat, cells)
        Gred = np.linalg.solve(stiff[:, 1:, 1:], B[:, 1:, :])[:len(G)]
        del B
        G[:, 1:, :] = Gred
        G[:, 0, :] = -2.0 * (self.ints_hat[1:] @ Gred)
        G[:, 0, :nc] += 2.0 * self.ints_hat[:nc]

    def _build_dof_maps(self):
        mesh = self.mesh
        T, nc, nf = mesh.num_cells, self.nc, self.nf
        self.num_cell_dofs = T * nc
        self.num_face_dofs = mesh.num_interior_faces * nf
        self.num_dofs = self.num_cell_dofs + self.num_face_dofs

        self.local_dof_ids = np.empty((T, self.nloc), dtype=np.int64)
        for cells in cell_blocks(T):
            ids = self.local_dof_ids[cells]
            ids[:, :nc] = (cells.start + np.arange(len(ids)))[:, None] * nc + np.arange(nc)
            fidx = mesh.face_interior_index[mesh.cell_faces[cells]]  # (B, 3)
            face = T * nc + fidx[..., None] * nf + np.arange(nf)
            face[fidx < 0] = -1
            ids[:, nc:] = face.reshape(len(ids), -1)

    # -- dof-vector layout -------------------------------------------------

    def _checked(self, vec):
        vec = np.asarray(vec)
        if len(vec) != self.num_dofs:
            raise ValueError(
                f"dof vector has length {len(vec)}, expected {self.num_dofs}"
            )
        return vec

    def split(self, vec):
        """Cell view (T, nc, ...) and interior-face view (Ei, nf, ...) of a
        dof vector, or of a (num_dofs, ...) block of them."""
        vec = self._checked(vec)
        n, rest = self.num_cell_dofs, vec.shape[1:]
        return (vec[:n].reshape(self.mesh.num_cells, self.nc, *rest),
                vec[n:].reshape(self.mesh.num_interior_faces, self.nf, *rest))

    def local_coeffs(self, vec):
        """Per-cell local dof vectors (T, nloc, ...) of a dof vector or of a
        (num_dofs, ...) block of them; boundary faces padded with 0."""
        return _gather(self._checked(vec), self.local_dof_ids)

    # -- projections and local operators ----------------------------------

    def project_cell(self, v):
        """L2 projection onto P^p(M), one cell block at a time. A BrokenPoly
        is read from its basis tabulated once at the rule's points, not
        pulled back from the physical points of every cell."""
        mesh, rule, nc = self.mesh, self.rule_cell_proj, self.nc
        phi = cell_basis_values(self.p, rule.points)
        if isinstance(v, BrokenPoly):
            _check_mesh(v, mesh)
            table = cell_basis_values(v.degree, rule.points)
            values = lambda pts, cells: v.values_on(table, cells)
        else:
            values = lambda pts, cells: _evaluate(v, mesh, pts, cells)
        coeffs = np.empty((mesh.num_cells, nc))
        for cells in cell_blocks(mesh.num_cells):
            pts, w = cell_quadrature(mesh, rule, cells)
            rhs = (w * values(pts, cells)) @ phi
            coeffs[cells] = np.linalg.solve(self.mass_hat[:nc, :nc], rhs.T).T
        return BrokenPoly(mesh, self.p, coeffs / (2.0 * mesh.volumes[:, None]))

    def project_face(self, v):
        """L2 projection onto P^p(F) per interior face -> (Ei, p+1)."""
        faces = self.mesh.interior_faces
        rule = self.rule_face_proj
        pts, w = face_quadrature(self.mesh, rule, faces)
        psi = face_basis_values(self.p, rule.points[:, 1] - 0.5)
        fv = _evaluate(v, self.mesh, pts, cells=self.mesh.face_cells[faces, 0])
        return (w * fv) @ psi / self.mesh.h_face[faces][:, None]

    def interpolate(self, v):
        """HHO interpolant: dof vector of the cell and face L2 projections of v."""
        return np.concatenate(
            [self.project_cell(v).coeffs.ravel(), self.project_face(v).ravel()]
        )

    def reconstruct(self, vec):
        """Degree-(p+1) potential reconstruction, one cell block at a time."""
        x = self.local_coeffs(vec)
        coeffs = np.empty((self.mesh.num_cells, self.n1))
        for cells in cell_blocks(self.mesh.num_cells):
            coeffs[cells] = np.einsum("tij,tj->ti", self.gather(self.G, cells),
                                      x[cells])
        return BrokenPoly(self.mesh, self.p + 1, coeffs)

    def gather(self, table, cells=slice(None)):
        """The rows of a class table (C, ...), such as `G`, for `cells` (all
        by default), (T, ...): a read-only view when the cells' classes are
        consecutive (as on a mesh with one class per cell), else a copy."""
        cls = self.cell_class[cells]
        if len(cls) and np.array_equal(cls, np.arange(cls[0], cls[0] + len(cls))):
            rows = table[cls[0]:cls[0] + len(cls)]
            rows.flags.writeable = False
            return rows
        return table[cls]

    def _per_cell(self, form, cells):
        """Blocks of `cells` gathered from `form`, a map from class ids to
        their blocks, formed for the classes of one cell block at a time;
        cells of a single block that are each a class of their own (as on
        a mesh with one class per cell) are formed directly, with no
        gather."""
        cls = self.cell_class[cells]
        out = None
        for block in cell_blocks(len(cls)):
            classes, at = np.unique(cls[block], return_inverse=True)
            if len(classes) == len(cls):
                return form(cls)
            blocks = form(classes)
            if out is None:
                out = np.empty(cls.shape + blocks.shape[1:])
            np.take(blocks, at, axis=0, out=out[block])
        return out

    def _face_residuals(self, S, cells):
        """Face residuals T_i = FaceSel_i - Pi_F(S .)|_F of `cells`,
        (T, 3, nf, nloc), for a map S (T, n1, nloc) or (n1, nloc) from the
        local dofs to a degree-(p+1) cell polynomial; the face projection
        is the reference table `proj_hat`, gathered by orientation."""
        nc, nf = self.nc, self.nf
        flips = self.mesh.face_flips[cells]
        res = np.empty((len(flips), 3, nf, self.nloc))
        for i in range(3):
            res[:, i] = -(self.proj_hat[i, flips[:, i]] @ S)
            res[:, i, :, nc + i * nf: nc + (i + 1) * nf] += np.eye(nf)
        return res

    def _add_penalty(self, A, res):
        """A + sum_F T_F^T T_F for the face residuals `res` (T, 3, nf, nloc),
        in place: the h_F^{-1} weight cancels the face mass h_F I. The sum
        over the three faces is one (T, 3 nf, nloc) product; the upper
        triangle is then mirrored (exact symmetry)."""
        T, nloc = len(A), self.nloc
        res = res.reshape(T, -1, nloc)
        A += _tmul(res, res)
        lower = np.tril_indices(nloc, -1)
        A[:, lower[0], lower[1]] = A[:, lower[1], lower[0]]
        return A

    def face_traces(self, cells=slice(None)):
        """Face-residual traces T_i = FaceSel_i - Pi_F(S .)|_F of `cells`
        (all by default), (T, 3, nf, nloc), formed per class from `G`.

        S = s_M + (Id - Pi_M) R is the stabilization operator, with the
        reference projection `pi_hat`; h_F cancels in the face projection
        `proj_hat`, so no per-cell scale enters.
        """
        return self._per_cell(self._class_traces, cells)

    def _class_traces(self, classes):
        G, nc = self.G[classes], self.nc
        S = G.copy()
        S[:, :nc, :] -= self.pi_hat @ G
        idx = np.arange(nc)
        S[:, idx, idx] += 1.0
        return self._face_residuals(S, self.class_cells[classes])

    def local_matrices(self, cells=slice(None)):
        """Local bilinear blocks A_K of `cells` (all by default),
        (T, nloc, nloc), formed per class: grad(R .) . grad(R .) plus the
        stabilization."""
        return self._per_cell(self.class_matrices, cells)

    def class_matrices(self, classes):
        """Local bilinear blocks A_K of the classes `classes`, one per
        class, formed from `G` and the first cell of each class."""
        G = self.G[classes]
        stiff = self._class_stiffness(classes)
        return self._add_penalty(_t(G) @ (stiff @ G), self._class_traces(classes))

    def _class_stiffness(self, classes):
        return stiffness_blocks(self.mesh, self.stiff_hat, self.class_cells[classes])

    def stab_form(self, vec):
        """Face-penalty stabilization s_h(vec, vec) of a dof vector
        (h_F^{-1}-weighted).

        The face residuals are read from the traces one cell block at a time.
        """
        x = self.local_coeffs(vec)
        r = np.empty((self.mesh.num_cells, 3, self.nf))
        for cells in cell_blocks(self.mesh.num_cells):
            r[cells] = np.einsum("tfml,tl->tfm", self.face_traces(cells), x[cells])
        return float(np.einsum("tfm,tfm->", r, r))

    def elliptic_project(self, v, grad_v):
        """Broken elliptic projection onto P^{p+1}(M), one cell block at a time."""
        mesh, rule = self.mesh, self.rule_cell_proj
        grads = cell_basis_gradients(self.p + 1, rule.points)
        coeffs = np.empty((mesh.num_cells, self.n1))
        for cells in cell_blocks(mesh.num_cells):
            pts, w = cell_quadrature(mesh, rule, cells)
            wg = w[..., None] * checked_values(
                grad_v, pts, "gradient grad_v", gradient=True)
            rhs = gradient_moments(mesh, grads, wg, cells)
            stiff = self._per_cell(self._class_stiffness, cells)
            cred = np.linalg.solve(stiff[:, 1:, 1:], rhs[:, 1:, None])[..., 0]
            ints_v = (w * _evaluate(v, mesh, pts, cells)).sum(axis=1)
            vol = mesh.volumes[cells]
            ints = (2.0 * vol)[:, None] * self.ints_hat[1:]
            coeffs[cells, 0] = (ints_v - np.einsum("ti,ti->t", ints, cred)) / vol
            coeffs[cells, 1:] = cred
        return BrokenPoly(mesh, self.p + 1, coeffs)

    # -- norms -------------------------------------------------------------

    def hho_norm_blocks(self):
        """Per-cell blocks H_K (T, nloc, nloc) of the coercivity norm: the
        broken H1 seminorm of the cell unknown plus the h_F^{-1}-weighted
        face penalties ||v_F - v_K||_F^2. The assembled matrix is
        `assemble_bilinear(space, space.hho_norm_blocks())`.

        The face residuals are those of `face_traces` with S the cell
        unknown itself (its trace is its face projection), and the penalty
        is added as in `local_matrices`. Like each block A_K, every H_K
        vanishes on the local constant (1 at cell dof 0 and at the first dof
        of each face) and is positive definite on its complement, which is
        what the element-by-element eigenvalue bound of Fried (J. Sound Vib.
        22, 1972) needs. Like A_K, H_K is formed per class.
        """
        return self._per_cell(self.class_norm_blocks, slice(None))

    def class_norm_blocks(self, classes):
        nc, n1, nloc = self.nc, self.n1, self.nloc
        cells = self.class_cells[classes]
        embed = np.eye(n1, nloc)
        embed[nc:] = 0.0  # the cell unknown as a degree-(p+1) polynomial
        H = np.zeros((len(cells), nloc, nloc))
        H[:, :nc, :nc] = stiffness_blocks(self.mesh, self.stiff_hat[:, :nc, :nc],
                                          cells)
        return self._add_penalty(H, self._face_residuals(embed, cells))


def scatter_blocks(blocks, row_ids, col_ids, shape):
    """Sum dense blocks (B, r, c) into a CSR matrix of the given shape.

    Block b lands at global rows row_ids[b] (r,) and columns col_ids[b] (c,);
    entries with a negative row or column id (unknowns that do not exist,
    such as boundary faces) are dropped and repeated positions are summed.
    """
    rows = np.broadcast_to(row_ids[:, :, None], blocks.shape)
    cols = np.broadcast_to(col_ids[:, None, :], blocks.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sparse.coo_matrix(
        (blocks[keep], (rows[keep], cols[keep])), shape=shape
    ).tocsr()


def scatter_add(values, ids, size):
    """Sum rows of values (*ids.shape, ...) into a (size, ...) array at ids.

    The counterpart of :func:`scatter_blocks` for applying blocks to data:
    entries with a negative id are dropped and repeated ids are summed in
    the order of ids, by one `np.add.at` on flattened positions (1-d:
    numpy's fast path).
    """
    rest = values.shape[ids.ndim:]
    m, flat = int(np.prod(rest)), ids.ravel()
    keep = flat >= 0
    pos = flat[keep, None] * m + np.arange(m)
    out = np.zeros(size * m)
    np.add.at(out, pos.ravel(), values.reshape(flat.size, m)[keep].ravel())
    return out.reshape((size,) + rest)


def assemble_bilinear(space, local_mats):
    """Scatter per-cell local matrices (T, nloc, nloc) into a global CSR matrix."""
    ids = space.local_dof_ids
    return scatter_blocks(local_mats, ids, ids, (space.num_dofs, space.num_dofs))
