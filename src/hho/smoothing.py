"""Moment-preserving smoothers mapping HHO fields into H1_0-conforming functions.

The stabilized smoother combines an averaging of the reconstruction at the
interior vertices, re-expanded with the hat functions (continuous piecewise
P1, zero on the boundary), with bubble corrections that restore the cell
moments up to degree p-1 and the interior-face moments up to degree p. The
bubbles reproduce every degree-(p+1) Lagrange function of an edge-interior
or cell-interior node, so averaging at those nodes would give the same
operator. Element bubbles are 27*l1*l2*l3, face bubbles 4*la*lb on each of
the two cells sharing the face; both are 1 at the respective barycenter.

Everything is linear with one-ring-local supports, so the smoother, from
HHO unknowns to broken polynomial coefficients of degree 2 + max(p, 1), is
kept as dense per-cell and per-face blocks with their index maps and applied
entity by entity (forward and transposed). The conformity and orthogonality
checks read the two sparse factors C and Q of S_H = C + Q W, scattered from
the same blocks; neither forms the averaging W or S_H itself. Cell and face
solves are independent per entity.
"""

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh

from .local_ops import (
    BrokenPoly,
    _gather,
    _t,
    _tmul,
    assemble_bilinear,
    scatter_add,
    scatter_blocks,
    stiffness_blocks,
)
from .polyquad import (
    cell_basis_values,
    face_barycentric,
    face_basis_values,
    reference_face_mass,
    space_dimension,
    symmetrize,
)
from .system import assemble

AVERAGING_VARIANTS = ("mean", "scott-zhang")


def lattice_multis(degree):
    """Barycentric multi-indices (a, b, c), a+b+c = degree, in a fixed order."""
    out = [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]
    return np.array(out, dtype=np.int64)


def lagrange_basis_values(degree, bary):
    """Values of the simplex Lagrange basis of `degree` at barycentric points.

    bary has shape (..., 3); the result has shape (..., n_lattice) with the
    node order of :func:`lattice_multis`. Affine invariant, so one table
    serves every cell.
    """
    multis = lattice_multis(degree)
    vals = np.ones(bary.shape[:-1] + (len(multis),))
    for idx, nu in enumerate(multis):
        for c in range(3):
            for m in range(nu[c]):
                vals[..., idx] *= (degree * bary[..., c] - m) / (nu[c] - m)
    return vals


def _bubbles(bary):
    """Cell bubble 27*l0*l1*l2 and the face bubbles 4*la*lb at barycentric points.

    bary has shape (..., 3); returns the cell values (...) and the face
    values (3, ...), face i being the one opposite local vertex i. All are 1
    at the barycenter of their entity.
    """
    cell = 27.0 * bary[..., 0] * bary[..., 1] * bary[..., 2]
    faces = np.stack(
        [4.0 * bary[..., (i + 1) % 3] * bary[..., (i + 2) % 3] for i in range(3)]
    )
    return cell, faces


def boundary_vertices(mesh):
    """Mask (NV,) of the vertices on a boundary face."""
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[mesh.faces[mesh.boundary_face_mask]] = True
    return mask


def lagrange_interpolant(mesh, degree, func):
    """Continuous piecewise-P^degree interpolant of `func` at the Lagrange nodes.

    `func` is evaluated at each cell's lattice points; a node shared by
    several cells gets bitwise the same coordinates from each of them (its
    barycentric weights have at most two nonzero terms). The values at the
    nodes on a boundary face or at a boundary vertex are forced to 0,
    producing an H1_0-conforming piecewise polynomial. Returns a BrokenPoly
    (continuous by construction).
    """
    if degree < 1:
        raise ValueError("Lagrange interpolant needs degree >= 1")
    multis = lattice_multis(degree)
    lattice_bary = multis / degree
    coords = np.einsum("la,tad->tld", lattice_bary, mesh.cell_vertices())
    nodal = np.asarray(func(coords.reshape(-1, 2)), dtype=float)
    nodal = nodal.reshape(coords.shape[:2])
    # node l lies on local face i when multis[l, i] == 0, and is local
    # vertex v when multis[l, v] == degree
    on_face = mesh.boundary_face_mask[mesh.cell_faces][:, None, :] & (multis == 0)
    at_vertex = boundary_vertices(mesh)[mesh.cells][:, None, :] & (multis == degree)
    nodal[(on_face | at_vertex).any(axis=-1)] = 0.0
    V = cell_basis_values(degree, lattice_bary)  # the same in every cell
    coeffs = np.linalg.solve(V, nodal.T).T
    return BrokenPoly(mesh, degree, coeffs)


class Smoother:
    """Stabilized bubble smoother for one space, kept as per-entity blocks.

    S_H maps an HHO dof vector x = (x_M, x_Sigma) to the broken degree-D
    coefficients of the smoothed function in five linear steps:

    * the reconstruction r = R x, from ``space.G`` on every cell,
    * averaging of r at the interior vertices: per cell the degree-(p+1)
      basis values at the three corners times the vertex weight
      (`avg_blocks`, (T, 3, n1)), summed at `avg_ids`,
    * hat re-expansion into the averaged reconstruction a, continuous
      piecewise P1 and zero on the boundary: one (3, 3) block `hat` on every
      cell maps the vertex values read at `node_ids` to the three P1
      coefficients, the leading ones of every larger basis,
    * the face residual v_Sigma = x_Sigma - tr a, the linear trace taken
      from the first cell of each interior face (`trace`, (Ei, 2, 3)), and
      the cell residual v_M = x_M - a, both padded where needed,
    * a plus the bubble correction B_Sigma v_Sigma + B_M (v_M - B_Sigma v_Sigma):
      (I - B_M) B_Sigma is one block per interior face and side
      (`face_bubble`, landing in `face_cells`), B_M one (nD, nD) block on
      every cell (`cell_block`), zero at p = 0 since P^{-1} = {0}.

    The blocks and their index maps are the one description of S_H.
    `apply_vector` and `apply_transpose` contract them entity by entity;
    `_factors` scatters the same blocks into the sparse C and Q of
    S_H = C + Q W, which the checks read, and `matrix` (read by no solver
    path or check) multiplies them out on first use only.

    Parameters
    ----------
    space : HHOSpace
    averaging : {'mean', 'scott-zhang'}
        Vertex rule of the averaging operator: arithmetic mean over the
        cells containing the vertex, or the single lowest-index cell.
    """

    def __init__(self, space, averaging="mean"):
        if averaging not in AVERAGING_VARIANTS:
            raise ValueError(f"unknown averaging variant {averaging!r}")
        self.space = space
        self.averaging_variant = averaging
        self.degree = space.degree_star
        self.nD = space_dimension(self.degree)

        self._build_lattice_tables()
        self._build_averaging()
        self._build_face_trace()
        self.cell_block = self._cell_bubble_block()
        self.face_bubble = self._face_bubble_blocks(np.eye(self.nD) - self.cell_block)
        self._matrix = None

    # -- blocks ------------------------------------------------------------

    def _build_lattice_tables(self):
        D = self.degree
        self.lat_bary = lattice_multis(D) / D
        # the Lagrange basis is affine invariant: one Vandermonde inverse
        # maps degree-D lattice values to coefficients in every cell
        self.invV_D = np.linalg.inv(cell_basis_values(D, self.lat_bary))
        self.phiK_lat, self.phiF_lat = _bubbles(self.lat_bary)  # (nD,), (3, nD)

    def _build_averaging(self):
        """Averaging at the interior vertices, then hat re-expansion."""
        space, mesh = self.space, self.space.mesh
        T, cells = mesh.num_cells, mesh.cells
        interior = ~boundary_vertices(mesh)
        self.num_nodes = int(interior.sum())
        node_index = np.full(mesh.num_vertices, -1, dtype=np.int64)
        node_index[interior] = np.arange(self.num_nodes)
        self.node_ids = node_index[cells]  # (T, 3), -1 on the boundary

        # degree-(p+1) basis values at the corners, the same in every cell;
        # the P1 basis is its prefix, so the leading (3, 3) block inverts to
        # the hat functions
        corners = cell_basis_values(space.p + 1, np.eye(3))  # (3, n1)
        self.hat = np.linalg.inv(corners[:, :3])
        if self.averaging_variant == "mean":
            counts = np.bincount(cells.ravel(), minlength=mesh.num_vertices)
            weight = 1.0 / counts[cells]
            self.avg_ids = self.node_ids
        else:
            weight = np.ones(cells.shape)
            min_cell = np.full(mesh.num_vertices, T, dtype=np.int64)
            np.minimum.at(min_cell, cells.ravel(), np.repeat(np.arange(T), 3))
            cell_ids = np.arange(T)[:, None]
            self.avg_ids = np.where(
                cell_ids == min_cell[cells], self.node_ids, -1
            )
        self.avg_blocks = corners * weight[:, :, None]  # (T, 3, n1)

    def _build_face_trace(self):
        """P1 coefficients of the first cell -> linear face coefficients of
        the trace, one block per interior face."""
        mesh = self.space.mesh
        faces = mesh.interior_faces
        self.face_cells = mesh.face_cells[faces].T  # (2, Ei): first, second
        # interpolate the trace at the two ends of each face: one reference
        # matrix per (local face, orientation) of the first cell
        t = np.array([0.0, 1.0])
        vf_inv = np.linalg.inv(face_basis_values(1, t - 0.5))
        trace_hat = vf_inv @ cell_basis_values(1, face_barycentric(t))
        self.trace = on_faces(trace_hat, mesh, faces, 0)  # (Ei, 2, 3)

    def _face_bubble_blocks(self, left):
        """Per-side blocks (2, Ei, nD, p+2) of `left` B_Sigma: degree-(p+1)
        face data -> broken degree-D coefficients in cell face_cells[side],
        for an (nD, nD) matrix `left` acting on every cell (the identity
        gives B_Sigma itself)."""
        space, mesh = self.space, self.space.mesh
        p = space.p
        faces = mesh.interior_faces

        # B_F solve in the scaled arclength coordinate; h_F cancels between
        # the bubble-weighted mass int s^(k+l) (1 - 4 s^2) ds and the moment
        # matrix, both read off the exact monomial integrals
        mass = reference_face_mass(p + 1)
        what_inv = np.linalg.inv(mass[:-1, :-1] - 4.0 * mass[1:, 1:])
        beta_mat = what_inv @ mass[:-1, :]  # (p+1, p+2)

        # B_F v is interpolated at the p+1 equispaced degree-p lattice nodes of
        # the face, ordered from its lower global vertex to its higher one;
        # per (local face, orientation) those nodes are cell lattice nodes
        t_nodes = np.arange(p + 1) / max(p, 1)
        nodal_mat = face_basis_values(p, t_nodes - 0.5) @ beta_mat  # (p+1, p+2)
        multi = np.rint(p * face_barycentric(t_nodes)).astype(np.int64)
        multis = lattice_multis(p)
        lattice_pos = np.empty((p + 1, p + 1), dtype=np.int64)
        lattice_pos[multis[:, 0], multis[:, 1]] = np.arange(len(multis))
        lpos = lattice_pos[multi[..., 0], multi[..., 1]]  # (3, 2, p+1)
        lp_lat = lagrange_basis_values(p, self.lat_bary)  # (nD, nlat_p)
        zvals = (
            np.moveaxis(lp_lat[:, lpos], 0, 2) * self.phiF_lat[:, None, :, None]
        )  # (3, 2, nD, p+1)
        bubble_hat = left @ self.invV_D @ zvals @ nodal_mat  # (3, 2, nD, p+2)
        return np.stack([on_faces(bubble_hat, mesh, faces, s) for s in (0, 1)])

    def _cell_bubble_block(self):
        """The (nD, nD) block of B_M on every cell: broken degree-D data to
        degree-D coefficients.

        The bubble-weighted mass and the moments are both 2|K| times
        reference matrices, so one block serves every cell. It is zero at
        p = 0: P^{-1} = {0} leaves no cell moment to restore.
        """
        p, D = self.space.p, self.degree
        rule = self.space.rule_cell
        phiK_q, _ = _bubbles(rule.points)  # (Q,)
        phi_pm1 = cell_basis_values(p - 1, rule.points)
        wphi = rule.weights[:, None] * phi_pm1
        W = symmetrize(_tmul(phiK_q[:, None] * wphi, phi_pm1))
        sol = np.linalg.solve(W, _tmul(wphi, cell_basis_values(D, rule.points)))
        lat_vals = cell_basis_values(p - 1, self.lat_bary) * self.phiK_lat[:, None]
        return self.invV_D @ lat_vals @ sol

    # -- application -------------------------------------------------------

    def apply_vector(self, vec):
        """Broken degree-D coefficients of S_H applied to a dof vector, or to
        a (num_dofs, k) block of them (the five steps, entity by entity)."""
        space = self.space
        T, nc, nf = space.mesh.num_cells, space.nc, space.nf
        vec = np.asarray(vec, dtype=float)
        X = vec.reshape(len(vec), -1)
        x_cells, x_faces = space.split(X)

        r = space.G @ space.local_coeffs(X)  # (T, n1, k)
        nodal = scatter_add(self.avg_blocks @ r, self.avg_ids, self.num_nodes)
        a = self.hat @ _gather(nodal, self.node_ids)  # (T, 3, k)
        v_faces = np.zeros((len(self.trace), space.p + 2, X.shape[1]))
        v_faces[:, :nf] = x_faces
        v_faces[:, :2] -= self.trace @ a[self.face_cells[0]]
        out = np.zeros((T, self.nD, X.shape[1]))
        out[:, :nc] = x_cells
        out[:, :3] -= a  # v_M = x_M - a
        out = self.cell_block @ out
        out[:, :3] += a
        for side in (0, 1):  # one side at a time halves the largest temporary
            out += scatter_add(
                self.face_bubble[side] @ v_faces, self.face_cells[side], T
            )
        return out.reshape((T * self.nD,) + vec.shape[1:])

    def apply_transpose(self, fvec):
        """S_H^T applied to a broken functional vector (load pullback), or to
        a (T nD, k) block of them.

        The steps of :meth:`apply_vector` in reverse order with every block
        transposed; one-ring local, without forming any global matrix.
        """
        space = self.space
        fvec = np.asarray(fvec, dtype=float)
        T, nc, nf = space.mesh.num_cells, space.nc, space.nf
        Y = fvec.reshape(T, self.nD, -1)

        g_cells = self.cell_block.T @ Y  # adjoint of v_M
        g_faces = (_t(self.face_bubble) @ Y[self.face_cells]).sum(axis=0)
        g_a = Y[:, :3] - g_cells[:, :3] - scatter_add(
            _t(self.trace) @ g_faces[:, :2], self.face_cells[0], T
        )
        g_nodal = scatter_add(self.hat.T @ g_a, self.node_ids, self.num_nodes)
        g_r = _t(self.avg_blocks) @ _gather(g_nodal, self.avg_ids)
        out = scatter_add(_t(space.G) @ g_r, space.local_dof_ids, space.num_dofs)
        out_cells, out_faces = space.split(out)
        out_cells += g_cells[:, :nc]
        out_faces += g_faces[:, :nf]
        return out.reshape((space.num_dofs,) + fvec.shape[1:])

    # -- sparse form ---------------------------------------------------------

    def _factors(self):
        """The two sparse factors of S_H = C + Q W, scattered from the blocks:

        * C (T nD, num_dofs): the parts that read the dofs directly, B_M on
          the cell dofs and (I - B_M) B_Sigma on the face dofs, both per cell,
        * Q (T nD, num_nodes): interior vertex values -> broken degree-D
          coefficients, the hat re-expansion a through (I - B_M) on every
          cell and through the face bubbles of the trace residual -tr a.

        W, the averaging of R x at the vertices, is not formed here.
        """
        space, mesh = self.space, self.space.mesh
        T, nD, nc, nf = mesh.num_cells, self.nD, space.nc, space.nf
        rows = np.arange(T)[:, None] * nD + np.arange(nD)
        # a enters each cell through (I - B_M), and the trace residual
        # -tr a, read in the first cell of a face, through both face sides
        cell_hat = (np.eye(nD) - self.cell_block)[:, :3] @ self.hat
        face_hat = -self.face_bubble[..., :2] @ (self.trace @ self.hat)
        first_nodes = self.node_ids[self.face_cells[0]]
        Q = scatter_blocks(
            np.concatenate([np.broadcast_to(cell_hat, (T, nD, 3)), *face_hat]),
            np.concatenate([rows, *rows[self.face_cells]]),
            np.concatenate([self.node_ids, first_nodes, first_nodes]),
            (T * nD, self.num_nodes),
        )
        # the face blocks land at their cell's local face dofs
        direct = np.zeros((T, nD, space.nloc))
        direct[:, :, :nc] = self.cell_block[:, :nc]
        faces = mesh.interior_faces
        for side in (0, 1):
            cols = nc + mesh.face_local[faces, side, None] * nf + np.arange(nf)
            direct[self.face_cells[side][:, None], :, cols] = _t(
                self.face_bubble[side][..., :nf]
            )
        C = scatter_blocks(direct, rows, space.local_dof_ids,
                           (T * nD, space.num_dofs))
        return C, Q

    @property
    def matrix(self):
        """Full sparse smoother matrix S_H = C + Q W (built on first use and
        cached), with C and Q from :meth:`_factors` and W: dofs -> averaged
        values at the interior vertices, the per-cell blocks avg_blocks G.
        No solver path or check reads it: it stays only because
        perfbench/spans.py and the test oracles name it.
        """
        if self._matrix is None:
            space = self.space
            C, Q = self._factors()
            W = scatter_blocks(
                self.avg_blocks @ space.G, self.avg_ids, space.local_dof_ids,
                (self.num_nodes, space.num_dofs),
            )
            # C + Q W as the one product [C Q] [I; W]: no second copy of
            # the full-size result for the sum
            identity = sparse.identity(space.num_dofs, format="csr")
            self._matrix = sparse.hstack([C, Q], format="csr") @ sparse.vstack(
                [identity, W], format="csr"
            )
        return self._matrix


def on_faces(table, mesh, faces, side):
    """Per-face blocks of a reference face table (3, 2, ...), read in cell
    ``face_cells[faces, side]`` at its local face and orientation."""
    K = mesh.face_cells[faces, side]
    local = mesh.face_local[faces, side]
    return table[local, mesh.face_flips[K, local]]


def jump_matrix(mesh, degree):
    """Sparse map from broken coefficients to face jumps and boundary traces.

    Each interior face (first cell minus second), then each boundary face,
    is sampled at 5 equispaced points.
    """
    n = space_dimension(degree)
    samples = 5
    ts = (np.arange(samples) + 0.5) / samples
    vals_hat = cell_basis_values(degree, face_barycentric(ts))  # (3, 2, s, n)
    blocks, rows, cols = [], [], []
    row0 = 0
    for faces, sides in ((mesh.interior_faces, (0, 1)),
                         (np.nonzero(mesh.boundary_face_mask)[0], (0,))):
        face_rows = row0 + np.arange(len(faces) * samples).reshape(-1, samples)
        for side in sides:
            K = mesh.face_cells[faces, side]
            vals = on_faces(vals_hat, mesh, faces, side)  # (F, s, n)
            blocks.append(vals if side == 0 else -vals)
            rows.append(face_rows)
            cols.append(K[:, None] * n + np.arange(n))
        row0 += len(faces) * samples
    return scatter_blocks(
        np.concatenate(blocks), np.concatenate(rows), np.concatenate(cols),
        (row0, mesh.num_cells * n),
    )


def moment_residuals(smoother, X):
    """Max violation of the preserved cell and face moments, per column of X.

    The k dof vectors of the (num_dofs, k) block X go through the smoother at
    once and share one tabulation; returns the cell and face residuals as
    arrays of shape (k,).
    """
    space, mesh = smoother.space, smoother.space.mesh
    p = space.p
    x_cells, x_faces = space.split(X)
    Y = smoother.apply_vector(X).reshape(mesh.num_cells, smoother.nD, -1)

    # cell moments against P^{p-1}, the leading columns of the graded degree-D
    # basis (none at p = 0): 2|K| times one reference matrix
    rule = space.rule_cell
    npm1 = space_dimension(p - 1)
    phiD = cell_basis_values(smoother.degree, rule.points)
    mom_hat = _tmul(rule.weights[:, None] * phiD[:, :npm1], phiD)
    area2 = 2.0 * mesh.volumes[:, None, None]
    mom_smooth = area2 * (mom_hat @ Y)
    mom_target = (area2 * space.mass_hat[:npm1, : space.nc]) @ x_cells
    cell_res = np.abs(mom_smooth - mom_target).max(axis=(0, 1), initial=0.0)

    # face moments, evaluated from the first adjacent cell: h_F times one
    # reference matrix per (local face, orientation)
    faces = mesh.interior_faces
    rule = space.rule_face
    t = rule.points[:, 1]
    wpsi = rule.weights[:, None] * face_basis_values(p, t - 0.5)
    mom_hat = _tmul(wpsi, cell_basis_values(smoother.degree, face_barycentric(t)))
    k1 = mesh.face_cells[faces, 0]
    h = mesh.h_face[faces][:, None, None]
    mom_smooth = h * (on_faces(mom_hat, mesh, faces, 0) @ Y[k1])
    mom_target = h * (space.mhat_p @ x_faces)
    face_res = np.abs(mom_smooth - mom_target).max(axis=(0, 1), initial=0.0)
    return cell_res, face_res


def _max_entry(matrix):
    """Largest absolute entry of a sparse matrix (0 when it has none)."""
    return float(np.abs(matrix.data).max()) if matrix.nnz else 0.0


def conformity_residual(jump, C, Q):
    """Max face jump and boundary trace of every column of C and of Q.

    `jump` is :func:`jump_matrix` at the smoother's degree, (C, Q) the pair
    of ``Smoother._factors``. For any vertex vector a, Q a (the hat
    re-expansion and its bubble corrections) is continuous and zero on the
    boundary, and so is C x; both zero means jump @ (C + Q W) = 0 for every
    averaging W, without forming W or S_H. So a defect in the averaging
    weights (`avg_blocks`, `avg_ids`) passes this check: only the
    convergence orders and `consistency_constant` see it.
    """
    return max(_max_entry(jump @ C), _max_entry(jump @ Q))


def orthogonality_residual(space, C, Q):
    """Max entry of grad(R .)^T grad(R - C) and of grad(R .)^T grad Q over
    all basis pairs, for the factors (C, Q) of ``Smoother._factors``.

    The computable content of the algebraic-consistency identity: the broken
    gradient of R is orthogonal to R - S_H for every pair of basis fields.
    With the degree-D stiffness K per cell and R reading G into its leading
    n1 coefficients, the check is the assembled G^T K_11 G minus B C, and
    B Q, with B the per-cell blocks G^T K[:n1, :]. Q a has zero preserved
    cell and face moments for any vertex vector a, and C x the moments of x,
    so both vanish exactly; together they imply G^T K (R - S_H) = 0 for
    every averaging W, without forming W or S_H. So, as for
    :func:`conformity_residual`, a defect in the averaging weights passes
    this check.
    """
    T, n1 = space.mesh.num_cells, space.n1
    K = stiffness_blocks(space.mesh, space.degree_star, space.rule_cell)
    GtK = _t(space.G) @ K[:, :n1]  # (T, nloc, nD)
    nD = K.shape[1]
    B = scatter_blocks(
        GtK, space.local_dof_ids, np.arange(T)[:, None] * nD + np.arange(nD),
        (space.num_dofs, T * nD),
    )
    return max(
        _max_entry(assemble_bilinear(space, GtK[..., :n1] @ space.G) - B @ C),
        _max_entry(B @ Q),
    )


def consistency_constant(space, smoother):
    """Smallest C with ||grad(R s - S_H s)|| <= C ||s||_b over dof vectors s.

    C^2 is the largest eigenvalue of the pencil (D^T K D, B): D = R - S_H, K
    the broken degree-D stiffness, B the matrix of the HHO form b. One
    Lanczos run (ARPACK, default tolerance) finds it from blocks alone, with
    no matrix for D or K: G and the per-cell K give R and its transpose, the
    smoother's own blocks give S_H, and the factor `full_lu` gives B^{-1}.
    """
    T, n1, n = space.mesh.num_cells, space.n1, space.num_dofs
    K = stiffness_blocks(space.mesh, smoother.degree, space.rule_cell)
    G = space.G

    def normal_op(x):  # D^T K D x, on a (num_dofs, 1) block
        x = x.reshape(n, 1)
        d = -smoother.apply_vector(x).reshape(T, smoother.nD, 1)
        d[:, :n1] += G @ space.local_coeffs(x)
        y = K @ d
        return (scatter_add(_t(G) @ y[:, :n1], space.local_dof_ids, n)
                - smoother.apply_transpose(y.reshape(-1, 1)))

    system = assemble(space)
    if n == 1:  # too few dofs for ARPACK: the pencil is 1 x 1
        lam = normal_op(np.ones(1))[0, 0] / system.full_matrix[0, 0]
    else:
        lam = eigsh(
            LinearOperator((n, n), matvec=normal_op, dtype=float), k=1,
            M=system.full_matrix, which="LA", v0=np.ones(n),
            Minv=LinearOperator((n, n), matvec=system.full_lu.solve, dtype=float),
            return_eigenvectors=False,
        )[0]
    return float(np.sqrt(max(lam, 0.0)))
