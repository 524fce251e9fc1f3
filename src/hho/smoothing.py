"""Moment-preserving smoothers mapping HHO fields into H1_0-conforming functions.

The stabilized smoother combines an averaging of the reconstruction at the
interior vertices, re-expanded with the hat functions (continuous piecewise
P1, zero on the boundary), with bubble corrections that restore the cell
moments up to degree p-1 and the interior-face moments up to degree p. The
bubbles reproduce every degree-(p+1) Lagrange function of an edge-interior
or cell-interior node, so averaging at those nodes would give the same
operator. Element bubbles are 27*l1*l2*l3, face bubbles 4*la*lb on each of
the two cells sharing the face; both are 1 at the respective barycenter.

The smoother is linear and cell-local once the averaging is done, so it
is kept, from HHO unknowns to broken coefficients of degree 2 + max(p, 1),
as one dense block [C_K | Q_K] per cell next to the averaging blocks W;
the block, its cell columns included, depends only on the states of the
cell's faces, so one table of the 27 combinations serves every mesh.
Applying it and its transpose contract that one table, one product per cell
block, and the conformity and orthogonality checks read it directly, per
face side and per cell: neither check forms a global factor, a jump matrix,
W or S_H.
"""

from functools import partial

import numpy as np

from . import lazy_module
from .local_ops import (
    BrokenPoly,
    _gather,
    _t,
    _tmul,
    apply_bilinear,
    cell_blocks,
    reference_stiffness,
    scatter_add,
    scatter_blocks,
    stiffness_blocks,
)
from .polyquad import (
    cell_basis_values,
    face_barycentric,
    face_basis_values,
    space_dimension,
    symmetrize,
)
from .system import assemble, lanczos_max, solve

sparse = lazy_module("scipy.sparse")

AVERAGING_VARIANTS = ("mean", "scott-zhang")

# smoother output entries (cells x degree-D coefficients x dof vectors) of
# one chunk of `moment_residuals`: all of a verify run's random fields at
# once set its peak memory
MOMENT_BLOCK = 2 ** 15


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
    """Stabilized bubble smoother for one space, kept as one block per
    combination of face states.

    S_H maps an HHO dof vector x = (x_M, x_Sigma) to broken degree-D
    coefficients. On a cell K it reads only K's dofs x_K and the averaged
    values a_K at K's corners: W averages the reconstruction G x_K at the
    interior vertices (per cell the degree-(p+1) corner values times the
    vertex weight, `avg_blocks` (T, 3, n1), summed at `avg_ids`, read back
    at `node_ids`), and the cell block [C_K | Q_K] maps [x_K; a_K] to the
    hat re-expansion of a_K (continuous piecewise P1, zero on the boundary)
    plus the bubble corrections B_Sigma v_Sigma + B_M (v_M - B_Sigma v_Sigma)
    of the residuals v_Sigma = x_Sigma - tr a and v_M = x_M - a:

        C_K = [B_M[:, :nc] | (I - B_M) B_Sigma[i, o][:, :nf] per face i],
        Q_K = (I - B_M)[:, :3] hat
              - sum_i (I - B_M) B_Sigma[i, o][:, :2] trace[i, o] hat,

    with o = ``mesh.face_flips[K, i]`` and zero columns for a boundary face.
    The hat, the trace (taken in K: a is continuous, so both sides of a
    face agree), the face bubble and B_M (zero at p = 0) are reference
    tables, so a block depends only on the states of K's three faces, each
    its orientation or boundary. The whole block [C_K | Q_K] is kept once
    per combination of face states (`blocks`, (27, nD, nloc + 3)), and a
    cell keeps only its state id (`cell_state`, (T,)). This table and W
    are the one description of S_H: `apply_vector` and `apply_transpose`
    contract it, gathering `blocks` one cell block at a time, one product
    per block, `cell_table` gathers it with global column ids for the two
    checks, and `matrix` (read by no solver path or check) scatters that
    table into [C Q] and multiplies it by [I; W]. Per cell the smoother
    holds only the state id and the averaging blocks and ids (0.29 KiB at
    p = 3).

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
        hat = self._build_averaging()
        self._build_blocks(hat)
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
        """Averaging at the interior vertices; returns the (3, 3) hat block,
        vertex values -> the three P1 coefficients, the leading ones of
        every larger basis."""
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
        return np.linalg.inv(corners[:, :3])

    def _build_blocks(self, hat):
        """[C_K | Q_K] per combination of face states, and each cell's state
        id, read from ``mesh.face_flips`` and the boundary faces."""
        space, mesh = self.space, self.space.mesh
        nc, nf, nloc = space.nc, space.nf, space.nloc
        cell_block = self._cell_bubble_block()
        left = np.eye(self.nD) - cell_block
        face_bubble = self._face_bubble_blocks(left)  # (3, 2, nD, p+2)
        # interpolate the trace at the two ends of each face: P1
        # coefficients -> linear face coefficients
        t = np.array([0.0, 1.0])
        vf_inv = np.linalg.inv(face_basis_values(1, t - 0.5))
        trace = vf_inv @ cell_basis_values(1, face_barycentric(t))  # (3, 2, 2, 3)
        # a enters through (I - B_M), and through the face bubbles of the
        # trace residual -tr a
        face_hat = -face_bubble[..., :2] @ (trace @ hat)  # (3, 2, nD, 3)

        # a local face is in one of three states, its orientation or 2 on the
        # boundary (no face dofs, no face bubble): per local face and state,
        # its columns of the block, with the cell's own part (the cell
        # columns B_M[:, :nc] and the hat re-expansion) on face 0; their
        # sums over the 27 combinations of states are the whole table, and a
        # cell keeps only the id 9 s0 + 3 s1 + s2 of its states
        face = np.zeros((3, 3, self.nD, nloc + 3))  # state 2 stays zero
        for i in range(3):
            face[i, :2, :, nc + i * nf: nc + (i + 1) * nf] = face_bubble[i, ..., :nf]
            face[i, :2, :, -3:] = face_hat[i]
        face[0, ..., :nc] = cell_block[:, :nc]
        face[0, ..., -3:] += left[:, :3] @ hat
        table = face[0, :, None, None] + face[1, None, :, None] + face[2, None, None]
        self.blocks = table.reshape(27, self.nD, nloc + 3)
        interior = mesh.face_interior_index[mesh.cell_faces] >= 0
        state = np.where(interior, mesh.face_flips, 2)  # (T, 3)
        self.cell_state = state @ np.array([9, 3, 1])

    def _face_bubble_blocks(self, left):
        """Reference blocks (3, 2, nD, p+2) of `left` B_Sigma per (local face,
        orientation): degree-(p+1) face data -> broken degree-D coefficients,
        for an (nD, nD) matrix `left` acting on every cell (the identity
        gives B_Sigma itself)."""
        p, rule = self.space.p, self.space.rule_face

        # B_F solve in the scaled arclength coordinate; h_F cancels between
        # the bubble-weighted mass int (1 - 4 s^2) psi_k psi_l ds and the
        # moments of the orthonormal basis, [I | 0]
        s = rule.points[:, 1] - 0.5
        psi = face_basis_values(p, s)
        bubble_mass = _tmul((rule.weights * (1.0 - 4.0 * s * s))[:, None] * psi, psi)
        beta_mat = np.linalg.inv(bubble_mass) @ np.eye(p + 1, p + 2)  # (p+1, p+2)

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
        return left @ self.invV_D @ zvals @ nodal_mat

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
        a (num_dofs, k) block of them: [C_K | Q_K] [x_K; a_K] per cell."""
        space = self.space
        vec = np.asarray(vec, dtype=float)
        x_loc = space.local_coeffs(vec.reshape(len(vec), -1))  # (T, nloc, k)
        T, k = len(x_loc), x_loc.shape[-1]
        corners = np.empty((T, 3, k))
        for cells in cell_blocks(T):
            G = space.gather(space.G, cells)
            corners[cells] = self.avg_blocks[cells] @ (G @ x_loc[cells])
        nodal = scatter_add(corners, self.avg_ids, self.num_nodes)
        out = np.empty((T, self.nD, k))
        for cells in cell_blocks(T):
            x_a = np.concatenate(
                [x_loc[cells], _gather(nodal, self.node_ids[cells])], axis=1)
            out[cells] = self.blocks[self.cell_state[cells]] @ x_a
        return out.reshape((T * self.nD,) + vec.shape[1:])

    def apply_transpose(self, fvec):
        """S_H^T applied to a broken functional vector (load pullback), or to
        a (T nD, k) block of them: the mirror of :meth:`apply_vector`, without
        forming any global matrix."""
        space = self.space
        nloc = space.nloc
        fvec = np.asarray(fvec, dtype=float)
        T = space.mesh.num_cells
        Y = fvec.reshape(T, self.nD, -1)
        Z = np.empty((T, nloc + 3, Y.shape[-1]))
        for cells in cell_blocks(T):
            Z[cells] = _t(self.blocks[self.cell_state[cells]]) @ Y[cells]
        g_nodal = scatter_add(Z[:, nloc:], self.node_ids, self.num_nodes)
        g_r = _t(self.avg_blocks) @ _gather(g_nodal, self.avg_ids)  # (T, n1, k)
        for cells in cell_blocks(T):
            Z[cells, :nloc] += _t(space.gather(space.G, cells)) @ g_r[cells]
        out = scatter_add(Z[:, :nloc], space.local_dof_ids, space.num_dofs)
        return out.reshape((space.num_dofs,) + fvec.shape[1:])

    # -- the table [C_K | Q_K] ----------------------------------------------

    def cell_table(self, cells=slice(None)):
        """[C_K | Q_K] (T, nD, nloc + 3) of `cells` (all by default), gathered
        from `blocks` by state id, and its global column ids (T, nloc + 3):
        the cell's `local_dof_ids`, then its `node_ids` offset by
        `num_dofs`, -1 where the column does not exist (a boundary face or a
        boundary vertex)."""
        space, nodes = self.space, self.node_ids[cells]
        ids = np.concatenate(
            [space.local_dof_ids[cells],
             np.where(nodes >= 0, nodes + space.num_dofs, -1)], axis=1)
        return self.blocks[self.cell_state[cells]], ids

    @property
    def matrix(self):
        """Full sparse smoother matrix S_H = C + Q W, built on first use and
        cached: the table scattered into [C Q] times [I; W], W the averaging
        blocks avg_blocks G. No solver path or check reads it: it stays only
        because perfbench/spans.py and the test oracles name it."""
        if self._matrix is None:
            space = self.space
            T, nD = space.mesh.num_cells, self.nD
            table, ids = self.cell_table()
            rows = np.arange(T)[:, None] * nD + np.arange(nD)
            CQ = scatter_blocks(table, rows, ids,
                                (T * nD, space.num_dofs + self.num_nodes))
            W = scatter_blocks(
                self.avg_blocks @ space.gather(space.G), self.avg_ids,
                space.local_dof_ids, (self.num_nodes, space.num_dofs),
            )
            # C + Q W as the one product [C Q] [I; W]: no second copy of
            # the full-size result for the sum
            identity = sparse.identity(space.num_dofs, format="csr")
            self._matrix = CQ @ sparse.vstack([identity, W], format="csr")
        return self._matrix


def on_faces(table, mesh, faces, side):
    """Per-face blocks of a reference face table (3, 2, ...), read in cell
    ``face_cells[faces, side]`` at its local face and orientation."""
    K = mesh.face_cells[faces, side]
    local = mesh.face_local[faces, side]
    return table[local, mesh.face_flips[K, local]]


def face_samples(mesh, degree, table):
    """Every cell's samples (T, 3, s, c) on its three local faces of the
    columns of a per-cell table (T, n, c) of broken degree-`degree`
    coefficients, at s = degree + 1 equispaced points per face, ordered
    along the face from its lower global vertex: a degree-`degree` jump
    that vanishes there vanishes on the whole face."""
    samples = degree + 1
    ts = (np.arange(samples) + 0.5) / samples
    vals_hat = cell_basis_values(degree, face_barycentric(ts))  # (3, 2, s, n)
    out = np.empty((len(table), 3, samples, table.shape[-1]))
    for i in range(3):
        np.matmul(vals_hat[i, mesh.face_flips[:, i]], table, out=out[:, i])
    return out


def jump_matrix(mesh, degree):
    """Sparse map from broken coefficients to face jumps and boundary
    traces, sampled by :func:`face_samples`: a row per sample of each
    interior face (first cell minus second), then of each boundary face."""
    T, n = mesh.num_cells, space_dimension(degree)
    samples = degree + 1
    interior = mesh.interior_faces
    boundary = np.nonzero(mesh.boundary_face_mask)[0]
    Ei, Eb = len(interior), len(boundary)
    faces = np.concatenate([interior, interior, boundary])
    sides = np.repeat([0, 1, 0], [Ei, Ei, Eb])
    K = mesh.face_cells[faces, sides]
    vals = face_samples(mesh, degree, np.broadcast_to(np.eye(n), (T, n, n)))
    vals = vals[K, mesh.face_local[faces, sides]]
    vals[Ei:2 * Ei] *= -1.0
    rows = np.concatenate([np.arange(Ei), np.arange(Ei + Eb)])
    cols = np.arange(T)[:, None] * n + np.arange(n)
    return scatter_blocks(vals, rows[:, None] * samples + np.arange(samples),
                          cols[K], ((Ei + Eb) * samples, T * n))


def moment_residuals(smoother, X):
    """Max violation of the preserved cell and face moments, per column of X.

    The k dof vectors of the (num_dofs, k) block X go through the smoother
    in chunks of columns whose output has at most `MOMENT_BLOCK` entries,
    and share one tabulation; returns the cell and face residuals as arrays
    of shape (k,).
    """
    space, mesh = smoother.space, smoother.space.mesh
    p = space.p

    # cell moments against P^{p-1}, the leading columns of the graded degree-D
    # basis (none at p = 0): 2|K| times one reference matrix
    rule = space.rule_cell
    npm1 = space_dimension(p - 1)
    phiD = cell_basis_values(smoother.degree, rule.points)
    cell_hat = _tmul(rule.weights[:, None] * phiD[:, :npm1], phiD)
    area2 = 2.0 * mesh.volumes[:, None, None]
    cell_mass = area2 * space.mass_hat[:npm1, : space.nc]

    # face moments, evaluated from the first adjacent cell: h_F times one
    # reference matrix per (local face, orientation); those of x_F are h_F x_F
    faces = mesh.interior_faces
    rule = space.rule_face
    t = rule.points[:, 1]
    wpsi = rule.weights[:, None] * face_basis_values(p, t - 0.5)
    face_hat = on_faces(
        _tmul(wpsi, cell_basis_values(smoother.degree, face_barycentric(t))),
        mesh, faces, 0)
    k1 = mesh.face_cells[faces, 0]
    h = mesh.h_face[faces][:, None, None]

    chunk = max(1, MOMENT_BLOCK // (mesh.num_cells * smoother.nD))
    cell_res, face_res = np.empty(X.shape[1]), np.empty(X.shape[1])
    for start in range(0, X.shape[1], chunk):
        cols = slice(start, start + chunk)
        x_cells, x_faces = space.split(X[:, cols])
        Y = smoother.apply_vector(X[:, cols]).reshape(mesh.num_cells, smoother.nD, -1)
        mom_smooth = area2 * (cell_hat @ Y)
        cell_res[cols] = np.abs(mom_smooth - cell_mass @ x_cells).max(
            axis=(0, 1), initial=0.0)
        face_res[cols] = np.abs(h * (face_hat @ Y[k1] - x_faces)).max(
            axis=(0, 1), initial=0.0)
    return cell_res, face_res


def conformity_residual(smoother):
    """Max face jump and boundary trace of every column of C and of Q:
    :func:`face_samples` of the tables [C_K | Q_K] of `Smoother.cell_table`
    at the columns that exist, the two sides of a face subtracted at the
    columns they share (its dofs and its two vertices), with no matrix.

    For any vertex vector a, Q a (the hat re-expansion and its bubble
    corrections) is continuous and zero on the boundary, and so is C x;
    both zero means S_H = C + Q W maps into H1_0 for every averaging W,
    without forming W or S_H. No verify check reads W: a defect in the
    averaging weights (`avg_blocks`, `avg_ids`) passes this check and
    every other one.
    """
    space, mesh = smoother.space, smoother.space.mesh
    nc, nf, nloc = space.nc, space.nf, space.nloc
    table, ids = smoother.cell_table()
    jumps = face_samples(mesh, smoother.degree, table)  # (T, 3, s, nloc + 3)
    jumps *= (ids >= 0)[:, None, None, :]
    # a face's two sides (cell, local face): the second side's face dofs
    # and vertices, found among the first side's columns by global id; a
    # column that does not exist is zero, so its pairing subtracts zero
    faces = mesh.interior_faces
    (K0, K1), (i0, i1) = mesh.face_cells[faces].T, mesh.face_local[faces].T
    c1 = np.concatenate([nc + i1[:, None] * nf + np.arange(nf),
                         nloc + (i1[:, None] + [1, 2]) % 3], axis=1)
    c0 = np.argmax(ids[K0, None, :] == ids[K1[:, None], c1][..., None], axis=-1)
    side1 = (K1[:, None], i1[:, None], slice(None), c1)
    jumps[K0[:, None], i0[:, None], :, c0] -= jumps[side1]
    jumps[side1] = 0.0
    return float(max(jumps.max(initial=0.0), -jumps.min(initial=0.0)))


def orthogonality_residual(smoother):
    """Max entry over the cells K of G_K^T K_K ([G_K 0] - [C_K | Q_K]), K_K
    the degree-D stiffness, at the rows and columns that exist.

    The computable content of the algebraic-consistency identity, cell by
    cell: the gradient of R is orthogonal to that of R - S_H for every pair
    of basis fields. Q a has zero preserved cell and face moments for any
    vertex vector a, and C x the moments of x, so both column ranges vanish
    for every averaging W. An assembled entry sums at most two per-cell
    entries, so this is at least as strict as the assembled check. A defect
    in the averaging weights passes it, as it passes the conformity check.
    """
    space = smoother.space
    n1, nloc = space.n1, space.nloc
    S = reference_stiffness(smoother.degree, space.rule_cell)
    residual = 0.0
    for cells in cell_blocks(space.mesh.num_cells):
        G = space.gather(space.G, cells)
        GtK = _t(G) @ stiffness_blocks(space.mesh, S, cells)[:, :n1]
        table, ids = smoother.cell_table(cells)
        res = -(GtK @ table)  # (B, nloc, nloc + 3)
        res[..., :nloc] += GtK[..., :n1] @ G
        keep = (space.local_dof_ids[cells, :, None] >= 0) & (ids[:, None] >= 0)
        residual = max(residual, np.abs(res[keep]).max(initial=0.0))
    return float(residual)


def consistency_constant(space, smoother):
    """Smallest C with ||grad(R s - S_H s)|| <= C ||s||_b over dof vectors s.

    C^2 is the largest eigenvalue of the pencil (D^T K D, B): D = R - S_H, K
    the broken degree-D stiffness, B the matrix of the HHO form b. One
    Lanczos run on B^{-1} D^T K D (`lanczos_max`; a seeded random start, as
    the constant one is symmetric on the unit-square grids and misses the
    top eigenvector) finds it from blocks alone, with no matrix: G and the
    per-cell K give R and its transpose, the smoother's own blocks give
    S_H, the condensed solve B^{-1} and the local blocks B. An unconverged
    run raises `SolverError`.
    """
    T, n1, n = space.mesh.num_cells, space.n1, space.num_dofs
    K = stiffness_blocks(
        space.mesh, reference_stiffness(smoother.degree, space.rule_cell))
    G = space.gather(space.G)

    def normal_op(x):  # D^T K D x
        x = x.reshape(n, 1)
        d = -smoother.apply_vector(x).reshape(T, smoother.nD, 1)
        d[:, :n1] += G @ space.local_coeffs(x)
        y = K @ d
        return (scatter_add(_t(G) @ y[:, :n1], space.local_dof_ids, n)
                - smoother.apply_transpose(y.reshape(-1, 1))).ravel()

    system = assemble(space)
    lam = lanczos_max(lambda x: solve(system, normal_op(x)),
                      partial(apply_bilinear, space, space.local_matrices()),
                      np.random.default_rng(0).standard_normal(n), 1e-13)
    return float(np.sqrt(max(lam, 0.0)))
