"""Global assembly, load discretizations, static condensation, linear solve.

Two right-hand sides are supported, both from the one routine
`load_moments`, the load's moments on a broken basis: the classical one
writes the degree-p moments of an L2 load density into the cell unknowns and
refuses divergence-form loads (the duality is not defined there, a designed
failure); the smoothed one pulls the moments on the smoother's broken output
back by S_H^T and accepts any load of the form f0 - div g.

Cell unknowns are eliminated locally (static condensation); the global solve
acts on interior-face unknowns only. Right-hand sides and solutions are dof
vectors in the layout of `HHOSpace`: cells by index, then interior faces in
the mesh's nested-dissection order (`SimplicialMesh.interior_faces`). Every
matrix is assembled in that one numbering. The face system, of the HHO
matrix or of a shift A - sigma H, is factored on the dissection tree itself
(`FaceFactor`), from the class Schur blocks: the package's one factor.
"""

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import cg, splu

from .local_ops import (
    _gather,
    assemble_bilinear,
    cell_blocks,
    checked_values,
    gradient_moments,
)
from .polyquad import cell_basis_gradients, cell_basis_values, cell_quadrature


SOLVER_METHODS = ("direct", "cg")

# CG's relative residual: it does not bound the forward error, so CG stops
# one order below the 1e-12 agreement with the direct solve asked of it
CG_RTOL = 1e-13


class MethodNotApplicableError(RuntimeError):
    """The classical L2 right-hand side met a divergence-form load."""


class SolverError(RuntimeError):
    """The face solve failed: CG stopped before reaching its tolerance, or
    the face factor met a front that is not positive definite."""


class LoadFunctional:
    """Load f = f0 - div g with <f, v> = int f0 v + int g . grad v.

    At least one of f0 (scalar field) and g (vector field) must be given;
    both are callables vectorized over the trailing coordinate axis. g need
    not be continuous across faces: that is the point of supporting loads
    outside L2.
    """

    def __init__(self, f0=None, g=None):
        if f0 is None and g is None:
            raise ValueError("load needs at least one of f0, g")
        self.f0 = f0
        self.g = g

    @property
    def has_divergence_part(self):
        return self.g is not None


# doubles of fronts, before padding, that `FaceFactor` fills and factors
# as one batch: at p = 3, level 32 the deepest depth runs in 10 batches
FRONT_BATCH = 2 ** 16


def _ranges(starts, lengths):
    """The ranges [s, s + l) for each start s and length l, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _bounds(labels):
    """Starts of the runs of equal labels, and the end."""
    return np.flatnonzero(np.diff(labels, prepend=-1, append=-1))


class FaceFactor:
    """Cholesky factor of the face matrix on the mesh's dissection tree, in
    multifrontal form (Duff & Reid, ACM TOMS 9, 1983; Liu, SIAM Review 34,
    1992), formed from the class Schur blocks, not from the face matrix.

    A front is a node of `tree` (each face's node by heap index, as
    `mesh.dissection_tree`) that places faces. Its rows are the node's
    faces, its pivots, then the later faces coupled to them, its update
    set. A cell's face blocks, read from its class's Schur complement in
    `schur` (C, 3 nf, 3 nf), go to the front of its first face; a front's
    update F22 - L21 L21^T goes to the front of its nearest ancestor that
    has one. From the deepest depth up, the fronts of a depth, which are
    independent, are padded to one size (identity pivots, zero update
    rows), filled by one scatter and factored together, up to
    `FRONT_BATCH` doubles of fronts at a time. A batch keeps its rows,
    L11^{-1} and L21, so `solve` is matrix products. A front with no
    Cholesky factor raises `SolverError`.
    """

    def __init__(self, space, schur, tree):
        nf, Ei, eye = space.nf, len(tree), np.arange(space.nf)
        self.n = n = Ei * nf
        faces = space.mesh.face_interior_index[space.mesh.cell_faces]  # (T, 3)
        # the fronts, deepest first, then by heap index
        nodes, first, count = np.unique(tree, return_index=True, return_counts=True)
        depth = np.frexp(nodes + 1)[1] - 1
        order = np.lexsort((nodes, -depth))
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first, count, depth = first[order], count[order], depth[order]
        parent = np.full(len(nodes), -1)  # the nearest ancestor with a front
        up, todo = (nodes[order] - 1) // 2, np.ones(len(nodes), dtype=bool)
        while (todo := todo & (up >= 0)).any():
            at = np.minimum(np.searchsorted(nodes, up), len(nodes) - 1)
            hit = todo & (nodes[at] == up)
            parent[hit] = rank[at[hit]]
            todo &= ~hit
            up = (up - 1) // 2
        # a cell goes to the front of its first face (no face: past the last)
        first_face = np.where(faces >= 0, faces, Ei).min(axis=1)
        cell_front = np.append(rank[np.searchsorted(nodes, tree)], len(nodes))[first_face]
        by_front = np.argsort(cell_front, kind="stable")
        cells_at = np.searchsorted(cell_front[by_front], np.arange(len(nodes) + 1))

        self.batches, pending = [], []  # pending: (update, parent, update faces)
        depths = _bounds(depth)
        for a, b in zip(depths[:-1], depths[1:]):
            # each front's rows, sorted, as front Ei + face: its own faces,
            # its cells' faces and its children's update faces
            cs = by_front[cells_at[a]:cells_at[b]]
            keys = np.unique(np.concatenate(
                [np.repeat(np.arange(a, b), count[a:b]) * Ei
                 + _ranges(first[a:b], count[a:b]),
                 (cell_front[cs, None] * Ei + faces[cs])[faces[cs] >= 0]]
                + [(p[:, None] * Ei + uf)[uf >= 0] for _, p, uf in pending]))
            start = np.searchsorted(keys, np.arange(a, b + 1) * Ei)
            size = np.diff(start)
            cost = np.cumsum(size ** 2) - size ** 2
            batches = a + _bounds(cost * nf * nf // FRONT_BATCH)
            for ca, cb in zip(batches[:-1], batches[1:]):
                k, P = cb - ca, count[ca:cb]
                Uf = size[ca - a:cb - a] - P
                Pm, Um = P.max(), Uf.max()
                Pn, Mn = Pm * nf, (Pm + Um) * nf

                def add(front, face, blocks):
                    """Add the blocks (K, m nf, m nf) on the faces (K, m) to
                    their fronts (K,); a negative face (a boundary face, or
                    padding) lands on row 0, its block rows being zero."""
                    r = (np.searchsorted(keys, front[:, None] * Ei + face)
                         - start[front - a, None])
                    own = count[front, None]
                    r = np.maximum(np.where(r < own, r, r - own + Pm), 0)
                    r = (r[..., None] * nf + eye).reshape(len(r), r.shape[1] * nf)
                    pos = ((front - ca)[:, None, None] * Mn * Mn
                           + r[:, :, None] * Mn + r[:, None])
                    np.add.at(F.ravel(), pos.ravel(), blocks.ravel())

                F = np.zeros((k, Mn, Mn))
                pad = np.arange(Pn) >= P[:, None] * nf
                i, j = np.nonzero(pad)
                F[i, j, j] = 1.0
                cs = by_front[cells_at[ca]:cells_at[cb]]
                S = schur[space.cell_class[cs]]
                inner = np.repeat(faces[cs] >= 0, nf, axis=1)
                S *= inner[:, :, None] & inner[:, None]
                add(cell_front[cs], faces[cs], S)
                for U, p, uf in pending:
                    s = np.flatnonzero((p >= ca) & (p < cb))
                    if len(s):
                        add(p[s], uf[s], U if len(s) == len(U) else U[s])
                try:
                    L11 = np.linalg.cholesky(F[:, :Pn, :Pn])
                except np.linalg.LinAlgError:
                    raise SolverError(
                        "the face matrix is not positive definite: a front at "
                        f"dissection depth {depth[a]} has no Cholesky factor"
                    ) from None
                Linv = np.linalg.inv(L11)
                L21 = F[:, Pn:, :Pn] @ Linv.swapaxes(1, 2)
                U = F[:, Pn:, Pn:] - L21 @ L21.swapaxes(1, 2)
                del F
                uf = np.full((k, Um), -1)
                held = np.arange(Um) < Uf[:, None]
                uf[held] = keys[_ranges(start[ca - a:cb - a] + P, Uf)] % Ei
                upd = np.where(held[..., None], uf[..., None] * nf + eye, n)
                piv = np.where(pad, n, first[ca:cb, None] * nf + np.arange(Pn))
                self.batches.append((piv, upd.reshape(k, -1), Linv, L21))
                # an update is freed once its last parent has taken it
                pending = [e for e in pending if (e[1] >= cb).any()]
                pending.append((U, parent[ca:cb], uf))

    def solve(self, b):
        """The solution x of A x = b for the face matrix A."""
        x = np.zeros(self.n + 1)  # the last entry: padded rows, kept at 0
        x[:-1] = b
        for piv, upd, Linv, L21 in self.batches:
            y = (Linv @ x[piv][..., None])[..., 0]
            x[piv] = y
            np.subtract.at(x, upd.ravel(), (L21 @ y[..., None]).ravel())
        for piv, upd, Linv, L21 in reversed(self.batches):
            z = x[piv] - (x[upd][:, None] @ L21)[:, 0]
            x[piv] = (z[:, None] @ Linv)[:, 0]
        return x[:-1]


class CondensedSystem:
    """SPD face-unknown system as the elimination data and the Schur
    complement of each geometry class, of the HHO matrix A or its shift
    A - sigma H by the coercivity norm.

    The face unknowns are the face dofs of the `HHOSpace` layout, in the
    mesh's order of the interior faces. The local blocks A_K - sigma H_K
    are formed and condensed once per geometry class of the space
    (`space.class_matrices`, `space.class_norm_blocks`, one block of
    classes at a time). The system keeps, per class and indexed by
    `space.cell_class`, the cell rows `A_tt` (C, nc, nc), the elimination
    `elim` = A_tt^{-1} A_tf (C, nc, 3 nf) and the Schur complement
    `schur` = A_ff - A_ft elim (C, 3 nf, 3 nf); no (T, nloc, nloc) or
    (T, 3 nf, 3 nf) array and no level-sized triplet array exists. The
    face factor `face_factor` reads the Schur blocks directly.
    `face_matrix`, which CG reads, and `full_matrix`, the unshifted A that
    the residuals read, are assembled on first use.
    """

    def __init__(self, space, shift=0.0):
        self.space = space
        nc, nf = space.nc, space.nf
        # the face unknowns are the face dofs, negative on boundary faces
        self._face_ids = space.local_dof_ids[:, nc:] - space.num_cell_dofs
        # per block of classes, from the blocks A_K of each class's first
        # cell: the cell elimination A_tt^{-1} A_tf by factor-and-solve, no
        # inverse, and the Schur complement
        C = len(space.class_cells)
        self.A_tt = np.empty((C, nc, nc))
        self.elim = np.empty((C, nc, 3 * nf))
        self.schur = np.empty((C, 3 * nf, 3 * nf))
        for classes in cell_blocks(C):
            A = space.class_matrices(classes)
            if shift:
                A -= shift * space.class_norm_blocks(classes)
            self.A_tt[classes] = A[:, :nc, :nc]
            self.elim[classes] = np.linalg.solve(A[:, :nc, :nc], A[:, :nc, nc:])
            self.schur[classes] = A[:, nc:, nc:] - A[:, nc:, :nc] @ self.elim[classes]

    @cached_property
    def face_matrix(self):
        """The face matrix, CSC, assembled on first use: each cell's Schur
        block is added into one (nf, nf) block per pair of interior faces
        sharing the cell, one cell block at a time; an entry sums the blocks
        of at most two cells (a face's dofs with themselves, from the face's
        two cells), so its value does not depend on the order."""
        space = self.space
        mesh, nf = space.mesh, space.nf
        T, Ei = mesh.num_cells, mesh.num_interior_faces
        faces = mesh.face_interior_index[mesh.cell_faces]  # (T, 3)
        # pair ranks cell K's pair (face i, face j) by face i, then face j
        both = (faces[:, :, None] >= 0) & (faces[:, None, :] >= 0)
        pairs, at = np.unique((faces[:, :, None] * Ei + faces[:, None, :])[both],
                              return_inverse=True)
        pair = np.full((T, 3, 3), -1)
        pair[both] = at
        blocks = np.zeros(len(pairs) * nf * nf)
        entry = np.arange(nf * nf).reshape(nf, nf)
        for cells in cell_blocks(T):
            # block (i, j) of A^T: face i's columns of A by face j's rows
            keep = both[cells]
            S = space.gather(self.schur, cells)
            S = S.reshape(-1, 3, nf, 3, nf).transpose(0, 3, 1, 4, 2)[keep]
            pos = pair[cells][keep][:, None, None] * nf * nf + entry
            np.add.at(blocks, pos.ravel(), S.ravel())  # 1-d: numpy's fast path
        # the CSR arrays of A^T are the CSC arrays of A, with int indices that
        # splu takes without a copy (bsr.tocsc would go through COO)
        n = space.num_face_dofs
        ptr = np.searchsorted(pairs // Ei, np.arange(Ei + 1))
        At = sparse.bsr_matrix((blocks.reshape(-1, nf, nf), pairs % Ei, ptr),
                               shape=(n, n)).tocsr()
        return sparse.csc_matrix((At.data, At.indices, At.indptr), shape=(n, n))

    @cached_property
    def face_factor(self):
        """Cholesky factor of the face matrix on the mesh's dissection tree
        (`FaceFactor`), formed on first use from the class Schur blocks."""
        return FaceFactor(self.space, self.schur, self.space.mesh.dissection_tree)

    @cached_property
    def full_matrix(self):
        """Uncondensed global matrix A, assembled on first use from the local
        blocks of `space.local_matrices`, whatever the shift."""
        return assemble_bilinear(self.space, self.space.local_matrices())

    def condense_rhs(self, rhs):
        """Eliminate the cell block of a full rhs vector; rhs is not
        written to."""
        b_t, b_f = self.space.split(rhs)
        b_f = b_f.ravel().copy()
        corr = np.empty((len(b_t), self.elim.shape[-1]))  # elim^T b_t
        for cells in cell_blocks(len(b_t)):
            elim = self.space.gather(self.elim, cells)
            corr[cells] = (b_t[cells, None, :] @ elim)[:, 0]
        ids = self._face_ids
        np.add.at(b_f, ids[ids >= 0], -corr[ids >= 0])
        return b_f

    def recover_cells(self, rhs, face_vec):
        """Cell unknowns A_tt^{-1} b_t - elim u_f of the face solution
        `face_vec`, with each cell's class tables gathered one cell block at
        a time."""
        b_t = self.space.split(rhs)[0]
        u_loc = _gather(face_vec, self._face_ids)
        u_t = np.empty(b_t.shape)
        for cells in cell_blocks(len(b_t)):
            A_tt, elim = (self.space.gather(table, cells)
                          for table in (self.A_tt, self.elim))
            u_t[cells] = (np.linalg.solve(A_tt, b_t[cells, :, None])
                          - elim @ u_loc[cells, :, None])[..., 0]
        return u_t


def assemble(space, shift=0.0):
    """Assemble the HHO system, or its shift A - shift H by the coercivity
    norm, with static-condensation data."""
    return CondensedSystem(space, shift)


def load_moments(space, load, degree):
    """Moments <f, phi> = int f0 phi + int g . grad phi (T, n) of the load
    against the broken basis of `degree`, on the load rule (reference
    tables; g is mapped to J^{-1} g), one cell block at a time: the points,
    f0, g and their moments exist for one block only.

    f0 must return shape (T, Q) and g shape (T, Q, 2) at the points
    (T, Q, 2), all values finite.
    """
    rule = space.rule_cell_load
    values = cell_basis_values(degree, rule.points)
    if load.g is not None:
        grads = cell_basis_gradients(degree, rule.points)
    out = np.zeros((space.mesh.num_cells, values.shape[1]))
    for cells in cell_blocks(space.mesh.num_cells):
        pts, w = cell_quadrature(space.mesh, rule, cells)
        if load.f0 is not None:
            out[cells] += (w * checked_values(load.f0, pts, "load f0")) @ values
        if load.g is not None:
            wg = w[..., None] * checked_values(load.g, pts, "load g", gradient=True)
            out[cells] += gradient_moments(space.mesh, grads, wg, cells)
    return out


def rhs_classical(space, load):
    """Right-hand side of the classical method: the degree-p `load_moments`
    int f0 sigma_M in the cell unknowns, zero face entries.

    Divergence-form loads are rejected: the classical duality cannot be
    extended to them.
    """
    if load.has_divergence_part:
        raise MethodNotApplicableError(
            "classical right-hand side is undefined for divergence-form loads; "
            "use the smoothed method"
        )
    rhs = np.zeros(space.num_dofs)
    space.split(rhs)[0][:] = load_moments(space, load, space.p)
    return rhs


def rhs_smoothed(space, smoother, load):
    """Right-hand side of the smoothed method: <f, S_H sigma>, the
    degree-D `load_moments` (T, nD) on the broken basis underlying the
    smoother output, pulled back by S_H^T block by block without forming
    any smoother matrix."""
    moments = load_moments(space, load, smoother.degree)
    return smoother.apply_transpose(moments.ravel())


def solve(system, rhs, method="direct"):
    """Solve via static condensation; return the dof vector.

    rhs and the result are in the `HHOSpace` layout, and rhs is not written
    to. method 'direct' factors the condensed SPD system once, by Cholesky
    on the mesh's dissection tree from the class Schur blocks (`face_factor`,
    reused across right-hand sides), without assembling the face matrix;
    'cg' runs Jacobi-preconditioned conjugate gradients on `face_matrix` to
    relative residual `CG_RTOL` = 1e-13. Any other method raises
    ValueError; a face system that is not positive definite raises
    `SolverError`.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    b_f = system.condense_rhs(rhs)
    if system.space.num_face_dofs == 0:
        u_f = np.zeros(0)
    elif method == "direct":
        u_f = system.face_factor.solve(b_f)
    else:
        M = sparse.diags(1.0 / system.face_matrix.diagonal())
        u_f, info = cg(system.face_matrix, b_f, rtol=CG_RTOL, atol=0.0, M=M,
                       maxiter=20 * max(len(b_f), 1))
        if info != 0:
            raise SolverError(f"CG failed to converge (info={info})")
    return np.concatenate([system.recover_cells(rhs, u_f).ravel(), u_f])


def solve_full(system, rhs):
    """Solve the uncondensed system by SuperLU, as numbered with diagonal
    pivots; return the dof vector. No solver path calls it."""
    lu = splu(system.full_matrix.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
              panel_size=4, options={"SymmetricMode": True})
    return lu.solve(rhs)


def residual_inf(system, vec, rhs):
    """Max-norm discrete residual ||b_H(U, .) - rhs||_inf of a dof vector."""
    return float(np.abs(system.full_matrix @ vec - rhs).max())
