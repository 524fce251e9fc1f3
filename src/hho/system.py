"""Global assembly, load discretizations, static condensation, linear solve.

Two right-hand sides are supported: the classical one integrates an L2 load
density against the cell unknowns and refuses divergence-form loads (the
duality is not defined there, a designed failure); the smoothed one evaluates
the load on the smoothed test functions and accepts any load of the form
f0 - div g.

Cell unknowns are eliminated locally (static condensation); the global solve
acts on interior-face unknowns only. Right-hand sides and solutions are dof
vectors in the layout of `HHOSpace`: cells by index, then interior faces in
the mesh's nested-dissection order (`SimplicialMesh.interior_faces`). Every
matrix is assembled in that one numbering, and every SPD factor is taken as
numbered (`SPD_LU`): with the cells first, factoring the full matrix is
static condensation followed by the face factor.
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

# SuperLU settings for an SPD matrix in the dof numbering: factored as
# numbered, with the diagonal pivots kept (no row interchanges). `face_lu`,
# `full_lu` and the coercivity check's shifted factor use them. Besides L
# and U, SuperLU keeps a working store that grows with `panel_size`, the
# columns it factors as one panel: about 2 panel_size ints and panel_size
# doubles per unknown. At 4, not its default 20, the face factor of a
# p = 3 converge level raises maxrss by 9.0 MB, not 11.0, at level 32 and
# by 207 MB, not 259, at level 128, in less time at both.
SPD_LU = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=4,
              options={"SymmetricMode": True})


class MethodNotApplicableError(RuntimeError):
    """The classical L2 right-hand side met a divergence-form load."""


class SolverError(RuntimeError):
    """The iterative solver stopped before reaching its tolerance."""


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


class CondensedSystem:
    """SPD face-unknown system plus the elimination data of each geometry
    class.

    The face unknowns are the face dofs of the `HHOSpace` layout, in the
    mesh's order of the interior faces. The local blocks A_K are formed and
    condensed once per geometry class of the space (`space.class_matrices`,
    one block of classes at a time), and each cell's Schur complement
    A_ff - A_ft elim, read from its class, is added into one (nf, nf) block
    per pair of interior faces sharing the cell, one cell block at a time:
    the face matrix is the block-sparse sum of these blocks, converted once
    to CSC. The system keeps the cell rows `A_tt` (C, nc, nc) and the
    elimination `elim` = A_tt^{-1} A_tf (C, nc, 3 nf) per class, indexed by
    `space.cell_class`, and the face matrix; no (T, nloc, nloc) or
    (T, 3 nf, 3 nf) array and no level-sized triplet array exists.
    `full_matrix` forms the blocks again on first use.
    """

    def __init__(self, space):
        self.space = space
        mesh, nc, nf = space.mesh, space.nc, space.nf
        T, Ei = mesh.num_cells, mesh.num_interior_faces

        # the face unknowns are the face dofs, negative on boundary faces
        self._face_ids = space.local_dof_ids[:, nc:] - space.num_cell_dofs
        faces = mesh.face_interior_index[mesh.cell_faces]  # (T, 3)

        # one (nf, nf) block per pair of interior faces sharing a cell; pair
        # ranks cell K's pair (face i, face j) by face i, then face j
        both = (faces[:, :, None] >= 0) & (faces[:, None, :] >= 0)
        pairs, at = np.unique((faces[:, :, None] * Ei + faces[:, None, :])[both],
                              return_inverse=True)
        pair = np.full((T, 3, 3), -1)
        pair[both] = at
        blocks = np.zeros(len(pairs) * nf * nf)
        entry = np.arange(nf * nf).reshape(nf, nf)

        # per block of classes, from the blocks A_K of each class's first
        # cell: the cell elimination A_tt^{-1} A_tf by factor-and-solve, no
        # inverse, and the Schur complement, which the cells of these
        # classes then add, one cell block at a time; an entry sums the
        # blocks of at most two cells (a face's dofs with themselves, from
        # the face's two cells), so its value does not depend on the order
        C = len(space.class_cells)
        self.A_tt = np.empty((C, nc, nc))
        self.elim = np.empty((C, nc, 3 * nf))
        # the cells sorted by class: a block of classes owns one slice
        by_class = np.argsort(space.cell_class, kind="stable")
        ends = np.concatenate([[0], np.cumsum(np.bincount(space.cell_class))])
        for classes in cell_blocks(C):
            A = space.class_matrices(classes)
            self.A_tt[classes] = A[:, :nc, :nc]
            self.elim[classes] = np.linalg.solve(A[:, :nc, :nc], A[:, :nc, nc:])
            schur = A[:, nc:, nc:] - A[:, nc:, :nc] @ self.elim[classes]
            del A
            members = by_class[ends[classes.start]:ends[classes.stop]]
            for block in cell_blocks(len(members)):
                cells = members[block]
                S = schur[space.cell_class[cells] - classes.start]
                # block (i, j) of A^T: face i's columns of A by face j's rows
                keep = both[cells]
                S = S.reshape(-1, 3, nf, 3, nf).transpose(0, 3, 1, 4, 2)[keep]
                pos = pair[cells][keep][:, None, None] * nf * nf + entry
                np.add.at(blocks, pos.ravel(), S.ravel())  # 1-d: numpy's fast path
        # the CSR arrays of A^T are the CSC arrays of A, with int indices that
        # splu takes without a copy (bsr.tocsc would go through COO)
        n = space.num_face_dofs
        ptr = np.searchsorted(pairs // Ei, np.arange(Ei + 1))
        At = sparse.bsr_matrix((blocks.reshape(-1, nf, nf), pairs % Ei, ptr),
                               shape=(n, n)).tocsr()
        self.face_matrix = sparse.csc_matrix((At.data, At.indices, At.indptr),
                                             shape=(n, n))

    @cached_property
    def face_lu(self):
        """LU factors of the face matrix as numbered (`SPD_LU`), on first
        use."""
        return splu(self.face_matrix, **SPD_LU)

    @cached_property
    def full_matrix(self):
        """Uncondensed global matrix, assembled on first use from the local
        blocks of `space.local_matrices`."""
        return assemble_bilinear(self.space, self.space.local_matrices())

    @cached_property
    def full_lu(self):
        """LU factors of the full matrix as numbered (`SPD_LU`), on first
        use."""
        return splu(self.full_matrix.tocsc(), **SPD_LU)

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


def assemble(space):
    """Assemble the HHO system with static-condensation data."""
    return CondensedSystem(space)


def _load_values(load, name, pts):
    """load.f0 or load.g at the points (T, Q, 2), checked before use.

    f0 must return shape (T, Q) and g shape (T, Q, 2), all values finite.
    """
    return checked_values(getattr(load, name), pts, f"load {name}",
                          gradient=name == "g")


def rhs_classical(space, load):
    """Right-hand side of the classical method: int f0 sigma_M.

    Face-basis entries are zero. Divergence-form loads are rejected: the
    classical duality cannot be extended to them.
    """
    if load.has_divergence_part:
        raise MethodNotApplicableError(
            "classical right-hand side is undefined for divergence-form loads; "
            "use the smoothed method"
        )
    rule = space.rule_cell_load
    pts, w = cell_quadrature(space.mesh, rule)
    wf = w * _load_values(load, "f0", pts)
    rhs = np.zeros(space.num_dofs)
    space.split(rhs)[0][:] = wf @ cell_basis_values(space.p, rule.points)
    return rhs


def rhs_smoothed(space, smoother, load):
    """Right-hand side of the smoothed method: <f, S_H sigma>.

    The load functional is evaluated on the broken basis underlying the
    smoother output (against reference tables; the divergence part g is
    mapped to J^{-1} g), one cell block at a time: the points, f0, g and
    their moments exist for one block only. The moments (T, nD) are pulled
    back by S_H^T, applied block by block without forming any smoother
    matrix.
    """
    rule = space.rule_cell_load
    values = cell_basis_values(smoother.degree, rule.points)
    grads = cell_basis_gradients(smoother.degree, rule.points)
    fvec = np.zeros((space.mesh.num_cells, smoother.nD))
    for cells in cell_blocks(space.mesh.num_cells):
        pts, w = cell_quadrature(space.mesh, rule, cells)
        if load.f0 is not None:
            fvec[cells] += (w * _load_values(load, "f0", pts)) @ values
        if load.g is not None:
            wg = w[..., None] * _load_values(load, "g", pts)
            fvec[cells] += gradient_moments(space.mesh, grads, wg, cells)
    return smoother.apply_transpose(fvec.ravel())


def solve(system, rhs, method="direct"):
    """Solve via static condensation; return the dof vector.

    rhs and the result are in the `HHOSpace` layout, and rhs is not written
    to. method 'direct' factorizes the condensed SPD matrix once, as
    numbered, with diagonal pivots (`face_lu`, reused across right-hand
    sides); 'cg' runs Jacobi-preconditioned conjugate gradients to relative
    residual `CG_RTOL` = 1e-13. Any other method raises ValueError.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    b_f = system.condense_rhs(rhs)
    if system.space.num_face_dofs == 0:
        u_f = np.zeros(0)
    elif method == "direct":
        u_f = system.face_lu.solve(b_f)
    else:
        M = sparse.diags(1.0 / system.face_matrix.diagonal())
        u_f, info = cg(system.face_matrix, b_f, rtol=CG_RTOL, atol=0.0, M=M,
                       maxiter=20 * max(len(b_f), 1))
        if info != 0:
            raise SolverError(f"CG failed to converge (info={info})")
    return np.concatenate([system.recover_cells(rhs, u_f).ravel(), u_f])


def solve_full(system, rhs):
    """Solve the uncondensed system directly with `full_lu`; return the dof
    vector."""
    return system.full_lu.solve(rhs)


def residual_inf(system, vec, rhs):
    """Max-norm discrete residual ||b_H(U, .) - rhs||_inf of a dof vector."""
    return float(np.abs(system.full_matrix @ vec - rhs).max())
