import numpy as np
import pytest
from scipy.linalg import eigh

import hho.system
from conftest import jittered_square
from hho.local_ops import HHOSpace
from hho.mesh import build_unit_square
from hho.system import assemble, solve_full
from hho.verify import _min_eigenvalue


def _dense_min_eigenvalue(system):
    return eigh(system.full_matrix.toarray(),
                system.space.hho_norm_matrix().toarray(),
                eigvals_only=True, subset_by_index=[0, 0])[0]


# every (p, n) of the default suite, and a jittered mesh at the top degree
@pytest.mark.parametrize("p, mesh", [
    *((p, build_unit_square(n)) for p in (0, 1, 2) for n in (2, 4, 8)),
    (3, jittered_square(4)),
], ids=[*(f"p{p}-n{n}" for p in (0, 1, 2) for n in (2, 4, 8)), "p3-jittered4"])
def test_min_eigenvalue_matches_dense_oracle(p, mesh):
    system = assemble(HHOSpace(mesh, p))
    want = _dense_min_eigenvalue(system)
    assert want > 0.0
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("p, n, cell", [(0, 2, 0), (2, 8, 17)])
def test_min_eigenvalue_of_indefinite_matrix_is_exact(p, n, cell):
    # one negated local block makes A indefinite: the pivot certificate
    # fails, and the value must still be the smallest eigenvalue (negative),
    # not the positive one nearest the shift
    space = HHOSpace(build_unit_square(n), p)
    space.A_loc[cell] *= -1.0
    system = assemble(space)
    want = _dense_min_eigenvalue(system)
    assert want < 0.0
    assert _min_eigenvalue(system) == pytest.approx(want, rel=1e-12)


def test_coercivity_check_reuses_the_full_factor(monkeypatch):
    calls = []
    splu = hho.system.splu
    monkeypatch.setattr(hho.system, "splu",
                        lambda *args, **kw: calls.append(1) or splu(*args, **kw))
    system = assemble(HHOSpace(build_unit_square(4), 1))
    solve_full(system, np.ones(system.space.num_dofs))
    _min_eigenvalue(system)
    assert len(calls) == 1
