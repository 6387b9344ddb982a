import math
from itertools import product

import numpy as np
import pytest

from gqms import fock


def brute_dimension(d, N_max):
    return sum(1 for t in product(range(N_max + 1), repeat=d) if sum(t) <= N_max)


def test_single_mode_basis():
    sp = fock.build_space(1, 3)
    assert sp.D == 4
    assert sp.basis == ((0,), (1,), (2,), (3,))


def test_two_mode_graded_lex_order():
    sp = fock.build_space(2, 2)
    assert sp.D == 6
    assert sp.basis == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
    assert all(sp.index_of[n] == i for i, n in enumerate(sp.basis))


def test_dimension_formula_matches_brute_force():
    for d, N_max in [(1, 5), (2, 4), (3, 4), (4, 3)]:
        sp = fock.build_space(d, N_max)
        assert sp.D == math.comb(N_max + d, d)
        assert sp.D == brute_dimension(d, N_max)
        for margin in range(N_max + 1):
            interior = fock.build_space(d, N_max, interior_margin=margin)
            assert interior.interior_dim() == brute_dimension(d, N_max - margin)
        with pytest.raises(ValueError, match="interior_margin=.* exceeds N_max"):
            fock.build_space(d, N_max, interior_margin=N_max + 1).interior_dim()
    assert fock.build_space(3, 4).D == 35


def test_basis_index_inverts_the_basis():
    # the closed-form index of each basis vector, from its suffix sums, is its position
    for d, N_max in [(1, 5), (2, 4), (3, 4), (4, 3), (6, 2)]:
        space = fock.build_space(d, N_max)
        suffix = np.cumsum(space.occupations[:, ::-1], axis=1)[:, ::-1]
        assert fock._basis_index(suffix, N_max).tolist() == list(range(space.D))


def test_dimension_cap_guard():
    with pytest.raises(ValueError, match="exceeds cap"):
        fock.build_space(4, 20)
    with pytest.raises(ValueError):
        fock.build_space(0, 3)


def test_ladder_actions_single_mode():
    sp = fock.build_space(1, 3)
    lad = fock.build_ladders(sp)
    a = lad.a[0].toarray()
    adag = lad.adag[0].toarray()
    e0, e1, e2 = np.eye(4)[0], np.eye(4)[1], np.eye(4)[2]
    np.testing.assert_allclose(a @ e1, e0)
    np.testing.assert_allclose(a @ e0, np.zeros(4))
    np.testing.assert_allclose(adag @ e1, np.sqrt(2) * e2)
    # creation out of the cutoff is hard-truncated to zero
    np.testing.assert_allclose(adag @ np.eye(4)[3], np.zeros(4))


def test_number_operator_diagonal():
    sp = fock.build_space(2, 3)
    lad = fock.build_ladders(sp)
    e11 = sp.basis_vector((1, 1))
    np.testing.assert_allclose(lad.N.toarray() @ e11, 2 * e11)
    built = sum(lad.adag[j] @ lad.a[j] for j in range(2)).toarray()
    np.testing.assert_allclose(built, lad.N.toarray(), atol=1e-14)


def test_ccr_on_interior():
    for d, N_max in [(1, 6), (2, 4), (3, 3)]:
        sp = fock.build_space(d, N_max)
        lad = fock.build_ladders(sp)
        dim = sp.interior_dim()
        I = np.eye(dim)
        for j in range(d):
            for k in range(d):
                comm = (lad.a[j] @ lad.adag[k] - lad.adag[k] @ lad.a[j])[:dim, :dim].toarray()
                delta = I if j == k else np.zeros_like(I)
                err = np.abs(comm - delta).max()
                assert err <= 1e-12


def test_ladders_connect_adjacent_grades_only():
    sp = fock.build_space(2, 4)
    lad = fock.build_ladders(sp)
    grades = sp.grades
    for j in range(2):
        coo = lad.a[j].tocoo()
        assert all(grades[r] == grades[c] - 1 for r, c in zip(coo.row, coo.col))
        coo = lad.adag[j].tocoo()
        assert all(grades[r] == grades[c] + 1 for r, c in zip(coo.row, coo.col))
        assert lad.a[j].nnz <= sp.D
        assert lad.adag[j].nnz <= sp.D


def test_check_interior():
    sp = fock.build_space(1, 4)
    fock.check_interior(sp, sp.vacuum())
    with pytest.raises(ValueError, match="boundary weight"):
        fock.check_interior(sp, sp.basis_vector((4,)))
