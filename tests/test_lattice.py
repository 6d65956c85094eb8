"""Integer lattice machinery: Smith form and torus annihilators."""

import math

import numpy as np
import pytest

from ballmaps.lattice import (
    annihilates,
    invariant_factors,
    smith_normal_form,
    torus_annihilator,
)


def int_det(mat):
    return round(np.linalg.det(np.array(mat, dtype=float)))


def check_snf(matrix):
    S, U, V = smith_normal_form(matrix, with_left=True)
    assert int_det(U) in (1, -1)
    assert int_det(V) in (1, -1)
    prod = np.array(U) @ np.array(matrix) @ np.array(V)
    assert np.array_equal(prod, np.array(S))
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a != 0 and b % a == 0
    for i in range(len(S)):
        for j in range(len(S[0])):
            if i != j:
                assert S[i][j] == 0
    return diag


def test_snf_known_quadratic_lattice():
    # exponent rows of (z1^2, z1 z2, z2^2)
    assert invariant_factors([[2, 0], [1, 1], [0, 2]]) == [1, 2]


def test_snf_known_cubic_lattice():
    assert invariant_factors([[3, 0], [1, 1], [0, 3]]) == [1, 3]


def test_snf_transform_identity_on_random_matrices(rng):
    for _ in range(25):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        mat = rng.integers(-6, 7, size=(k, n)).tolist()
        check_snf(mat)


@pytest.mark.parametrize(
    "diagonal, factors",
    [([2, 3], [1, 6]), ([4, 6, 10], [2, 2, 60])],
)
def test_snf_restores_the_divisibility_chain_of_a_diagonal(diagonal, factors):
    # each pivot leaves a trailing entry it does not divide, which is added
    # into the pivot row before the pivot is reduced again
    matrix = np.diag(diagonal).tolist()
    assert check_snf(matrix) == factors
    dim, orders, gens, _ = torus_annihilator(matrix, len(diagonal))
    assert dim == 0 and orders == [d for d in factors if d > 1]
    assert all(annihilates(matrix, theta) for theta in gens)


def test_annihilator_full_torus():
    dim, orders, gens, dirs = torus_annihilator([], 3)
    assert dim == 3 and orders == [] and len(dirs) == 3


def test_annihilator_trivial():
    rows = [[1, 0], [0, 1]]
    dim, orders, gens, _ = torus_annihilator(rows, 2)
    assert dim == 0 and orders == []


def test_annihilator_order_two():
    rows = [[2, 0], [1, 1], [0, 2]]
    dim, orders, gens, _ = torus_annihilator(rows, 2)
    assert dim == 0
    assert orders == [2]
    theta = gens[0]
    assert annihilates(rows, theta)
    # the generator is the negation matrix diag(-1, -1)
    diag = np.exp(1j * np.array(theta))
    assert np.allclose(diag, [-1.0, -1.0])


def test_annihilator_order_three():
    rows = [[3, 0], [1, 1], [0, 3]]
    dim, orders, gens, _ = torus_annihilator(rows, 2)
    assert dim == 0 and orders == [3]
    diag = np.exp(1j * np.array(gens[0]))
    eta = np.exp(2j * math.pi / 3)
    candidates = [np.array([eta, eta**2]), np.array([eta**2, eta])]
    assert any(np.allclose(diag, c) for c in candidates)


def test_annihilator_mixed_torus():
    # only the difference of the angles is constrained
    rows = [[1, -1]]
    dim, orders, gens, dirs = torus_annihilator(rows, 2)
    assert dim == 1 and orders == []
    for d in dirs:
        assert annihilates(rows, [x * 0.37 for x in d])


def test_annihilates_rejects():
    assert not annihilates([[1, 0]], [0.5, 0.0])
    assert annihilates([[1, 0]], [2.0 * math.pi, 0.123])
