"""The dense coefficient matrix against the sparse and per-component code it replaced.

The references below are the library's earlier sparse (CSR) coefficient
matrix and Gram product, and its per-component loops for target
composition, descent coordinates and the lowest-order subspace.  The
library now forms one dense array per map and does each job with one array
product or column selection; forms must agree to 1e-12 of their largest
entry, components to 1e-12 of their largest coefficient, and the
lowest-order subspace exactly.
"""

import functools
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ballmaps
from ballmaps import (
    BallAutomorphism,
    HermitianForm,
    Polynomial,
    RationalMap,
    catalog,
    compose_target,
    descend,
    form_of,
    gram_form,
    identity_map,
    lowest_order_subspace,
    realize_subgroup,
    symmetric_group_map,
)
from ballmaps.maps import (
    CATALOG_NAMES,
    MapConstructionError,
    Subspace,
    _tensor_pair_order,
    coefficient_matrix,
    polynomials_of_rows,
)
from ballmaps.polynomials import TAU_ZERO, degree_monomials, grlex_key, max_coeff_diff

from conftest import random_unitary

S3_GENERATORS = {
    "trivial": [],
    "transposition-12": [(1, 0, 2)],
    "transposition-23": [(0, 2, 1)],
    "transposition-13": [(2, 1, 0)],
    "alternating": [(1, 2, 0)],
    "full": [(1, 2, 0), (1, 0, 2)],
}


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------
def _reference_coefficient_matrix(polys):
    support = set()
    for p in polys:
        support.update(p.terms)
    monos = sorted(support, key=grlex_key)
    index = {mono: i for i, mono in enumerate(monos)}
    data, rows, cols = [], [], []
    for r, p in enumerate(polys):
        for exp, coeff in p.terms.items():
            rows.append(r)
            cols.append(index[exp])
            data.append(coeff)
    mat = sp.csr_matrix(
        (np.array(data, dtype=complex), (rows, cols)), shape=(len(polys), len(monos))
    )
    return monos, mat


def _reference_gram_form(polys, signs=None):
    monos, A = _reference_coefficient_matrix(polys)
    sgn = np.ones(len(polys)) if signs is None else np.asarray(signs, dtype=float)
    scaled = A.multiply(sgn[:, None]).tocsr()
    gram = (scaled.T @ A.conj()).toarray()
    return HermitianForm(polys[0].nvars, monos, gram).compressed()


def _reference_form_of(f):
    return _reference_gram_form(
        f.numerator + (f.denominator,), [1.0] * f.m + [-1.0] * (f.l + 1)
    )


def _reference_compose_target(f, psi):
    N = f.target_dim
    L = psi.linear_part()
    num, q = f.numerator, f.denominator
    Lp = []
    for k in range(N):
        acc = Polynomial.zero(f.n)
        for i in range(N):
            if abs(L[k, i]) > TAU_ZERO:
                acc = acc + num[i].scale(L[k, i])
        Lp.append(acc)
    comps = []
    for j in range(N):
        acc = Polynomial.zero(f.n)
        for k in range(N):
            u = psi.U[j, k]
            if abs(u) <= TAU_ZERO:
                continue
            acc = acc + q.scale(u * psi.a[k]) - Lp[k].scale(u)
        comps.append(acc)
    den = q
    for k in range(N):
        ak = complex(psi.a[k])
        if abs(ak) > TAU_ZERO:
            den = den - num[k].scale(ak.conjugate())
    return RationalMap(comps, den, l=0)


def _reference_coords(f, basis):
    out, num = [], f.numerator
    for k in range(basis.shape[0]):
        acc = Polynomial.zero(f.n)
        for j in range(f.target_dim):
            w = complex(basis[k, j]).conjugate()
            if abs(w) > TAU_ZERO:
                acc = acc + num[j].scale(w)
        out.append(acc)
    return out


def _reference_descend(f, A, g):
    inside = _reference_coords(f, A.basis)
    outside = _reference_coords(f, A.orthogonal_complement_basis())
    pairs = _tensor_pair_order(len(inside), g.target_dim)
    comps = [inside[i] * g.numerator[j] for i, j in pairs]
    comps += [p * g.denominator for p in outside]
    return RationalMap(comps, f.denominator * g.denominator, l=0)


def _reference_lowest_order_subspace(f):
    num = f.numerator
    degrees = [sum(exp) for p in num for exp in p.terms]
    nu = min(degrees)
    vectors = []
    for alpha in degree_monomials(f.n, nu):
        vec = [p.coefficient(alpha) for p in num]
        if max(abs(c) for c in vec) > TAU_ZERO:
            vectors.append(vec)
    return Subspace.from_vectors(f.target_dim, vectors)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _map(kind, key):
    if kind == "catalog":
        return catalog(key)
    if kind == "symmetric":
        return symmetric_group_map(key)
    return realize_subgroup(S3_GENERATORS[key], 3)


CATALOG_CASES = [("catalog", name) for name in CATALOG_NAMES]
SYMMETRIC_CASES = [("symmetric", n) for n in range(2, 7)]
S3_CASES = [("s3", name) for name in S3_GENERATORS]


def _assert_forms_close(h, ref):
    assert h.max_entry_diff(ref) <= 1e-12 * max(1.0, ref.max_abs())


def _assert_maps_close(f, ref):
    assert (f.n, f.m, f.l) == (ref.n, ref.m, ref.l)
    pairs = list(zip(f.numerator + (f.denominator,), ref.numerator + (ref.denominator,)))
    scale = max(1.0, max(p.max_abs_coeff() for _, p in pairs))
    assert max(max_coeff_diff(p, r) for p, r in pairs) <= 1e-12 * scale
    _assert_forms_close(form_of(f), _reference_form_of(ref))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind,key", CATALOG_CASES + SYMMETRIC_CASES + S3_CASES)
def test_form_matches_sparse_reference(kind, key):
    f = _map(kind, key)
    _assert_forms_close(form_of(f), _reference_form_of(f))
    signs = [(-1.0) ** k for k in range(f.target_dim)]
    _assert_forms_close(
        gram_form(f.n, *coefficient_matrix(f.numerator), signs),
        _reference_gram_form(f.numerator, signs),
    )


@pytest.mark.parametrize("kind,key", CATALOG_CASES + SYMMETRIC_CASES + S3_CASES)
def test_compose_target_matches_component_loop(kind, key):
    f = _map(kind, key)
    N = f.target_dim
    rng = np.random.default_rng([N, f.n])
    if N > 30:
        # a permutation with phases and a center on two components keep the
        # reference loop short on the larger maps
        U = np.eye(N)[rng.permutation(N)] * np.exp(1j * rng.uniform(0, 2 * np.pi, N))
        a = np.zeros(N, dtype=complex)
        a[rng.choice(N, 2, replace=False)] = [0.3, 0.2j]
    else:
        U = random_unitary(rng, N)
        a = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 0.4 / np.sqrt(2 * N)
    for psi in (BallAutomorphism(U, a), BallAutomorphism(U)):
        _assert_maps_close(compose_target(f, psi), _reference_compose_target(f, psi))


@pytest.mark.parametrize("kind,key", CATALOG_CASES + SYMMETRIC_CASES)
def test_descend_matches_component_loop(kind, key):
    f = _map(kind, key)
    A = lowest_order_subspace(f)
    np.testing.assert_array_equal(A.basis, _reference_lowest_order_subspace(f).basis)
    g = identity_map(f.n)
    _assert_maps_close(descend(f, A, g), _reference_descend(f, A, g))
    if f.target_dim <= 30:
        rng = np.random.default_rng(f.target_dim)
        vectors = rng.standard_normal((2, f.target_dim)) + 1j * rng.standard_normal((2, f.target_dim))
        B = Subspace.from_vectors(f.target_dim, vectors)
        _assert_maps_close(descend(f, B, g), _reference_descend(f, B, g))


def test_lowest_order_subspace_of_zero_map_is_refused():
    f = RationalMap([Polynomial.zero(2)] * 2, Polynomial.constant(2, 1.0))
    with pytest.raises(MapConstructionError):
        lowest_order_subspace(f)


def test_coefficient_matrix_is_dense_and_matches_sparse_reference():
    f = symmetric_group_map(3)
    polys = f.numerator + (f.denominator,)
    monos, A = coefficient_matrix(polys)
    ref_monos, ref = _reference_coefficient_matrix(polys)
    assert isinstance(A, np.ndarray)
    assert monos == ref_monos
    np.testing.assert_array_equal(A, ref.toarray())


coefficients = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def polynomial_lists(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    polys = draw(
        st.lists(
            st.dictionaries(exps, coefficients, max_size=6).map(
                lambda terms: Polynomial(nvars, terms)
            ),
            max_size=5,
        )
    )
    return nvars, polys


@settings(max_examples=200, deadline=None)
@given(polynomial_lists())
def test_coefficient_rows_round_trip(case):
    nvars, polys = case
    monos, A = coefficient_matrix(polys)
    assert A.shape == (len(polys), len(monos))
    assert polynomials_of_rows(nvars, monos, A) == list(polys)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ballmaps; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
