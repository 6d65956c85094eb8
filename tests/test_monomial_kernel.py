"""The one monomial kernel against the per-row and per-term code it replaced.

The references below are the library's earlier sphere division (a dense
matrix over the division simplex filled one row at a time through a
tuple-keyed index), its sampler power loop, its scalar polynomial
evaluation and its per-term evaluation of the invariance system.  Sphere
division must return a bit-identical quotient form and, as its residual, the
largest entry of the reference remainder; the sampler must return the same
residual; the evaluations, whose powers are now taken by numpy, must agree to
1e-12 of the magnitude of their terms.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ballmaps import (
    CapabilityError,
    HermitianForm,
    Polynomial,
    catalog,
    emit_invariance_system,
    evaluate_invariance_system,
    form_of,
    identity_map,
    is_proper,
    quotient_by_sphere,
    realize_subgroup,
    sphere_form,
    sphere_sample_check,
    symmetric_group_map,
)
import ballmaps
from ballmaps import invariance
from ballmaps.maps import CATALOG_NAMES, stacked_coefficients
from ballmaps.polynomials import grlex_monomials

from conftest import S3_GENERATORS


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------
def _dense_on_simplex(h, max_deg):
    monos = grlex_monomials(h.nvars, max_deg)
    index = {m: i for i, m in enumerate(monos)}
    size = len(monos)
    C = np.zeros((size, size), dtype=complex)
    if h.size:
        idx = np.array([index[b] for b in h.basis])
        C[np.ix_(idx, idx)] = h.mat
    return monos, index, C


def _reference_quotient_by_sphere(h):
    n = h.nvars
    if not h.size:
        return HermitianForm.zero(n), HermitianForm.zero(n)
    D = h.max_degree()
    monos, index, C = _dense_on_simplex(h, D)
    size = len(monos)

    shifts = []
    for i in range(n):
        col = np.full(size, -1, dtype=np.int64)
        for j, b in enumerate(monos):
            if b[i]:
                prev = list(b)
                prev[i] -= 1
                col[j] = index[tuple(prev)]
        shifts.append(col)

    U = np.zeros((size, size), dtype=complex)
    interior = [j for j, b in enumerate(monos) if sum(b) <= D - 1]
    interior_mask = np.zeros(size, dtype=bool)
    interior_mask[interior] = True
    for a in interior:
        alpha = monos[a]
        row = -C[a, :].copy()
        for i in range(n):
            if alpha[i]:
                prev = list(alpha)
                prev[i] -= 1
                pa = index[tuple(prev)]
                valid = shifts[i] >= 0
                row[valid] += U[pa, shifts[i][valid]]
        row[~interior_mask] = 0.0
        U[a, :] = row

    R = C + U
    for i in range(n):
        valid = shifts[i] >= 0
        rows_with_prev = [a for a in range(size) if monos[a][i]]
        for a in rows_with_prev:
            prev = list(monos[a])
            prev[i] -= 1
            pa = index[tuple(prev)]
            R[a, valid] -= U[pa, shifts[i][valid]]

    quotient = HermitianForm(n, monos, U).compressed()
    remainder = HermitianForm(n, monos, R)
    return quotient, remainder


def _reference_sample_residual(f, count=1000, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, f.n)) + 1j * rng.standard_normal((count, f.n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    monos, A = stacked_coefficients(f)
    mono_arr = np.array(monos, dtype=np.int64)
    vals = np.ones((count, len(monos)), dtype=complex)
    for i in range(f.n):
        exps = mono_arr[:, i]
        nz = exps > 0
        if np.any(nz):
            vals[:, nz] *= z[:, i : i + 1] ** exps[nz][None, :]
    vals = vals.T
    signs = np.array([1.0] * f.m + [-1.0] * f.l)
    num_norm = np.zeros(count)
    for start in range(0, f.target_dim, 2048):
        stop = min(start + 2048, f.target_dim)
        block = A[start:stop, :] @ vals
        num_norm += (signs[start:stop, None] * (np.abs(block) ** 2)).sum(axis=0)
    qabs = np.abs(np.asarray(A[f.target_dim, :] @ vals).reshape(-1))
    return float(np.max(np.abs(num_norm / (qabs**2) - 1.0)))


def _reference_evaluate(p, point):
    pt = [complex(x) for x in point]
    total = 0.0 + 0.0j
    for exp, coeff in p.sorted_terms():
        val = coeff
        for x, e in zip(pt, exp):
            if e:
                val *= x**e
        total += val
    return total


def _reference_system_residual(system, matrix):
    """Old per-term loop; also returns the largest sum of term magnitudes."""
    u = np.asarray(matrix, dtype=complex).reshape(-1)
    worst = scale = 0.0
    for eq in system["equations"]:
        total, size = 0.0 + 0.0j, 0.0
        for term in eq["terms"]:
            val = complex(term["re"], term["im"])
            for idx, e in enumerate(term["u"]):
                if e:
                    val *= u[idx] ** e
            for idx, e in enumerate(term["ubar"]):
                if e:
                    val *= u[idx].conjugate() ** e
            total += val
            size += abs(val)
        worst, scale = max(worst, abs(total)), max(scale, size)
    return worst, scale


# ---------------------------------------------------------------------------
# sphere division is bit-identical to the per-row reference
# ---------------------------------------------------------------------------
def _assert_same_division(h):
    quotient, residual = quotient_by_sphere(h)
    want_quotient, want_remainder = _reference_quotient_by_sphere(h)
    assert quotient.basis == want_quotient.basis
    assert np.array_equal(quotient.mat, want_quotient.mat)
    # JSON also tells the signs of zero real and imaginary parts apart
    assert json.dumps(quotient.to_dict()) == json.dumps(want_quotient.to_dict())
    assert residual == want_remainder.max_abs()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sphere_division_matches_reference_on_catalog(name):
    _assert_same_division(form_of(catalog(name)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sphere_division_matches_reference_on_symmetric_group_maps(n):
    _assert_same_division(form_of(symmetric_group_map(n)))


@pytest.mark.parametrize("name", S3_GENERATORS)
def test_sphere_division_matches_reference_on_s3_realizations(name):
    _assert_same_division(form_of(realize_subgroup(S3_GENERATORS[name], 3)))


@st.composite
def random_forms(draw):
    """A random Hermitian form on monomials of degree <= 6 in 1..4 variables,
    with some entries zeroed and, in half of them, imaginary integer entries;
    half of them are multiplied by the sphere form, so their remainder
    vanishes to rounding."""
    n = draw(st.integers(1, 4))
    monos = grlex_monomials(n, draw(st.integers(0, 6)))
    basis = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=8, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = len(basis)
    mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if draw(st.booleans()):
        # imaginary integers: entries with zero real parts
        mat = 1j * rng.integers(-3, 4, (size, size))
    mat *= rng.random((size, size)) < 0.7
    h = HermitianForm(n, basis, mat + mat.conj().T)
    if draw(st.booleans()):
        h = h * sphere_form(n)
    return h


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_forms())
def test_sphere_division_matches_reference_on_random_forms(h):
    _assert_same_division(h)


_CAPPED_DIVISION = """
import resource
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
import numpy as np
from ballmaps import Polynomial, gram_form, quotient_by_sphere, sphere_form
from ballmaps.maps import coefficient_matrix
g = gram_form(4, *coefficient_matrix([
    Polynomial(4, {(12, 12, 0, 0): 1.0}),
    Polynomial(4, {(0, 0, 0, 0): 1.0, (0, 0, 24, 0): 0.5}),
]))
quotient, residual = quotient_by_sphere(g * sphere_form(4))
assert residual == 0.0, residual
assert quotient.basis == g.basis and np.array_equal(quotient.mat, g.mat)
"""


def test_sphere_division_of_degree_25_in_four_variables_within_3gb():
    # the division simplex has 23,751 monomials: a dense matrix over its pairs
    # needs 8.41 GiB, the x-simplex of the three classes about 1 MB
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_DIVISION],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sampler_residual_unchanged_on_catalog(name):
    f = catalog(name)
    assert sphere_sample_check(f, 1000, seed=0).max_residual == _reference_sample_residual(f)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.dictionaries(
                st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple),
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                max_size=12,
            ),
            st.lists(
                st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
        ).map(lambda case: (n, *case))
    )
)
def test_polynomial_evaluate_matches_scalar_loop(case):
    n, terms, point = case
    p = Polynomial(n, terms)
    want = _reference_evaluate(p, point)
    # relative to the sum of the term magnitudes, the scale of the rounding
    scale = sum(
        abs(c) * math.prod(abs(x) ** e for x, e in zip(point, exp)) for exp, c in p.terms.items()
    )
    assert abs(p.evaluate(point) - want) <= 1e-12 * scale


def test_form_evaluate_matches_the_squared_norms():
    f = catalog("example-7-2")
    h = form_of(f)
    point = np.array([0.3 - 0.2j, 0.1 + 0.5j])
    values = [p.evaluate(point) for p in f.numerator]
    want = sum(abs(v) ** 2 for v in values) - abs(f.denominator.evaluate(point)) ** 2
    assert h.evaluate(point) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("name", ["faran-2", "faran-4", "example-7-2", "whitney-seq-3"])
def test_system_residual_matches_term_loop(name):
    f = catalog(name)
    system = emit_invariance_system(f)
    rng = np.random.default_rng(3)
    for _ in range(3):
        matrix = rng.standard_normal((f.n + 1,) * 2) + 1j * rng.standard_normal((f.n + 1,) * 2)
        want, scale = _reference_system_residual(system, matrix)
        assert abs(evaluate_invariance_system(system, matrix) - want) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# the one overflow refusal
# ---------------------------------------------------------------------------
def test_products_and_division_refuse_key_overflow():
    # the product's keys read exponents up to 300 in base 301: 301**8 > 2**63
    alpha = (150,) + (0,) * 7
    h = HermitianForm.from_entries(8, {(alpha, alpha): 1.0})
    with pytest.raises(CapabilityError):
        h * h
    # sphere division keys its simplex in base D + 1 = 2: 2**63 overflows
    with pytest.raises(CapabilityError):
        is_proper(identity_map(63))
    assert is_proper(identity_map(62)).proper
    # the refusal moved to the kernel; it is still a ValueError, importable as before
    assert invariance.CapabilityError is CapabilityError
    assert issubclass(CapabilityError, ValueError)
