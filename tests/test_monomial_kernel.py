"""The one monomial kernel against the per-row and per-term code it replaced.

The references below are the library's earlier sphere division (a dense
matrix over the division simplex filled one row at a time through a
tuple-keyed index), its monomial power loop (each coordinate raised to
each monomial's own exponent) and the sampler built on it, its scalar
polynomial evaluation, its per-term evaluation of the invariance system,
and a dict of keys for the key index.  Sphere division must return a
bit-identical quotient form and, as its residual, the largest entry of the
reference remainder; the monomial values, the sampler's residual and the
key positions must be identical; the evaluations, whose powers are now
taken by numpy, must agree to 1e-12 of the magnitude of their terms, plus
the absolute error of products that underflow to subnormals.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from ballmaps.polynomials import MAX_DENSE_KEYS, KeyIndex, grlex_monomials, monomial_values

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
        return HermitianForm.zero(n), 0.0
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
    # the raw remainder: a form would hold it with its rounding noise pruned
    return quotient, float(np.max(np.abs(0.5 * (R + R.conj().T))))


def _reference_monomial_values(monos, points):
    """Each coordinate raised to each monomial's own exponent, one variable at
    a time, in a (points, monomials) array."""
    points = np.asarray(points, dtype=complex)
    count, n = points.shape
    mono_arr = np.array(monos, dtype=np.int64).reshape(len(monos), n)
    vals = np.ones((count, len(monos)), dtype=complex)
    for i in range(n):
        exps = mono_arr[:, i]
        nz = exps > 0
        if np.any(nz):
            vals[:, nz] *= points[:, i : i + 1] ** exps[nz][None, :]
    return vals


def _sphere_points(count, n, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _reference_sample_residual(f, count=1000, seed=0):
    monos, A = stacked_coefficients(f)
    vals = _reference_monomial_values(monos, _sphere_points(count, f.n, seed)).T
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
    """Per-term loop, one factor per listed index; also returns the largest
    sum of term magnitudes."""
    u = np.asarray(matrix, dtype=complex).reshape(-1)
    worst = scale = 0.0
    for eq in system["equations"]:
        total, size = 0.0 + 0.0j, 0.0
        for term in eq["terms"]:
            val = complex(term["re"], term["im"])
            for idx in term["u"]:
                val *= u[idx]
            for idx in term["ubar"]:
                val *= u[idx].conjugate()
            total += val
            size += abs(val)
        worst, scale = max(worst, abs(total)), max(scale, size)
    return worst, scale


# ---------------------------------------------------------------------------
# sphere division is bit-identical to the per-row reference
# ---------------------------------------------------------------------------
def _assert_same_division(h):
    division = quotient_by_sphere(h)
    quotient, residual = division.quotient, division.residual
    want_quotient, want_residual = _reference_quotient_by_sphere(h)
    assert quotient.basis == want_quotient.basis
    assert np.array_equal(quotient.mat, want_quotient.mat)
    # JSON also tells the signs of zero real and imaginary parts apart
    assert json.dumps(quotient.to_dict()) == json.dumps(want_quotient.to_dict())
    assert residual == want_residual


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
division = quotient_by_sphere(g * sphere_form(4))
quotient, residual = division.quotient, division.residual
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
coordinates = st.one_of(
    st.just(0j),
    st.floats(-2.0, 2.0).map(complex),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(0, 20)] * n), max_size=12),
            st.lists(st.lists(coordinates, min_size=n, max_size=n), min_size=1, max_size=6),
        )
    )
)
def test_monomial_values_equal_the_per_monomial_powers(case):
    # a power table per variable takes the same numpy power of each coordinate
    # as the monomial's own exponent did, so every bit agrees
    monos, points = case
    got = monomial_values(monos, points)
    want = _reference_monomial_values(monos, points)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def _realized(name):
    """A realized S_3 subgroup map, or the S_n map of ``"S<n>"``."""
    if name in S3_GENERATORS:
        return realize_subgroup(S3_GENERATORS[name], 3)
    return symmetric_group_map(int(name[1:]))


REALIZED = [*S3_GENERATORS, "S2", "S3", "S4", "S5", "S6"]


@pytest.mark.parametrize("name", REALIZED)
def test_monomial_values_equal_the_per_monomial_powers_on_realized_maps(name):
    f = _realized(name)
    z = _sphere_points(1000, f.n)
    got = np.ascontiguousarray(monomial_values(f.monos, z))
    assert got.tobytes() == _reference_monomial_values(f.monos, z).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_sampler_residual_unchanged_on_catalog(name):
    f = catalog(name)
    assert sphere_sample_check(f, 1000, seed=0).max_residual == _reference_sample_residual(f)


@pytest.mark.parametrize("name", REALIZED)
def test_sampler_residual_unchanged_on_realized_maps(name):
    f = _realized(name)
    assert sphere_sample_check(f, 1000, seed=0).max_residual == _reference_sample_residual(f)


@settings(max_examples=100, deadline=None)
@example((3, {(0, 0, 0): 0, (1, 0, 1): 2}, [1.5, 0, 5e-324]))
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
    # plus the absolute error of products that underflow to subnormals: at
    # most 2^-1075 per rounding, a few dozen roundings per term between the
    # two evaluations, each scaled by at most the factors applied after it
    underflow = 64 * 2.0**-1074 * sum(
        max(1.0, abs(c)) * math.prod(max(1.0, abs(x)) ** e for x, e in zip(point, exp))
        for exp, c in p.terms.items()
    )
    assert abs(p.evaluate(point) - want) <= 1e-12 * scale + underflow


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


# ---------------------------------------------------------------------------
# the one key index
# ---------------------------------------------------------------------------
@st.composite
def key_tables(draw):
    """Distinct keys up to a top on either side of the dense table's end,
    and queries among them, between them and above them."""
    top = draw(st.sampled_from([0, 7, 1000, MAX_DENSE_KEYS - 2, MAX_DENSE_KEYS - 1, 2**62]))
    keys = draw(st.lists(st.integers(0, top), unique=True, max_size=20))
    others = draw(st.lists(st.integers(0, 2 * top + 2), max_size=20))
    return keys, draw(st.permutations(keys + others))


@settings(max_examples=100, deadline=None)
@example(([], [0, 5]))
@example(([MAX_DENSE_KEYS - 2, 0], [MAX_DENSE_KEYS - 1, MAX_DENSE_KEYS - 2, 2**62]))
@example(([MAX_DENSE_KEYS - 1, 3], [MAX_DENSE_KEYS - 1, 3, 4, 2**62]))
@given(key_tables())
def test_key_index_lookup_equals_a_dict_on_both_paths(table):
    keys, queries = table
    index = KeyIndex(np.array(keys, dtype=np.int64))
    assert (index.dense is not None) == (max(keys, default=-1) + 2 <= MAX_DENSE_KEYS)
    position = {key: i for i, key in enumerate(keys)}
    found = index.lookup(np.array(queries, dtype=np.int64))
    assert found.tolist() == [position.get(q, len(keys)) for q in queries]
