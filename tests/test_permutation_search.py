"""Permutation stabilizers: the pruned search against full enumeration.

The reference functions below are the per-permutation, per-entry loops the
library used before its level search; both stabilizers must return exactly
their lists (same elements, same order).  The search tests only the upper
half of a form, so the forms every construction holds are checked to be
exactly Hermitian; the diagonal stabilizer is checked against the rows
``np.unique(axis=0)`` finds.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ballmaps import (
    BallAutomorphism,
    CapabilityError,
    HermitianForm,
    RationalMap,
    catalog,
    close_permutation_group,
    compose_source,
    diagonal_stabilizer,
    form_of,
    gram_form,
    identity_map,
    juxtapose_theta,
    permutation_automorphism,
    permutation_stabilizer,
    polynomial_map,
    symmetric_group_map,
    tensor,
    tensor_power,
    unitary_automorphism,
    whitney_map,
)
from ballmaps.invariance import TorusSubgroup, _form_search, strict_permutation_stabilizer
from ballmaps.maps import CATALOG_NAMES, stacked_coefficients
from ballmaps.polynomials import MAX_DENSE_KEYS, TAU_EQ, TAU_ZERO

from conftest import Poly, poly_parts, polys_close, random_center, random_unitary


# ---------------------------------------------------------------------------
# reference: full enumeration with per-entry loops
# ---------------------------------------------------------------------------
def _permute_index(alpha, perm):
    out = [0] * len(alpha)
    for i, e in enumerate(alpha):
        out[perm[i]] = e
    return tuple(out)


def _form_permutation_invariant(h, perm, tol):
    index = {b: i for i, b in enumerate(h.basis)}
    scale = max(1.0, h.max_abs())
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    for i, j in zip(rows.tolist(), cols.tolist()):
        ii = index.get(_permute_index(h.basis[i], perm))
        jj = index.get(_permute_index(h.basis[j], perm))
        target = h.mat[ii, jj] if ii is not None and jj is not None else 0.0
        if abs(h.mat[i, j] - target) > tol * scale:
            return False
    return True


def reference_form_stabilizer(h, tol=TAU_EQ):
    return [
        perm
        for perm in itertools.permutations(range(h.nvars))
        if _form_permutation_invariant(h, perm, tol)
    ]


def reference_strict_stabilizer(f, tol=TAU_EQ):
    num, den = poly_parts(f)
    return [
        perm
        for perm in itertools.permutations(range(f.n))
        if all(
            polys_close(p.permute_variables(perm), p, tol)
            for p in [*num, den]
        )
    ]


def search_form_stabilizer(h, tol=TAU_EQ):
    return [tuple(p) for p in _form_search(h, tol).search().tolist()]


# ---------------------------------------------------------------------------
# random construction chains
# ---------------------------------------------------------------------------
def _variables(n):
    return [Poly.variable(n, i) for i in range(n)]


def _symmetric_pairs_map(n):
    """Polynomial map whose form has a small, nontrivial permutation group."""
    z = _variables(n)
    comps = [z[0] * z[1], z[0] * z[0] + z[1] * z[1]]
    comps += [z[i] ** (i % 2 + 1) for i in range(2, n)]
    return polynomial_map(comps)


def _power_sums_map(n):
    """Components z_0^k + ... + z_{n-1}^k: each one is symmetric."""
    z = _variables(n)
    sums = [sum((x**k for x in z), Poly.zero(n)) for k in (1, 2)]
    return polynomial_map([p.scale(0.5 / n) for p in sums])


def _base_map(kind, n):
    if kind == "sums":
        return _power_sums_map(n)
    if kind == "identity":
        return identity_map(n)
    if kind == "square":
        return tensor_power(n, 2)
    if kind == "whitney":
        return whitney_map(n)
    return _symmetric_pairs_map(n)


@st.composite
def construction_chains(draw):
    """A map from a short random chain of constructions, n = 2..5.

    Degrees stay small so the reference enumeration stays fast; the chain
    covers tensor products, juxtaposition, source composition with random
    unitaries, permutations and origin-moving automorphisms (rational maps),
    generalized targets (l > 0) and maps with f(0) != 0.
    """
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = ["identity", "whitney", "pairs", "sums"] + (["square"] if n <= 4 else [])
    f = _base_map(draw(st.sampled_from(kinds)), n)
    steps = st.sampled_from(["tensor", "juxtapose", "permute", "unitary", "move"])
    for step in draw(st.lists(steps, max_size=2)):
        if step == "tensor" and f.degree < 2:
            f = tensor(f, _base_map(draw(st.sampled_from(["identity", "pairs", "sums"])), n))
        elif step == "juxtapose" and f.is_polynomial():
            g = _base_map(draw(st.sampled_from(kinds)), n)
            f = juxtapose_theta(f, g, draw(st.floats(0.2, 1.3)))
        elif step == "permute":
            perm = tuple(rng.permutation(n).tolist())
            f = compose_source(f, permutation_automorphism(perm))
        elif step == "unitary" and f.degree <= 2:
            f = compose_source(f, unitary_automorphism(random_unitary(rng, n)))
        elif step == "move" and f.degree <= 2 and n <= 3:
            f = compose_source(f, BallAutomorphism(np.eye(n), random_center(rng, n, 0.5)))
    ending = draw(st.sampled_from(["plain", "offset", "generalized"]))
    if ending == "offset":
        # 0.6 (+) 0.8 f, written over f's own denominator
        num, den = poly_parts(f)
        comps = [den.scale(0.6)] + [p.scale(0.8) for p in num]
        f = RationalMap(comps, f.denominator, l=f.l)
    elif ending == "generalized":
        extra = _variables(n)[0].scale(0.5)
        f = RationalMap(list(f.numerator) + [extra], f.denominator, l=1)
    return f


def _perturbed(h, scale_of_cut, pick):
    """h with one support entry (and its mirror) moved by scale_of_cut * cut."""
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    k = pick % len(rows)
    i, j = int(rows[k]), int(cols[k])
    delta = scale_of_cut * TAU_EQ * max(1.0, h.max_abs())
    mat = np.array(h.mat)
    mat[i, j] += delta
    if i != j:
        mat[j, i] += delta
    return HermitianForm(h.nvars, h.basis, mat)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains())
def test_stabilizers_equal_full_enumeration(f):
    h = form_of(f)
    assert search_form_stabilizer(h) == reference_form_stabilizer(h)
    assert permutation_stabilizer(f) == reference_form_stabilizer(h)
    assert strict_permutation_stabilizer(f) == reference_strict_stabilizer(f)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains(), st.sampled_from([0.5, 2.0]), st.integers(0, 10**6))
def test_form_search_at_the_tolerance_boundary(f, scale_of_cut, pick):
    h = _perturbed(form_of(f), scale_of_cut, pick)
    assert search_form_stabilizer(h) == reference_form_stabilizer(h)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains(), st.sampled_from([0.5, 2.0]), st.integers(0, 10**6))
def test_strict_search_at_the_tolerance_boundary(f, scale_of_cut, pick):
    comps = list(f.numerator)
    r = pick % len(comps)
    p = comps[r]
    if p.is_zero():
        return
    exp = sorted(p.terms)[pick % len(p.terms)]
    delta = scale_of_cut * TAU_EQ * max(1.0, p.max_abs_coeff())
    comps[r] = Poly.of(p) + Poly.monomial(exp, delta)
    g = RationalMap(comps, f.denominator, l=f.l)
    assert strict_permutation_stabilizer(g) == reference_strict_stabilizer(g)


def test_strict_stabilizer_checks_union_of_supports():
    # p = 1.5 cut z0 + 0.75 cut z1: the 3-cycle z0 -> z1 -> z2 moves each
    # coefficient by 0.75 cut, but at z0 compares 1.5 cut with p[z2] = 0
    z = _variables(3)
    p = z[0].scale(1.5 * TAU_EQ) + z[1].scale(0.75 * TAU_EQ)
    f = polynomial_map([(z[0] + z[1] + z[2]).scale(0.5), p])
    expected = reference_strict_stabilizer(f)
    assert (1, 2, 0) not in expected
    assert strict_permutation_stabilizer(f) == expected


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_stabilizers_equal_full_enumeration(name):
    f = catalog(name)
    assert permutation_stabilizer(f) == reference_form_stabilizer(form_of(f))
    assert strict_permutation_stabilizer(f) == reference_strict_stabilizer(f)


# ---------------------------------------------------------------------------
# large n
# ---------------------------------------------------------------------------
def test_symmetric_group_map_seven_keeps_every_permutation_in_order():
    perms = permutation_stabilizer(symmetric_group_map(7))
    assert len(perms) == math.factorial(7)
    assert perms == list(itertools.permutations(range(7)))


def test_eight_variables_with_a_small_stabilizer():
    # |z0 z1|^2 + |z2 z3|^2 + |z4^2 + z5^2|^2 + |z6^3|^2 + |z7^4|^2 - 1: swaps
    # inside the pairs (0 1), (2 3), (4 5) and the block swap (0 2)(1 3)
    z = _variables(8)
    f = polynomial_map(
        [z[0] * z[1], z[2] * z[3], z[4] * z[4] + z[5] * z[5], z[6] ** 3, z[7] ** 4]
    )
    gens = [
        (1, 0, 2, 3, 4, 5, 6, 7),
        (0, 1, 3, 2, 4, 5, 6, 7),
        (0, 1, 2, 3, 5, 4, 6, 7),
        (2, 3, 0, 1, 4, 5, 6, 7),
    ]
    expected = close_permutation_group(gens, 8)
    assert len(expected) == 16
    assert permutation_stabilizer(f) == expected


def test_exponents_overflowing_the_monomial_keys_are_refused():
    # keys read exponent vectors in base D + 1: 301**8 exceeds int64
    f = polynomial_map([Poly.monomial([300] + [0] * 7)])
    with pytest.raises(CapabilityError):
        permutation_stabilizer(f)
    with pytest.raises(CapabilityError):
        strict_permutation_stabilizer(f)


def test_search_memory_stays_within_the_gather_budget():
    # all 8! permutations survive; gathered at once they would need hundreds of MiB
    f = symmetric_group_map(8)
    form_of(f)
    tracemalloc.start()
    try:
        perms = permutation_stabilizer(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(perms) == math.factorial(8)
    assert peak < 32 << 20


def test_keys_above_the_dense_table_take_the_sorted_path():
    # exponents up to 40 in 6 variables: keys up to 40 * 41**5, about 4.6e9;
    # the swaps (0 1), (2 3) and (4 5) keep the map
    z = _variables(6)
    f = polynomial_map(
        [(z[0] ** 40 + z[1] ** 40).scale(0.5), z[2] * z[3], (z[4] * z[5]) ** 2]
    )
    h = form_of(f)
    assert _form_search(h, TAU_EQ).index.dense is None
    expected = reference_form_stabilizer(h)
    assert len(expected) == 8
    assert search_form_stabilizer(h) == expected
    assert permutation_stabilizer(f) == expected
    assert strict_permutation_stabilizer(f) == reference_strict_stabilizer(f) == expected


@pytest.mark.parametrize("top, dense", [(31, True), (32, False)])
def test_the_largest_dense_key_table_stays_within_its_constant(top, dense):
    # exponents up to 31 in 4 variables: the largest key, 31 * 32**3 =
    # 1,015,808, is just below MAX_DENSE_KEYS; up to 32 it is 1,149,984
    z = _variables(4)
    f = polynomial_map([(z[0] * z[1]).scale(0.5), (z[2] ** top + z[3] ** top).scale(0.5)])
    h = form_of(f)
    tracemalloc.start()
    try:
        search = _form_search(h, TAU_EQ)
        perms = search.search()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (search.index.dense is not None) == dense
    if dense:
        assert len(search.index.dense) <= MAX_DENSE_KEYS
    assert peak < MAX_DENSE_KEYS * np.dtype(np.intp).itemsize + (1 << 20)
    assert [tuple(p) for p in perms.tolist()] == reference_form_stabilizer(h)


# ---------------------------------------------------------------------------
# exactly Hermitian forms: the search reads only entries with row <= col
# ---------------------------------------------------------------------------
def _assert_exactly_hermitian(h):
    assert np.array_equal(h.mat, h.mat.conj().T)


def _forms_of_every_construction(f, rng):
    """Forms from the constructor, gram_form, a product, a slice, a sum, a
    difference and a real multiple, built from the map f."""
    h = form_of(f)
    n = f.n
    monos, A = stacked_coefficients(f)
    signs = [1.0] * f.m + [-1.0] * (f.l + 1)
    size = min(h.size, 6)
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    built = HermitianForm(n, h.basis[:size], raw)
    degree_one = [(0,) * n] + [tuple(row) for row in np.eye(n, dtype=int).tolist()]
    linear = HermitianForm(n, degree_one, rng.standard_normal((n + 1, n + 1)))
    rotated = form_of(compose_source(identity_map(n), unitary_automorphism(random_unitary(rng, n))))
    # the rows of rotated's basis outside h's cancel to zero, and are sliced away
    cancelled = (h + rotated) - rotated
    outside = (h.max_degree() + 1,) + (0,) * (n - 1)
    padded = np.zeros((size + 1, size + 1), dtype=complex)
    padded[:size, :size] = raw
    sliced = HermitianForm(n, [*h.basis[:size], outside], padded).compressed()
    assert sliced.size == size
    return [h, gram_form(n, monos, A, signs), built, linear * built, cancelled, sliced,
            h + built, h - built, h.scale(-0.37)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains(), st.integers(0, 2**32 - 1))
def test_every_construction_holds_an_exactly_hermitian_matrix(f, seed):
    for h in _forms_of_every_construction(f, np.random.default_rng(seed)):
        _assert_exactly_hermitian(h)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_forms_are_exactly_hermitian(name):
    for h in _forms_of_every_construction(catalog(name), np.random.default_rng(7)):
        _assert_exactly_hermitian(h)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains(), st.integers(0, 2**32 - 1))
def test_search_on_a_form_rotated_by_a_haar_unitary(f, seed):
    U = random_unitary(np.random.default_rng(seed), f.n)
    h = form_of(compose_source(f, unitary_automorphism(U)))
    if not np.iscomplexobj(h.mat):
        # only a U(n)-invariant map, as |z|^2 - 1, is held real again: the
        # rotation changes its form by rounding noise alone, which is pruned
        g = form_of(f)
        assert g.basis == h.basis and np.array_equal(g.mat != 0, h.mat != 0)
        np.testing.assert_allclose(h.mat, g.mat, rtol=0, atol=1e-12 * max(1.0, np.abs(g.mat).max()))
    assert search_form_stabilizer(h) == reference_form_stabilizer(h)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains(), st.integers(0, 10**6))
def test_search_on_a_form_whose_only_imaginary_part_is_subnormal(f, pick):
    h = HermitianForm(f.n, form_of(f).basis, form_of(f).mat.real)

    def with_subnormal_part(i, j):
        mat = h.mat.astype(complex)
        mat[i, j] += 5e-324j
        mat[j, i] -= 5e-324j
        return HermitianForm(h.nvars, h.basis, mat)

    # on an off-diagonal support entry the part is kept
    rows, cols = np.nonzero(np.triu(h.mat, 1))
    assume(len(rows))
    g = with_subnormal_part(rows[pick % len(rows)], cols[pick % len(rows)])
    assert np.iscomplexobj(g.mat) and np.count_nonzero(g.mat.imag) == 2
    _assert_exactly_hermitian(g)
    assert search_form_stabilizer(g) == reference_form_stabilizer(g) == search_form_stabilizer(h)
    # on a zero entry it is below the support cut, so the form is held real
    rows, cols = np.nonzero(np.triu(h.mat == 0, 1))
    if len(rows):
        zero = with_subnormal_part(rows[pick % len(rows)], cols[pick % len(rows)])
        assert not np.iscomplexobj(zero.mat) and np.array_equal(zero.mat, h.mat)


# ---------------------------------------------------------------------------
# diagonal stabilizer: the rows np.unique(axis=0) took
# ---------------------------------------------------------------------------
def _reference_lattice_rows(f):
    h = form_of(f)
    exps = np.array(h.basis, dtype=np.int64).reshape(h.size, f.n)
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    diffs = np.unique(exps[rows] - exps[cols], axis=0)
    return TorusSubgroup.from_rows(diffs.tolist(), f.n).rows


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(construction_chains())
def test_diagonal_stabilizer_rows_equal_the_axis_unique_rows(f):
    assert diagonal_stabilizer(f).rows == _reference_lattice_rows(f)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_diagonal_stabilizer_rows_equal_the_axis_unique_rows(name):
    f = catalog(name)
    assert diagonal_stabilizer(f).rows == _reference_lattice_rows(f)
