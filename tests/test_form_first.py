"""Form-first realizations against their component-built references.

The reference functions below build the realized maps component by
component (tensor products and orthogonal sums of padded maps), as the
library did before it assembled the positive form and factored it once.  Two
polynomial maps with the same |f|^2 differ by a target isometry, so the
library's maps must have the references' forms, while their component count
drops to the rank of the positive part.  ``_dict_product`` is the per-entry
loop the form product replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ballmaps import (
    HermitianForm,
    Polynomial,
    TAU_SIG,
    automorphism_tensor_form,
    close_permutation_group,
    diagonal_stabilizer,
    factor_form,
    form_of,
    is_proper,
    juxtapose_theta,
    oplus,
    pad_to_proper,
    polynomial_map,
    realize_from_invariants,
    realize_subgroup,
    signature,
    sphere_form,
    sphere_sample_check,
    strict_stabilizer,
    symmetric_group_map,
    symmetric_group_map_v2,
    tensor,
    tensor_power,
)
from ballmaps import realize
from ballmaps.hermitian import _support_blocks
from ballmaps.lattice import invariant_factors
from ballmaps.maps import polynomial_map_of_rows
from ballmaps.polynomials import TAU_ZERO, grlex_monomials

from conftest import Poly, gram_of, poly_parts, random_center, support_of_summand

ETA = np.exp(2j * np.pi / 3)


# ---------------------------------------------------------------------------
# references: component-built constructions and the per-entry product
# ---------------------------------------------------------------------------
def _reference_realize_subgroup(generators, n, mu=None, k3=1):
    group = close_permutation_group(generators, n)
    if len(group) == math.factorial(n):
        return symmetric_group_map(n)
    mu = list(range(n)) if mu is None else list(mu)
    tau = Poly.constant(n, 1.0)
    for perm in group:
        exp = [0] * n
        for j in range(n):
            exp[perm[j]] = mu[j]
        tau = tau + Poly.monomial(exp, 1.0)
    pad = pad_to_proper([tau], omit_empty_degrees=True)
    g1 = oplus(
        polynomial_map([tau.scale(pad.epsilon)]),
        tensor(polynomial_map(list(pad.components)), tensor_power(n, k3)),
    )
    f_sym = symmetric_group_map(n)
    k4 = f_sym.degree + 1
    return juxtapose_theta(f_sym, tensor(g1, tensor_power(n, k4)), math.pi / 4.0)


def _reference_symmetric_group_map_v2(n):
    zs = [Poly.variable(n, i) for i in range(n)]
    prod = Poly.constant(n, 1.0)
    for z in zs:
        prod = prod * (Poly.constant(n, 1.0) + z)
    pad = pad_to_proper([prod])
    left = tensor(polynomial_map([prod.scale(pad.epsilon)]), polynomial_map(zs))
    right = tensor(polynomial_map(list(pad.components)), tensor_power(n, n + 2))
    return oplus(left, right)


def _reference_realize_from_invariants(invariants):
    n = invariants[0].nvars
    band = max(h.degree for h in invariants) + 1
    supports, prev, summands = [], 0, []
    one = Poly.constant(n, 1.0)
    for h in invariants:
        for m in range(prev + 1, prev + band + 1):
            cand = support_of_summand(h, m)
            if all(not (cand & s) for s in supports):
                break
        supports.append(cand)
        prev = m
        summands.extend(poly_parts(tensor(polynomial_map([one + h]), tensor_power(n, m)))[0])
    pad = pad_to_proper(summands, omit_empty_degrees=True)
    m_final = max(q.degree for q in summands) + 1
    return oplus(
        polynomial_map([q.scale(pad.epsilon) for q in summands]),
        tensor(polynomial_map(list(pad.components)), tensor_power(n, m_final)),
    )


def _dict_product(x, y):
    acc = {}
    for a1, b1, c1 in x.entries():
        for a2, b2, c2 in y.entries():
            key = (
                tuple(p + q for p, q in zip(a1, a2)),
                tuple(p + q for p, q in zip(b1, b2)),
            )
            acc[key] = acc.get(key, 0.0 + 0.0j) + c1 * c2
    return HermitianForm.from_entries(x.nvars, acc)


def _positive_rank(f):
    """Rank of |f|^2 from the eigenvalues of its unit-diagonal (Jacobi) scaling."""
    h = gram_of(f.numerator)
    d = np.sqrt(np.diag(h.mat).real)
    eigs = np.linalg.eigvalsh(h.mat / np.outer(d, d))
    return int(np.sum(eigs > TAU_SIG * eigs.max()))


def _assert_matches_reference(f, ref):
    h, h_ref = form_of(f), form_of(ref)
    assert h.max_entry_diff(h_ref) <= 1e-12 * h_ref.max_abs()
    # the factored form has rounding-level entries where the reference has
    # zeros, but only inside connected support blocks, where their exponent
    # differences already lie in the lattice of the support: both lattices
    # equal their sum
    rows, rows_ref = diagonal_stabilizer(f).rows, diagonal_stabilizer(ref).rows
    factors = invariant_factors(rows)
    assert factors == invariant_factors(rows + rows_ref) == invariant_factors(rows_ref)
    assert is_proper(f).residual <= 1e-8
    assert sphere_sample_check(f, 1000, 1e-9, seed=17).passed


# ---------------------------------------------------------------------------
# realizations equal their component-built references
# ---------------------------------------------------------------------------
#: generators, n and the number of components of the realized map: the rank
#: of the positive form, or the components of symmetric_group_map(n) for S_n
SUBGROUPS = {
    "s3-trivial": ([], 3, 98),
    "s3-transposition-12": ([(1, 0, 2)], 3, 98),
    "s3-transposition-23": ([(0, 2, 1)], 3, 98),
    "s3-transposition-13": ([(2, 1, 0)], 3, 98),
    "s3-alternating": ([(1, 2, 0)], 3, 98),
    "s3-full": ([(1, 2, 0), (1, 0, 2)], 3, 25),
    "s2-trivial": ([], 2, 26),
    "s2-full": ([(1, 0)], 2, 11),
}


@pytest.mark.parametrize("name", SUBGROUPS)
def test_realize_subgroup_matches_component_reference(name):
    generators, n, components = SUBGROUPS[name]
    f = realize_subgroup(generators, n)
    ref = _reference_realize_subgroup(generators, n)
    _assert_matches_reference(f, ref)
    assert f.target_dim == components
    if not name.endswith("full"):
        assert components == _positive_rank(ref)


INVARIANT_CASES = {
    "sign-flip": [Poly.monomial((2,))],
    "cyclic-three": [
        Poly.monomial((3, 0)),
        Poly.monomial((0, 3)),
        Poly.monomial((1, 1)),
    ],
    "coordinates": [Poly.variable(2, i) for i in range(2)],
}
INVARIANT_GROUPS = {
    "sign-flip": [np.array([[-1.0 + 0j]])],
    "cyclic-three": [np.diag([ETA, ETA**2])],
    "coordinates": [],
}


@pytest.mark.parametrize("name", INVARIANT_CASES)
def test_realize_from_invariants_matches_component_reference(name):
    invariants = INVARIANT_CASES[name]
    f = realize_from_invariants(invariants, INVARIANT_GROUPS[name])
    ref = _reference_realize_from_invariants(invariants)
    _assert_matches_reference(f, ref)
    assert f.target_dim == _positive_rank(ref)


@pytest.mark.parametrize(
    "build, calls",
    [
        # one factorization of the positive form, one of symmetric_group_map's padding
        (lambda: realize_subgroup([(1, 0, 2)], 3), 2),
        (lambda: symmetric_group_map_v2(3), 1),
        (lambda: realize_from_invariants(INVARIANT_CASES["cyclic-three"], []), 1),
    ],
    ids=["subgroup", "v2", "invariants"],
)
def test_realizations_factor_their_positive_form_once(monkeypatch, build, calls):
    counted = []

    def count(*args, **kwargs):
        counted.append(args)
        return factor_form(*args, **kwargs)

    monkeypatch.setattr(realize, "factor_form", count)
    build()
    assert len(counted) == calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symmetric_group_map_v2_matches_component_reference(n):
    f, ref = symmetric_group_map_v2(n), _reference_symmetric_group_map_v2(n)
    _assert_matches_reference(f, ref)
    assert f.target_dim == _positive_rank(ref)


def test_factoring_the_transposition_form_stays_proper():
    # built with mu = (1, 2, 3) and k3 = 7, the degree-17 positive form has a nonzero
    # eigenvalue 4.5e-9 times its largest; an unscaled eigendecomposition at
    # the relative threshold 1e-8 drops it and the factored map is no longer
    # proper (residual 3.7e4)
    p = gram_of(_reference_realize_subgroup([(1, 0, 2)], 3, mu=(1, 2, 3), k3=7).numerator)
    res = factor_form(p)
    f = polynomial_map_of_rows(3, res.monos, res.positives)
    assert is_proper(f).residual <= 1e-8


@pytest.mark.parametrize(
    "n, components", [(2, 11), (3, 25), (4, 49), (5, 86), (6, 139)]
)
def test_symmetric_group_map_keeps_its_components(n, components):
    f = symmetric_group_map(n)
    assert f.target_dim == components
    strict = strict_stabilizer(f)
    assert strict.diagonal.order == 1
    assert strict.permutations == (tuple(range(n)),)


# ---------------------------------------------------------------------------
# factor_form on graded forms
# ---------------------------------------------------------------------------
@st.composite
def graded_forms(draw):
    """sum_k s_k |p_k|^2 over all monomials of degree <= D, with independent
    p_k; monomials of degree j carry the weight 10^u_j, u_j in [-1.5, 3], so
    entries span about 1e-3 to 1e6.  Returns the form and its inertia."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 4))
    basis = grlex_monomials(n, degree)
    rank = draw(st.integers(1, max(1, len(basis) // 2)))
    positives = draw(st.integers(0, rank)) if draw(st.booleans()) else rank
    u = draw(st.lists(st.floats(-1.5, 3.0), min_size=degree + 1, max_size=degree + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = np.array([10.0 ** u[sum(a)] for a in basis])
    shape = (rank, len(basis))
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * weights
    signs = np.array([1.0] * positives + [-1.0] * (rank - positives))
    mat = coeffs.T @ (signs[:, None] * coeffs.conj())
    return HermitianForm(n, basis, mat), (positives, rank - positives)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graded_forms())
def test_factor_form_on_graded_forms(case):
    h, inertia = case
    res = factor_form(h)
    assert (len(res.positives), len(res.negatives)) == inertia
    sig = signature(h)
    assert (sig.positive, sig.negative) == inertia
    rec = res.reconstruct(h.nvars)
    index = {b: i for i, b in enumerate(rec.basis)}
    idx = np.array([index[b] for b in h.basis])
    err = np.abs(rec.mat[np.ix_(idx, idx)] - h.mat)
    r = np.max(np.abs(h.mat), axis=1)
    assert np.all(err <= 1e-12 * np.sqrt(np.outer(r, r)))


def test_factor_form_cuts_against_the_whole_spectrum():
    # blocks {z1, z2} with scaled eigenvalues 2 / (1 + t^2), 2 t^2 / (1 + t^2)
    # and {z3, ..., z3^50}, all ones, with eigenvalue 50: the cut 50 * TAU_SIG
    # drops 2 t^2 = 2e-7, which the z1, z2 block's own cut 2 * TAU_SIG keeps
    t2, k = 1e-7, 50
    basis = [(1, 0, 0), (0, 1, 0)] + [(0, 0, j) for j in range(1, k + 1)]
    mat = np.zeros((k + 2, k + 2))
    mat[:2, :2] = [[1 + t2, 1 - t2], [1 - t2, 1 + t2]]
    mat[2:, 2:] = 1.0
    h = HermitianForm(3, basis, mat)
    res, sig = factor_form(h), signature(h)
    assert (len(res.positives), len(res.negatives)) == (sig.positive, sig.negative) == (2, 0)
    assert sig.dropped == pytest.approx(2 * t2 / k, rel=1e-6)


def _same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_support_blocks_match_connected_components(rng):
    from scipy.sparse.csgraph import connected_components

    graphs = []
    for _ in range(100):
        size = int(rng.integers(1, 40))
        adj = rng.random((size, size)) < rng.uniform(0.0, 0.15)
        graphs.append(adj | adj.T)
    order = rng.permutation(300)  # a path visited in shuffled vertex order
    path = np.zeros((300, 300), dtype=bool)
    path[order[:-1], order[1:]] = True
    graphs.append(path | path.T)
    for adj in graphs:
        _, want = connected_components(adj, directed=False)
        assert _same_partition(_support_blocks(adj), want)


def test_factor_form_splits_disconnected_blocks():
    # blocks {z1, z1^2}, {z2, z2^2} and {z1 z2} interleave in the basis order
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    h = gram_of([z1 + 1e-3 * z1 * z1, z2 + 1e-3 * z2 * z2, 1e2 * z1 * z2])
    res = factor_form(h)
    terms = np.count_nonzero(np.abs(res.positives) > TAU_ZERO, axis=1)
    assert sorted(terms) == [1, 2, 2] and not len(res.negatives)
    rec = res.reconstruct(2)
    assert {(a, b) for a, b, _ in rec.entries()} == {(a, b) for a, b, _ in h.entries()}
    assert rec.max_entry_diff(h) <= 1e-15 * h.max_abs()


# ---------------------------------------------------------------------------
# the form product equals the per-entry loop
# ---------------------------------------------------------------------------
def _random_form(rng, n):
    polys = [
        Polynomial(
            n,
            {
                tuple(rng.integers(0, 4, n)): complex(*rng.standard_normal(2))
                * 10 ** rng.uniform(-2, 3)
                for _ in range(4)
            },
        )
        for _ in range(3)
    ]
    return gram_of(polys, [1.0, -1.0, 1.0])


def _assert_product_matches(x, y):
    got, want = x * y, _dict_product(x, y)
    assert got.basis == want.basis
    # each entry sums at most min(nnz) products, each rounded once
    terms = min(np.count_nonzero(x.mat), np.count_nonzero(y.mat))
    tol = 4 * terms * np.finfo(float).eps * x.max_abs() * y.max_abs()
    assert got.max_entry_diff(want) <= tol


@pytest.mark.parametrize("n", [1, 2, 3])
def test_form_product_matches_entry_loop(rng, n):
    for _ in range(5):
        _assert_product_matches(_random_form(rng, n), _random_form(rng, n))


def test_form_product_matches_entry_loop_on_automorphism_forms(rng):
    for n, k in [(1, 3), (2, 2), (3, 2)]:
        points = [random_center(rng, n) for _ in range(k)]
        h = automorphism_tensor_form(points)
        _assert_product_matches(h, h)
        _assert_product_matches(h, sphere_form(n))
        # the library form is built with the product; rebuild it with the loop
        rho = sphere_form(n)
        mixed = omega_product = HermitianForm.constant(n, 1.0)
        for a in points:
            linear = {(0,) * n: 1.0}
            for i in range(n):
                linear[tuple(np.eye(n, dtype=int)[i])] = -complex(a[i]).conjugate()
            omega = gram_of([Polynomial(n, linear)])
            mixed = _dict_product(mixed, rho.scale(1.0 - float(np.vdot(a, a).real)) + omega)
            omega_product = _dict_product(omega_product, omega)
        assert h.max_entry_diff(mixed - omega_product) <= 1e-13 * max(1.0, h.max_abs())
