"""A map is its coefficient array, against maps held as Polynomial components.

The reference below builds each map as the library did when a map was a
tuple of ``Polynomial`` components over a ``Polynomial`` denominator:
normalization by ``Polynomial.scale``, tensor products, descents and
orthogonal sums by Polynomial arithmetic, the factored components turned
into polynomials, and the coefficient array and the form rebuilt from those
polynomials.  The held array, the form, and the quotient and residual of the
properness certificate must be bit-identical to it.  Composition with a
source automorphism, substituted one component at a time in Polynomial
arithmetic, must give the same monomials and coefficients to 1e-14.  The
arithmetic is the test-side oracle ``Poly`` (``conftest.py``); the library's
``Polynomial`` has none.  The catalog fixtures, ``whitney_map`` and
``tensor_power``, which the library writes as term tables, are built here
from the variables by that arithmetic.
"""

import functools
import math
import tracemalloc
from itertools import compress

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ballmaps
from ballmaps import (
    BallAutomorphism,
    HermitianForm,
    Polynomial,
    RationalMap,
    analyze_map,
    catalog,
    close_permutation_group,
    compose_source,
    compose_target,
    descend,
    form_of,
    identity_map,
    is_proper,
    juxtapose_lambda,
    norm_power_form,
    oplus,
    pad_with_zeros,
    quotient_by_sphere,
    realize_from_invariants,
    realize_subgroup,
    symmetric_group_map,
    symmetric_group_map_v2,
    tensor,
    tensor_power,
    whitney_map,
)
from ballmaps.maps import CATALOG_NAMES, Subspace, _tensor_pair_order, stacked_coefficients
from ballmaps.hermitian import TAU_SIG
from ballmaps.polynomials import TAU_ZERO, degree_monomials, grlex_key, multinomial
from ballmaps.realize import _support_blocks

from conftest import (
    Poly,
    S3_GENERATORS,
    polys_close,
    poly_parts,
    random_center,
    random_unitary,
    support_of_summand,
)

ETA = np.exp(2j * np.pi / 3)


# ---------------------------------------------------------------------------
# reference: maps held as Polynomial components
# ---------------------------------------------------------------------------
class _PolynomialMap:
    def __init__(self, numerator, denominator, l=0):
        numerator = tuple(numerator)
        q0 = denominator.constant_term()
        assert abs(q0) > TAU_ZERO
        if abs(q0 - 1.0) > TAU_ZERO:
            numerator = tuple(p.scale(1.0 / q0) for p in numerator)
            denominator = denominator.scale(1.0 / q0)
        self.n, self.m, self.l = denominator.nvars, len(numerator) - l, l
        self.numerator, self.denominator = numerator, denominator

    @property
    def target_dim(self):
        return self.m + self.l

    @property
    def degree(self):
        return max(max(p.degree for p in self.numerator), self.denominator.degree)


def _ref_polynomial_map(components, l=0):
    return _PolynomialMap(components, Poly.constant(components[0].nvars, 1.0), l)


def _ref_coefficient_matrix(polys):
    support = set()
    for p in polys:
        support.update(p.terms)
    monos = sorted(support, key=grlex_key)
    index = {mono: i for i, mono in enumerate(monos)}
    mat = np.zeros((len(polys), len(monos)), dtype=complex)
    rows = [r for r, p in enumerate(polys) for _ in p.terms]
    cols = [index[exp] for p in polys for exp in p.terms]
    mat[rows, cols] = [c for p in polys for c in p.terms.values()]
    return monos, mat


def _ref_gram(polys, signs=None):
    monos, A = _ref_coefficient_matrix(polys)
    sgn = np.ones(len(polys)) if signs is None else np.asarray(signs, dtype=float)
    if not A.imag.any():
        A = A.real
    return HermitianForm(polys[0].nvars, monos, A.T @ (sgn[:, None] * A.conj())).compressed()


def _ref_form(f):
    return _ref_gram(f.numerator + (f.denominator,), [1.0] * f.m + [-1.0] * (f.l + 1))


def _ref_tensor(f, g):
    pairs = _tensor_pair_order(f.target_dim, g.target_dim)
    (f_num, f_den), (g_num, g_den) = poly_parts(f), poly_parts(g)
    comps = [f_num[i] * g_num[j] for i, j in pairs]
    return _PolynomialMap(comps, f_den * g_den)


def _ref_descend(f, A, g):
    monos, coeffs = _ref_coefficient_matrix(f.numerator)
    inside = _ref_rows_to_polynomials(f.n, monos, A.basis.conj() @ coeffs)
    outside = _ref_rows_to_polynomials(f.n, monos, A.orthogonal_complement_basis().conj() @ coeffs)
    g_num, g_den = poly_parts(g)
    comps = [inside[i] * g_num[j] for i, j in _tensor_pair_order(len(inside), g.target_dim)]
    comps += [p * g_den for p in outside]
    return _PolynomialMap(comps, poly_parts(f)[1] * g_den)


def _ref_substitute_fractional(p, numerators, denominator, degree_bound):
    """sum over terms coeff(alpha) prod_i numerators[i]^alpha_i
    denominator^(degree_bound - |alpha|), in Polynomial arithmetic."""
    num_power = functools.cache(lambda i, e: numerators[i] ** e)
    den_power = functools.cache(lambda e: denominator**e)
    result = Poly.zero(denominator.nvars)
    for exp, coeff in p.sorted_terms():
        term = Poly.constant(denominator.nvars, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * num_power(i, e)
        if degree_bound - sum(exp):
            term = term * den_power(degree_bound - sum(exp))
        result = result + term
    return result


def _ref_compose_source(f, gamma):
    """f o gamma, each component substituted on its own."""
    units = [(0,) * f.n] + [tuple(u) for u in np.eye(f.n, dtype=int).tolist()]
    *nums, den = [Poly(f.n, dict(zip(units, row))) for row in gamma._affine_rows()]
    P = [_ref_substitute_fractional(p, nums, den, f.degree) for p in f.numerator]
    return RationalMap(P, _ref_substitute_fractional(f.denominator, nums, den, f.degree), l=f.l)


def _ref_oplus(f, g, weights=(1.0, 1.0)):
    assert polys_close(f.denominator, g.denominator)
    (f_num, _), (g_num, _) = poly_parts(f), poly_parts(g)
    pos = [p.scale(c) for h, num, c in zip((f, g), (f_num, g_num), weights) for p in num[: h.m]]
    neg = [p.scale(c) for h, num, c in zip((f, g), (f_num, g_num), weights) for p in num[h.m :]]
    return _PolynomialMap(pos + neg, f.denominator, f.l + g.l)


def _ref_compose_target(f, psi):
    monos, A = _ref_coefficient_matrix(f.numerator + (f.denominator,))
    p, q = A[:-1], A[-1]
    numerator = np.outer(psi.U @ psi.a, q) - psi.U @ (psi.linear_part() @ p)
    rows = np.vstack([numerator, q - psi.a.conj() @ p])
    *comps, den = _ref_rows_to_polynomials(f.n, monos, rows)
    return _PolynomialMap(comps, den)


def _ref_rows_to_polynomials(nvars, monos, mat):
    present = np.abs(mat) > TAU_ZERO
    return [
        Poly(nvars, dict(zip(compress(monos, keep), row[keep].tolist())))
        for row, keep in zip(mat, present)
    ]


def _ref_factor(h, tol_sig=TAU_SIG):
    # the scaled block and its eigh are complex, as in the library
    support = np.abs(h.mat) > TAU_ZERO
    pos, neg = [], []
    labels = _support_blocks(support)
    for label in np.unique(labels[support.any(axis=1)]):
        idx = np.flatnonzero(labels == label)
        block = h.mat[np.ix_(idx, idx)].astype(complex)
        d = np.sqrt(np.max(np.abs(block), axis=1))
        eigvals, eigvecs = np.linalg.eigh(block / np.outer(d, d))
        keep = np.abs(eigvals) > tol_sig * np.max(np.abs(eigvals))
        comps = d[:, None] * eigvecs[:, keep] * np.sqrt(np.abs(eigvals[keep]))
        monos = [h.basis[i] for i in idx.tolist()]
        for lam, comp in zip(eigvals[keep], _ref_rows_to_polynomials(h.nvars, monos, comps.T)):
            (pos if lam > 0 else neg).append(comp)
    return pos, neg


def _ref_padding(p, omit_empty_degrees=False):
    """(epsilon, eps^2 |p|^2, remainder R - eps^2 |p|^2) of the closed-form
    padding: epsilon is half of eps_sup = 1 / sqrt(lambda_max(D^-1/2 B D^-1/2)),
    D the diagonal of the target R, read off a complex eigvalsh as in the
    library."""
    nvars = p[0].nvars
    nonzero = [q for q in p if not q.is_zero()]
    powers = list(range(max(q.degree for q in p) + 1))
    if omit_empty_degrees:
        present = {sum(exp) for q in nonzero for exp in q.terms}
        powers = [j for j in powers if j in present] or [0]
    target = HermitianForm.zero(nvars)
    for m in powers:
        lam = 1.0 / math.sqrt(len(powers))
        target = target + norm_power_form(nvars, m).scale(lam * lam)
    b = _ref_gram(nonzero)
    s = 1.0 / np.sqrt([target.entry(mono, mono).real for mono in b.basis])
    eps = 0.5 / math.sqrt(np.linalg.eigvalsh(s[:, None] * b.mat.astype(complex) * s)[-1])
    scaled = b.scale(eps * eps)
    return eps, scaled, target - scaled


def _ref_pad(p):
    """(epsilon, padding components) of the closed-form padding."""
    eps, _, remainder = _ref_padding(p)
    return eps, _ref_factor(remainder, 1e-12)[0]


def _ref_map_of_positive_form(h):
    pos, neg = _ref_factor(h)
    assert not neg
    return _ref_polynomial_map(pos)


def _ref_tensor_power(n, m):
    zs = [Poly.variable(n, i) for i in range(n)]
    comps = []
    for alpha in degree_monomials(n, m)[::-1]:
        p = Poly.constant(n, 1.0)
        for z, e in zip(zs, alpha):
            p = p * z**e
        comps.append(p.scale(math.sqrt(multinomial(alpha))))
    return _ref_polynomial_map(comps)


def _ref_whitney_map(n):
    zs = [Poly.variable(n, i) for i in range(n)]
    return _ref_polynomial_map(zs[:-1] + [z * zs[-1] for z in zs[:-1]] + [zs[-1] ** 2])


def _ref_catalog(name, theta=math.pi / 4):
    """The catalog fixture ``name`` built from the variables by dict arithmetic."""
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    x1, x2, x3 = (Poly.variable(3, i) for i in range(3))
    z = Poly.variable(1, 0)
    if name.startswith("whitney-seq-"):
        k = int(name.rpartition("-")[2])
        return _ref_polynomial_map([z1] + [z1 * z2**j for j in range(1, k + 1)] + [z2 ** (k + 1)])
    r, c, s = 1.0 / math.sqrt(2.0), math.cos(theta), math.sin(theta)
    a, b = (z1 + z2 * z2).scale(r), (z1 - z2 * z2).scale(r)
    plus, minus = (b + z1 * z2).scale(r), (b - z1 * z2).scale(r)
    components = {
        "faran-1": [z1, z2, Poly.zero(2)],
        "faran-2": [z1, z1 * z2, z2 * z2],
        "faran-3": [z1 * z1, (z1 * z2).scale(math.sqrt(2.0)), z2 * z2],
        "faran-4": [z1 * z1 * z1, (z1 * z2).scale(math.sqrt(3.0)), z2 * z2 * z2],
        "example-3-1": [x1, x2, x1 * x3, x2 * x3, x3 * x3],
        "example-7-2": [a, plus, minus * z1, minus * z2],
        "corollary-6-2": [(z + z * z).scale(0.5), (z * z - z * z * z).scale(0.5)],
        "example-7-4-f": [
            x1, x2, x3.scale(c), (x1 * x3).scale(s), (x2 * x3).scale(s), (x3 * x3).scale(s),
        ],
        "example-7-4-g": [
            x1.scale(c),
            x2,
            (x1 * x1).scale(s),
            (x1 * x2).scale(s),
            (x1 * x3).scale(math.sqrt(1.0 + s * s)),
            x2 * x3,
            x3 * x3,
        ],
    }
    return _ref_polynomial_map(components[name])


def _ref_symmetric_group_map(n):
    zs = [Poly.variable(n, i) for i in range(n)]
    pair_block = [zs[j] * zs[k] for j in range(n) for k in range(j + 1, n)]
    z_map = _ref_polynomial_map(zs)
    pair_map = _ref_polynomial_map([q.scale(math.sqrt(2.0)) for q in pair_block])
    g = _ref_oplus(_ref_tensor(pair_map, z_map), _ref_polynomial_map([z * z for z in zs]))
    affine = Poly.constant(n, 1.0)
    for z in zs:
        affine = affine + z
    eps, comps = _ref_pad([affine])
    h = _ref_oplus(
        _ref_polynomial_map([affine.scale(eps)]),
        _ref_tensor(_ref_polynomial_map(comps), z_map),
    )
    return _ref_oplus(g, h, (math.cos(math.pi / 4.0), math.sin(math.pi / 4.0)))


def _ref_symmetric_group_map_v2(n):
    prod = Poly.constant(n, 1.0)
    for i in range(n):
        prod = prod * (Poly.constant(n, 1.0) + Poly.variable(n, i))
    _, scaled, remainder = _ref_padding([prod])
    positive = scaled * norm_power_form(n, 1) + remainder * norm_power_form(n, n + 2)
    return _ref_map_of_positive_form(positive)


def _ref_realize_subgroup(generators, n):
    group = close_permutation_group(generators, n)
    if len(group) == math.factorial(n):
        return _ref_symmetric_group_map(n)
    mu = list(range(n))
    tau = Poly.constant(n, 1.0)
    for perm in group:
        exp = [0] * n
        for j in range(n):
            exp[perm[j]] = mu[j]
        tau = tau + Poly.monomial(exp, 1.0)
    _, scaled, remainder = _ref_padding([tau], omit_empty_degrees=True)
    f_sym = _ref_symmetric_group_map(n)
    padded = scaled + remainder * norm_power_form(n, sum(mu) + 1)
    positive = _ref_gram(f_sym.numerator) + padded * norm_power_form(n, f_sym.degree + 1)
    return _ref_map_of_positive_form(positive.scale(0.5))


def _ref_realize_from_invariants(invariants):
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
        block = _ref_tensor(_ref_polynomial_map([one + h]), _ref_tensor_power(n, m))
        summands.extend(block.numerator)
    _, scaled, remainder = _ref_padding(summands, omit_empty_degrees=True)
    m_final = max(q.degree for q in summands) + 1
    positive = scaled + remainder * norm_power_form(n, m_final)
    return _ref_map_of_positive_form(positive)


# ---------------------------------------------------------------------------
# bit-identical maps, forms and certificates
# ---------------------------------------------------------------------------
def _complex_bytes(x):
    """The bytes of an array as complex128: a real array held for a complex
    one with a zero imaginary part compares equal exactly when its values do."""
    return np.asarray(x, dtype=complex).tobytes()


def _assert_bit_identical(f, ref):
    monos, A = _ref_coefficient_matrix(ref.numerator + (ref.denominator,))
    assert (f.n, f.m, f.l) == (ref.n, ref.m, ref.l)
    assert list(f.monos) == monos
    assert f.coeffs.shape == A.shape and _complex_bytes(f.coeffs) == _complex_bytes(A)
    h, ref_h = form_of(f), _ref_form(ref)
    assert h.basis == ref_h.basis and _complex_bytes(h.mat) == _complex_bytes(ref_h.mat)
    cert = is_proper(f)
    division = quotient_by_sphere(ref_h)
    quotient, residual = division.quotient, division.residual
    assert cert.quotient.basis == quotient.basis
    assert _complex_bytes(cert.quotient.mat) == _complex_bytes(quotient.mat)
    assert np.float64(cert.residual).tobytes() == np.float64(residual).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_fixture_is_bit_identical(name):
    _assert_bit_identical(catalog(name), _ref_catalog(name))


@pytest.mark.parametrize(
    "name,theta",
    [(f"whitney-seq-{k}", math.pi / 4) for k in (7, 40)]
    + [
        (f"example-7-4-{family}", theta)
        for family in "fg"
        for theta in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2, -0.7)
    ],
)
def test_catalog_family_is_bit_identical(name, theta):
    _assert_bit_identical(catalog(name, theta), _ref_catalog(name, theta))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_whitney_map_is_bit_identical(n):
    _assert_bit_identical(whitney_map(n), _ref_whitney_map(n))


@pytest.mark.parametrize("n,m", [(1, 3), (2, 1), (2, 4), (3, 2), (4, 3)])
def test_tensor_power_is_bit_identical(n, m):
    _assert_bit_identical(tensor_power(n, m), _ref_tensor_power(n, m))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_symmetric_group_map_is_bit_identical(n):
    _assert_bit_identical(symmetric_group_map(n), _ref_symmetric_group_map(n))


@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_group_map_v2_is_bit_identical(n):
    _assert_bit_identical(symmetric_group_map_v2(n), _ref_symmetric_group_map_v2(n))


@pytest.mark.parametrize("name", S3_GENERATORS)
def test_s3_realization_is_bit_identical(name):
    generators = S3_GENERATORS[name]
    _assert_bit_identical(realize_subgroup(generators, 3), _ref_realize_subgroup(generators, 3))


def test_realization_from_invariants_is_bit_identical():
    invariants = [
        Poly.monomial((3, 0)),
        Poly.monomial((0, 3)),
        Poly.monomial((1, 1)),
    ]
    f = realize_from_invariants(invariants, [np.diag([ETA, ETA**2])])
    _assert_bit_identical(f, _ref_realize_from_invariants(invariants))


@pytest.mark.parametrize("q0", [2.0 + 0.5j, -2.0])
def test_rescaling_rounds_as_polynomial_arithmetic(q0):
    # every coefficient is multiplied by 1 / q(0); the 1.5e-13 coefficient
    # falls below TAU_ZERO only after the rescaling, and 1 / (-2) = -0.5 - 0i
    # gives -0.0 imaginary parts, which a Polynomial holds as +0.0
    z1, z2 = (Poly.variable(2, i) for i in range(2))
    numerator = [z1 + z2.scale(1.5e-13), (z1 * z2).scale(0.7 - 0.2j), z2 * z2]
    denominator = Poly.constant(2, q0) + z1.scale(0.3j)
    _assert_bit_identical(
        RationalMap(numerator, denominator), _PolynomialMap(numerator, denominator)
    )


@pytest.mark.parametrize("name", ["faran-4", "example-3-1", "example-7-4-g"])
def test_target_composition_and_weights_are_bit_identical(name):
    rng = np.random.default_rng(7)
    f, ref = catalog(name), _ref_catalog(name)
    N = f.target_dim
    psi = BallAutomorphism(random_unitary(rng, N), random_center(rng, N, 0.4))
    _assert_bit_identical(compose_target(f, psi), _ref_compose_target(ref, psi))
    weights = (0.6, 0.8j)
    g, ref_g = catalog("faran-1"), _ref_catalog("faran-1")
    if f.n == g.n:
        _assert_bit_identical(oplus(f, g, weights), _ref_oplus(ref, ref_g, weights))


# ---------------------------------------------------------------------------
# the held array and the form built once
# ---------------------------------------------------------------------------
def test_map_holds_one_array_and_one_form():
    f = realize_subgroup([(1, 2, 0)], 3)
    held = [getattr(f, name) for name in f.__slots__]
    assert not any(isinstance(v, Polynomial) for v in held)
    assert not any(isinstance(v, tuple) and isinstance(v[0], Polynomial) for v in held)
    monos, A = stacked_coefficients(f)
    assert monos is f.monos and A is f.coeffs and stacked_coefficients(f)[1] is A
    assert not A.flags.writeable
    assert form_of(f) is form_of(f)


@pytest.mark.parametrize("build", ["catalog", "realized"])
def test_analyze_map_builds_the_form_once(monkeypatch, build):
    f = catalog("example-7-2") if build == "catalog" else realize_subgroup([(0, 2, 1)], 3)
    f = RationalMap.from_dict(f.to_dict())  # a map whose form was never built
    calls = []
    gram_form = ballmaps.hermitian.gram_form
    monkeypatch.setattr(
        ballmaps.hermitian, "gram_form", lambda *a, **k: calls.append(a) or gram_form(*a, **k)
    )
    analyze_map(f)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# construction chains keep the array that their views describe
# ---------------------------------------------------------------------------
_SEEDS = ("faran-1", "faran-2", "faran-3", "whitney-seq-1", "example-7-2")
_STEPS = ("tensor", "oplus", "juxtapose", "source", "target", "descend", "pad")


def _step(f, step, rng):
    if step == "tensor" and f.target_dim <= 8:
        return tensor(f, catalog("faran-1"))
    # juxtapositions need a common denominator: a rational f goes with itself
    other = catalog("faran-2") if f.is_polynomial() else f
    if step == "oplus":
        return oplus(f, other, (0.6, 0.8j))
    if step == "juxtapose":
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return juxtapose_lambda([f, other], lam / np.linalg.norm(lam))
    if step == "source":
        return compose_source(f, BallAutomorphism(random_unitary(rng, f.n), random_center(rng, f.n)))
    if step == "target" and f.target_dim <= 12:
        N = f.target_dim
        return compose_target(f, BallAutomorphism(random_unitary(rng, N), random_center(rng, N, 0.4)))
    if step == "descend":
        vectors = rng.standard_normal((2, f.target_dim)) + 1j * rng.standard_normal((2, f.target_dim))
        return descend(f, Subspace.from_vectors(f.target_dim, vectors), identity_map(f.n))
    if step == "pad":
        return pad_with_zeros(f, 2)
    return f


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(_SEEDS),
    st.lists(st.sampled_from(_STEPS), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_construction_chains_hold_the_array_of_their_views(seed, steps, draw):
    rng = np.random.default_rng(draw)
    f = catalog(seed)
    for step in steps:
        f = _step(f, step, rng)
        monos, A = _ref_coefficient_matrix(f.numerator + (f.denominator,))
        assert list(f.monos) == monos and _complex_bytes(f.coeffs) == _complex_bytes(A)
        g = RationalMap.from_dict(f.to_dict())
        assert g.monos == f.monos and g.coeffs.tobytes() == f.coeffs.tobytes()


# ---------------------------------------------------------------------------
# products on complex rational maps, composition with source automorphisms
# ---------------------------------------------------------------------------
def _composed(name, seed):
    rng = np.random.default_rng(seed)
    f = catalog(name)
    return compose_source(f, BallAutomorphism(random_unitary(rng, f.n), random_center(rng, f.n)))


@pytest.mark.parametrize(
    "names",
    [("faran-2", "faran-3"), ("faran-4", "whitney-seq-2"), ("example-3-1", "example-7-4-f")],
)
def test_tensor_and_descend_of_composed_maps_are_bit_identical(names):
    f, g = _composed(names[0], 3), _composed(names[1], 4)
    assert not f.is_polynomial() and np.iscomplexobj(f.coeffs) and f.coeffs.imag.any()
    _assert_bit_identical(tensor(f, g), _ref_tensor(f, g))
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((2, f.target_dim)) + 1j * rng.standard_normal((2, f.target_dim))
    A = Subspace.from_vectors(f.target_dim, vectors)
    _assert_bit_identical(descend(f, A, g), _ref_descend(f, A, g))


def _assert_close_to_substitution(f, gamma):
    got, want = compose_source(f, gamma), _ref_compose_source(f, gamma)
    assert (got.m, got.l) == (want.m, want.l) and got.monos == want.monos
    # relative to the largest coefficient: a coefficient that cancels to a
    # small value keeps only the absolute accuracy of the terms it sums
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-14 * np.abs(want.coeffs).max()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_compose_source_matches_componentwise_substitution(name):
    rng = np.random.default_rng(11)
    f = catalog(name)
    for _ in range(3):
        _assert_close_to_substitution(
            f, BallAutomorphism(random_unitary(rng, f.n), random_center(rng, f.n))
        )


def test_compose_source_of_a_rational_map_matches_componentwise_substitution():
    rng = np.random.default_rng(12)
    f = _composed("example-7-2", 13)
    gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
    _assert_close_to_substitution(f, gamma)


def test_compose_source_of_a_high_degree_map_tables_only_its_own_powers():
    # whitney-seq-40 uses 43 of the 903 exponents beta of degree 41 in three
    # variables; a table of every w^beta would hold 903 x 903 coefficients at
    # the last degree alone (13 MB, 150 MB peak), the map's own w^beta 43 rows
    f = catalog("whitney-seq-40")
    gamma = BallAutomorphism(np.eye(2), [0.3, 0.2j])
    tracemalloc.start()
    try:
        g = compose_source(f, gamma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    z = np.array([0.27 + 0.09j, -0.18 + 0.36j])
    assert np.abs(g.value_at(z) - f.value_at(gamma.apply(z))).max() < 1e-8


def test_pad_with_zeros_takes_any_denominator():
    f = compose_source(catalog("faran-2"), BallAutomorphism(np.eye(2), [0.3, 0.1]))
    g = pad_with_zeros(f, 1)
    assert (g.m, g.l, g.monos) == (f.m + 1, 0, f.monos)
    assert g.coeffs.tobytes() == np.insert(f.coeffs, f.m, 0.0, axis=0).tobytes()
    assert is_proper(g).proper


# ---------------------------------------------------------------------------
# constructions on held arrays build no Polynomial
# ---------------------------------------------------------------------------
def test_constructions_build_no_polynomial(monkeypatch):
    rng = np.random.default_rng(17)
    fixture = catalog("example-3-1")
    gamma = BallAutomorphism(random_unitary(rng, 3), random_center(rng, 3))
    maps_ = [fixture, compose_source(fixture, gamma), realize_subgroup([(1, 2, 0)], 3)]
    identity = identity_map(3)
    subspaces = [
        Subspace.from_vectors(f.target_dim, rng.standard_normal((2, f.target_dim))) for f in maps_
    ]
    invariants = [Poly.monomial(e) for e in ((3, 0), (0, 3), (1, 1))]
    built = []
    init = Polynomial.__init__

    def counted(p, *args, **kwargs):
        built.append(p)
        init(p, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    for f, A in zip(maps_, subspaces):
        tensor(f, fixture)
        descend(f, A, identity)
        compose_source(f, gamma)
        oplus(f, f)
        f.to_dict()
        is_proper(f)
        analyze_map(f)
    realize_subgroup([(1, 0, 2)], 3)
    realize_subgroup(S3_GENERATORS["full"], 3)
    symmetric_group_map(3)
    symmetric_group_map_v2(3)
    realize_from_invariants(invariants, [np.diag([ETA, ETA**2])])
    for name in CATALOG_NAMES + ("whitney-seq-40",):
        catalog(name)
    whitney_map(4)
    assert not built
