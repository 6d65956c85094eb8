"""Polynomial core: input checks, evaluation, fractional substitution, and the
test-side arithmetic oracle ``Poly``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballmaps.polynomials import (
    Polynomial,
    grlex_key,
    grlex_monomials,
    multinomial,
    substitute_fractional,
)
from ballmaps.maps import polynomials_of_rows

from conftest import Poly, max_coeff_diff, polys_close


def poly_from(nvars, terms):
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# arithmetic basics
# ---------------------------------------------------------------------------
def test_single_term_product():
    z1 = Poly.variable(2, 0)
    z2 = Poly.variable(2, 1)
    assert (z1 * z2).terms == {(1, 1): 1.0 + 0.0j}


def test_cancellation_yields_zero():
    one = Poly.constant(1, 1.0)
    z = Poly.variable(1, 0)
    p = (one + z) + (one + z).scale(-1.0)
    assert p.is_zero()
    assert p.degree == 0


def test_scale_by_imaginary_unit():
    p = Poly.monomial((2,), 1.0).scale(1j)
    assert p.terms == {(2,): 1j}


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Poly.variable(2, 0) + Poly.variable(3, 0)
    with pytest.raises(ValueError):
        Poly.variable(2, 0) * Poly.variable(1, 0)


def test_tiny_coefficients_are_pruned():
    p = Polynomial(1, {(1,): 1e-15})
    assert p.is_zero()


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------
def test_evaluate_product_monomial():
    p = Poly.monomial((1, 1), 1.0)
    assert p.evaluate([2.0, 3.0]) == pytest.approx(6.0)


def test_evaluate_affine_at_imaginary_point():
    p = Poly.constant(1, 1.0) + Poly.variable(1, 0)
    assert p.evaluate([1j]) == pytest.approx(1 + 1j)


def test_evaluate_zero_polynomial():
    assert Poly.zero(3).evaluate([1.0, 2.0, 3.0]) == 0.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        Poly.variable(2, 0).evaluate([1.0])


# ---------------------------------------------------------------------------
# fractional substitution
# ---------------------------------------------------------------------------
def _substitute(p, affine, degree_bound):
    """substitute_fractional of one polynomial, as a polynomial."""
    affine = np.asarray(affine, dtype=complex)
    monos = p.support()
    rows = np.array([[p.coefficient(e) for e in monos]], dtype=complex)
    out_monos, out = substitute_fractional(monos, rows, affine, degree_bound)
    return polynomials_of_rows(affine.shape[1] - 1, out_monos, out)[0]


def test_substitute_fractional_one_variable():
    # p = z^2 with numerator 1/2 - z over denominator 1 - z/2, bound 2.
    # Expected coefficients frozen from the independent convolution oracle:
    # numpy.convolve([0.5, -1], [0.5, -1]) == [0.25, -1.0, 1.0].
    p = Poly.monomial((2,), 1.0)
    result = _substitute(p, [[0.5, -1.0], [1.0, -0.5]], 2)
    oracle = np.convolve([0.5, -1.0], [0.5, -1.0])
    expected = Poly(1, {(k,): oracle[k] for k in range(3)})
    assert max_coeff_diff(result, expected) < 1e-14


def test_substitute_identity():
    p = Poly.variable(1, 0)
    out = _substitute(p, [[0.0, 1.0], [1.0, 0.0]], 1)
    assert out == p


def test_substitute_constant_picks_up_denominator_power():
    p = Poly.constant(1, 1.0)
    den = Poly(1, {(0,): 1.0, (1,): -0.5})
    out = _substitute(p, [[0.0, 1.0], [1.0, -0.5]], 3)
    assert max_coeff_diff(out, den**3) < 1e-14


def test_substitute_degree_bound_too_small():
    p = Poly.monomial((2,), 1.0)
    with pytest.raises(ValueError):
        _substitute(p, [[0.0, 1.0], [1.0, 0.0]], 1)


def test_substitute_identity_on_random_polys(rng):
    for _ in range(5):
        nvars = int(rng.integers(1, 4))
        terms = {}
        for _ in range(4):
            exp = tuple(int(e) for e in rng.integers(0, 3, size=nvars))
            terms[exp] = complex(rng.standard_normal(), rng.standard_normal())
        p = Poly(nvars, terms)
        # w_i = z_i over w_0 = 1
        idents = np.vstack([np.eye(nvars, nvars + 1, 1), np.eye(1, nvars + 1)])
        out = _substitute(p, idents, p.degree)
        assert max_coeff_diff(out, p) < 1e-12


# ---------------------------------------------------------------------------
# ring axioms (property-based)
# ---------------------------------------------------------------------------
coeff_st = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def sparse_polys(draw, nvars=2, max_terms=4, max_exp=3):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(0, max_exp)) for _ in range(nvars)
        )
        terms[exp] = draw(coeff_st)
    return Poly(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(sparse_polys(), sparse_polys(), sparse_polys())
def test_ring_axioms(a, b, c):
    scale = max(
        1.0,
        a.max_abs_coeff() * b.max_abs_coeff() * c.max_abs_coeff(),
        (a.max_abs_coeff() + b.max_abs_coeff()) * c.max_abs_coeff(),
    )
    assoc = max_coeff_diff((a * b) * c, a * (b * c))
    dist = max_coeff_diff((a + b) * c, a * c + b * c)
    assert assoc <= 1e-12 * scale
    assert dist <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(sparse_polys(), sparse_polys(), st.integers(0, 200))
def test_evaluation_is_multiplicative(a, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=2) + 1j * rng.uniform(-1, 1, size=2)
    lhs = (a * b).evaluate(x)
    rhs = a.evaluate(x) * b.evaluate(x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# ordering, permutation, serialization
# ---------------------------------------------------------------------------
def test_grlex_ordering():
    monos = grlex_monomials(2, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert grlex_key((1, 1)) < grlex_key((3, 0))


def test_permute_variables_matches_composition():
    p = Poly(3, {(2, 1, 0): 2.0, (0, 0, 1): 1j})
    perm = (1, 2, 0)
    q = p.permute_variables(perm)
    point = np.array([0.3 + 0.1j, -0.4, 0.2j])
    permuted_point = np.array([point[perm[i]] for i in range(3)])
    assert q.evaluate(point) == pytest.approx(p.evaluate(permuted_point))


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): float("nan")},
        {(1, 0): complex(0.0, float("inf"))},
        {(1.5, 0): 1.0},
        {(float("inf"), 0): 1.0},
        {(float("nan"), 0): 1.0},
        {("1", 0): 1.0},
        {(1, -1): 1.0},
        {(1,): 1.0},
    ],
)
def test_constructor_refuses_malformed_terms(terms):
    with pytest.raises(ValueError):
        Polynomial(2, terms)


def test_constructor_accepts_integral_float_exponents():
    assert Polynomial(2, {(2.0, 0): 1.0}).terms == {(2, 0): 1.0 + 0.0j}


def test_from_dict_sums_repeated_exponents():
    data = {
        "nvars": 2,
        "terms": [
            {"exp": [1, 0], "re": 0.5},
            {"exp": [0, 1], "re": 1.0},
            {"exp": [1, 0], "im": 2.0},
        ],
    }
    assert Polynomial.from_dict(data).terms == {(1, 0): 0.5 + 2j, (0, 1): 1.0 + 0j}
    cancelling = {"nvars": 1, "terms": [{"exp": [1], "re": 0.5}, {"exp": [1], "re": -0.5}]}
    assert Polynomial.from_dict(cancelling).is_zero()


def test_json_round_trip_and_order():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): -2j, (0, 0): 0.5})
    data = p.to_dict()
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps, key=grlex_key)
    assert Polynomial.from_dict(data) == p


def test_multinomial():
    assert multinomial((1, 1)) == 2
    assert multinomial((3, 0)) == 1
    assert multinomial((2, 1, 1)) == 12


def test_power_and_close():
    z = Poly.variable(1, 0)
    p = (Poly.constant(1, 1.0) + z) ** 3
    assert p.coefficient((1,)) == pytest.approx(3.0)
    assert p.coefficient((2,)) == pytest.approx(3.0)
    assert polys_close(p, p)
