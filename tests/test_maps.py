"""Rational-map model, automorphisms, and construction algebra."""

import math

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    MapConstructionError,
    Polynomial,
    RationalMap,
    Subspace,
    catalog,
    compose_automorphisms,
    compose_source,
    compose_target,
    descend,
    first_descendant,
    form_of,
    identity_automorphism,
    identity_map,
    inverse_automorphism,
    is_proper,
    juxtapose_lambda,
    juxtapose_theta,
    lowest_order_subspace,
    oplus,
    polynomial_map,
    tensor,
    tensor_power,
    whitney_map,
)
from ballmaps.maps import CATALOG_NAMES

from conftest import Poly, gram_of, max_coeff_diff, random_center, random_unitary


def maps_equal(f: RationalMap, g: RationalMap, tol=1e-12) -> bool:
    if f.n != g.n or f.m != g.m or f.l != g.l:
        return False
    diffs = [max_coeff_diff(a, b) for a, b in zip(f.numerator, g.numerator)]
    diffs.append(max_coeff_diff(f.denominator, g.denominator))
    return max(diffs) <= tol


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------
def test_rational_map_scales_constant_denominator():
    z = Poly.variable(1, 0)
    f = RationalMap([z], Poly.constant(1, 2.0))
    assert max_coeff_diff(f.numerator[0], z.scale(0.5)) < 1e-15
    assert max_coeff_diff(f.denominator, Poly.constant(1, 1.0)) < 1e-15


def test_identity_map_shape():
    f = identity_map(2)
    assert f.n == 2 and f.m == 2 and f.l == 0 and f.degree == 1


def test_denominator_vanishing_at_zero_rejected():
    z = Poly.variable(1, 0)
    with pytest.raises(MapConstructionError):
        RationalMap([z], z)


def test_empty_numerator_rejected():
    with pytest.raises(MapConstructionError):
        polynomial_map([])


def test_map_json_round_trip():
    f = catalog("faran-2")
    g = RationalMap.from_dict(f.to_dict())
    assert maps_equal(f, g)


# ---------------------------------------------------------------------------
# ball automorphisms
# ---------------------------------------------------------------------------
def test_disc_automorphism_values():
    gamma = BallAutomorphism(np.eye(1), [0.5])
    assert gamma.apply([0.0])[0] == pytest.approx(0.5)
    # z -> (1/2 - z) / (1 - z/2) pointwise
    for z in [0.3, -0.2 + 0.1j, 0.5j]:
        expected = (0.5 - z) / (1 - z / 2)
        assert gamma.apply([z])[0] == pytest.approx(expected)


def test_apply_at_origin_is_Ua(rng):
    U = random_unitary(rng, 3)
    a = random_center(rng, 3)
    gamma = BallAutomorphism(U, a)
    assert np.allclose(gamma.apply(np.zeros(3)), U @ a)


def test_linear_part_fixes_center():
    a = np.array([0.5, 0.0])
    gamma = BallAutomorphism(np.eye(2), a)
    assert np.allclose(gamma.linear_part() @ a, a)


def test_zero_center_is_linear():
    U = np.diag([1j, -1.0])
    gamma = BallAutomorphism(U)
    z = np.array([0.2, 0.3j])
    assert np.allclose(gamma.apply(z), U @ z)
    assert not gamma.moves_origin()


def test_center_outside_ball_rejected():
    with pytest.raises(MapConstructionError):
        BallAutomorphism(np.eye(1), [1.0])


def test_non_unitary_rejected():
    with pytest.raises(MapConstructionError):
        BallAutomorphism(np.array([[2.0]]), [0.0])


@pytest.mark.parametrize(
    "U,a",
    [
        ([[math.nan, 0.0], [0.0, 1.0]], None),
        ([[1.0, 0.0], [0.0, 1.0j * math.inf]], None),
        (np.eye(2), [math.nan, 0.0]),
        (np.eye(2), [0.1, complex(0.0, -math.inf)]),
    ],
)
def test_non_finite_automorphism_rejected(U, a):
    # NaN passes neither the unitarity nor the in-ball comparison as a failure
    with pytest.raises(MapConstructionError):
        BallAutomorphism(U, a)


def test_catalog_refuses_a_non_finite_angle():
    for theta in (math.nan, math.inf):
        with pytest.raises(MapConstructionError):
            catalog("example-7-4-g", theta)


def test_compose_and_inverse_automorphisms(rng):
    for _ in range(5):
        g1 = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
        g2 = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
        g12 = compose_automorphisms(g1, g2)
        z = random_center(rng, 2, 0.5)
        assert np.allclose(g12.apply(z), g1.apply(g2.apply(z)), atol=1e-12)
        ginv = inverse_automorphism(g1)
        assert np.allclose(ginv.apply(g1.apply(z)), z, atol=1e-12)


# ---------------------------------------------------------------------------
# composition with source automorphisms
# ---------------------------------------------------------------------------
def test_compose_source_square_with_disc_move():
    # frozen by hand expansion: numerator (1/2 - z)^2, denominator (1 - z/2)^2
    f = polynomial_map([Poly.monomial((2,), 1.0)])
    gamma = BallAutomorphism(np.eye(1), [0.5])
    g = compose_source(f, gamma)
    num_expected = Polynomial(1, {(0,): 0.25, (1,): -1.0, (2,): 1.0})
    den_expected = Polynomial(1, {(0,): 1.0, (1,): -1.0, (2,): 0.25})
    assert max_coeff_diff(g.numerator[0], num_expected) < 1e-14
    assert max_coeff_diff(g.denominator, den_expected) < 1e-14


def test_compose_source_with_identity_is_identity():
    f = catalog("faran-2")
    g = compose_source(f, identity_automorphism(2))
    assert maps_equal(f, g)


def test_compose_identity_map_gives_automorphism(rng):
    gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
    f = compose_source(identity_map(2), gamma)
    for _ in range(4):
        z = random_center(rng, 2, 0.5)
        assert np.allclose(f.value_at(z), gamma.apply(z), atol=1e-12)


def test_compose_source_is_group_action(rng):
    f = catalog("faran-2")
    for _ in range(3):
        g1 = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
        g2 = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
        lhs = compose_source(compose_source(f, g1), g2)
        rhs = compose_source(f, compose_automorphisms(g1, g2))
        assert maps_equal(lhs, rhs, tol=1e-10)


# ---------------------------------------------------------------------------
# composition with target automorphisms
# ---------------------------------------------------------------------------
def test_compose_target_disc_scaling():
    f = identity_map(1)
    psi = BallAutomorphism(np.eye(1), [0.5])
    g = compose_target(f, psi)
    hf, hg = form_of(f), form_of(g)
    assert hg.max_entry_diff(hf.scale(0.75)) < 1e-12


def test_compose_target_unitary_keeps_denominator(rng):
    f = catalog("faran-2")
    psi = BallAutomorphism(random_unitary(rng, 3))
    g = compose_target(f, psi)
    assert max_coeff_diff(g.denominator, f.denominator) < 1e-12


def test_compose_target_rejects_generalized_targets():
    z = Poly.variable(1, 0)
    f = polynomial_map([z, z], l=1)
    with pytest.raises(MapConstructionError):
        compose_target(f, BallAutomorphism(np.eye(2), [0.1, 0.0]))


# ---------------------------------------------------------------------------
# tensor, juxtaposition, orthogonal sums
# ---------------------------------------------------------------------------
def test_tensor_of_identity_with_itself():
    f = tensor(identity_map(2), identity_map(2))
    monos = [p.support()[0] for p in f.numerator]
    assert sorted(monos) == [(0, 2), (1, 1), (1, 1), (2, 0)]
    # squared norm is |z|^4
    expected = form_of(tensor_power(2, 2))
    assert form_of(f).max_entry_diff(expected) < 1e-12


def test_tensor_with_constant_one_is_identity():
    f = catalog("faran-2")
    one = polynomial_map([Poly.constant(2, 1.0)])
    assert form_of(tensor(f, one)).max_entry_diff(form_of(f)) < 1e-12


def test_tensor_norm_multiplicativity(rng):
    for _ in range(4):
        comps_f = [
            Polynomial(2, {tuple(rng.integers(0, 3, 2)): complex(*rng.standard_normal(2))})
            for _ in range(2)
        ]
        comps_g = [
            Polynomial(2, {tuple(rng.integers(0, 3, 2)): complex(*rng.standard_normal(2))})
            for _ in range(2)
        ]

        f, g = polynomial_map(comps_f), polynomial_map(comps_g)
        t = tensor(f, g)
        lhs = gram_of(list(t.numerator))
        rhs = gram_of(comps_f) * gram_of(comps_g)
        assert lhs.max_entry_diff(rhs) < 1e-10 * max(1.0, rhs.max_abs())


def test_tensor_requires_matching_source():
    with pytest.raises(MapConstructionError):
        tensor(identity_map(2), identity_map(3))


def test_juxtaposition_form_identity():
    # J_{pi/4} of the two planar degree-2 maps equals the weighted pair
    # (sqrt2/2)(z1^2, sqrt2 z1 z2, z2^2) (+) (sqrt2/2)(z1, z2) up to target unitary
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    f = polynomial_map([z1, z1 * z2, z2 * z2])
    g = polynomial_map([z1 * z1, z1 * z2, z2])
    j = juxtapose_theta(f, g, math.pi / 4)
    c = math.sqrt(2.0) / 2.0
    expected = oplus(catalog("faran-3"), identity_map(2), (c, c))
    assert form_of(j).max_entry_diff(form_of(expected)) < 1e-12


def test_juxtapose_theta_zero_keeps_first_map():
    f = catalog("faran-2")
    g = catalog("faran-3")
    j = juxtapose_theta(f, g, 0.0)
    assert maps_equal(j, oplus(f, polynomial_map([Poly.zero(2)] * 3)))


def test_juxtapose_lambda_tensor_powers():
    lam = [math.sqrt(2.0) / 2.0] * 2
    f = juxtapose_lambda([tensor_power(2, 1), tensor_power(2, 2)], lam)
    assert is_proper(f).proper
    # |f|^2 = (|z|^2 + |z|^4) / 2
    from ballmaps.hermitian import HermitianForm, norm_power_form

    expected = (norm_power_form(2, 1) + norm_power_form(2, 2)).scale(0.5) - \
        HermitianForm.constant(2, 1.0)
    assert form_of(f).max_entry_diff(expected) < 1e-12


def test_juxtapose_lambda_rejects_non_unit_weights():
    with pytest.raises(MapConstructionError):
        juxtapose_lambda([identity_map(2), identity_map(2)], [1.0, 1.0])


def test_juxtapose_rejects_mixed_denominators():
    f = identity_map(1)
    gamma = BallAutomorphism(np.eye(1), [0.5])
    g = compose_source(f, gamma)
    with pytest.raises(MapConstructionError):
        oplus(f, g)


def test_oplus_signature_layout():
    z = Poly.variable(1, 0)
    f = polynomial_map([z, z * z], l=1)  # (m, l) = (1, 1)
    g = polynomial_map([z * z * z, z], l=1)
    h = oplus(f, g)
    assert (h.m, h.l) == (2, 2)
    # positive blocks first (z, z^3), then negative blocks (z^2, z)
    assert h.numerator[0].support() == [(1,)]
    assert h.numerator[1].support() == [(3,)]
    assert h.numerator[2].support() == [(2,)]
    assert h.numerator[3].support() == [(1,)]


# ---------------------------------------------------------------------------
# descend and lowest-order subspaces
# ---------------------------------------------------------------------------
def test_descend_identity_gives_planar_whitney():
    ident = identity_map(2)
    A = Subspace.from_vectors(2, [[0.0, 1.0]])
    w = descend(ident, A, ident)
    supports = sorted(tuple(p.support()) for p in w.numerator)
    assert supports == [((0, 2),), ((1, 0),), ((1, 1),)]
    assert form_of(w).max_entry_diff(form_of(catalog("faran-2"))) < 1e-12


def test_first_descendant_of_planar_whitney():
    f = catalog("faran-2")
    A = lowest_order_subspace(f)
    assert A.dim == 1
    assert np.allclose(np.abs(A.basis), [[1.0, 0.0, 0.0]])
    ef = first_descendant(f)
    assert form_of(ef).max_entry_diff(form_of(catalog("faran-3"))) < 1e-12


def test_lowest_order_subspace_of_homogeneous_map_is_full():
    f = tensor_power(2, 2)
    A = lowest_order_subspace(f)
    assert A.dim == f.target_dim


# ---------------------------------------------------------------------------
# named constructions and the catalog
# ---------------------------------------------------------------------------
def test_tensor_power_of_one_is_identity():
    assert maps_equal(tensor_power(2, 1), identity_map(2))


def test_tensor_power_zero_is_constant():
    f = tensor_power(3, 0)
    assert f.target_dim == 1 and f.numerator[0].degree == 0


def test_whitney_components():
    f = whitney_map(3)
    supports = [p.support()[0] for p in f.numerator]
    assert supports == [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]


def test_catalog_faran_4_coefficients():
    f = catalog("faran-4")
    assert f.numerator[0].coefficient((3, 0)) == pytest.approx(1.0)
    assert f.numerator[1].coefficient((1, 1)) == pytest.approx(math.sqrt(3.0))
    assert f.numerator[2].coefficient((0, 3)) == pytest.approx(1.0)


def test_catalog_whitney_sequence_shapes():
    for k in (1, 2, 3):
        f = catalog(f"whitney-seq-{k}")
        assert f.target_dim == k + 2
        assert f.degree == k + 1


def test_catalog_unknown_name():
    with pytest.raises(MapConstructionError):
        catalog("nonexistent-map")


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_catalog_map_is_proper(name):
    cert = is_proper(catalog(name))
    assert cert.proper, f"{name}: residual {cert.residual}"


def test_juxtapose_lambda_of_proper_maps_is_proper(rng):
    maps_list = [catalog("faran-2"), whitney_map(2), tensor_power(2, 3)]
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w /= np.linalg.norm(w)
    f = juxtapose_lambda(maps_list, list(w))
    assert is_proper(f).proper


def test_compose_source_rejects_denominator_pole_at_center(rng):
    # a rational (non-proper) map whose denominator vanishes at the center
    z = Poly.variable(1, 0)
    den = Polynomial(1, {(0,): 1.0, (1,): -1.0 / 0.3})
    f = RationalMap([z], den)
    with pytest.raises(MapConstructionError):
        compose_source(f, BallAutomorphism(np.eye(1), [0.3]))


def test_descend_dimension_mismatch():
    ident = identity_map(2)
    A = Subspace.from_vectors(3, [[0.0, 0.0, 1.0]])
    with pytest.raises(MapConstructionError):
        descend(ident, A, ident)


def test_generalized_map_json_round_trip():
    z = Poly.variable(1, 0)
    f = polynomial_map([z, z * z, z], l=1)
    g = RationalMap.from_dict(f.to_dict())
    assert (g.m, g.l) == (2, 1)
    assert maps_equal(f, g)
