"""Hermitian forms: division by the sphere, signature, ranks, tensor-of-automorphism forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballmaps import (
    BallAutomorphism,
    HermitianForm,
    Polynomial,
    RationalMap,
    analyze_map,
    automorphism_tensor_form,
    automorphism_tensor_rho_expansion,
    catalog,
    compose_target,
    form_of,
    hermitian_rank,
    identity_map,
    image_rank,
    is_proper,
    norm_power_form,
    polynomial_map,
    quotient_by_sphere,
    signature,
    sphere_form,
    tensor,
    tensor_power,
    whitney_map,
)
from ballmaps.hermitian import TAU_SIG
from ballmaps.maps import CATALOG_NAMES, polynomial_map_of_rows
from ballmaps.polynomials import grlex_monomials

from conftest import Poly, gram_of, random_center, random_unitary


def rho_plus_one(n):
    return sphere_form(n) + HermitianForm.constant(n, 1.0)


def form_power(h, k):
    """h to the power k, multiplied out one factor at a time."""
    out = HermitianForm.constant(h.nvars, 1.0)
    for _ in range(k):
        out = out * h
    return out


# ---------------------------------------------------------------------------
# held matrices: symmetrized on construction only
# ---------------------------------------------------------------------------
def test_arithmetic_holds_the_slice_product_or_sum_it_forms(rng):
    # parts are zero with either sign half of the time; the constructor
    # symmetrizes, and a slice, a real multiple, a sum or a difference of
    # Hermitian matrices is held as formed, -0.0 parts included
    basis = grlex_monomials(3, 1)
    forms = []
    for _ in range(500):
        parts = rng.standard_normal((2, 4, 4)) * (rng.random((2, 4, 4)) < 0.5)
        parts = np.copysign(parts, rng.choice([-1.0, 1.0], (2, 4, 4)))
        parts[0][np.diag_indices(4)] = 1.0
        mat = np.empty((4, 4), dtype=complex)
        mat.real, mat.imag = parts
        h = HermitianForm(3, basis, mat)
        assert h.mat.tobytes() == (0.5 * (mat + mat.conj().T)).tobytes()
        forms.append(h)
    for h, g in zip(forms, forms[1:]):
        assert h.scale(1.0).mat.tobytes() == (h.mat * 1.0).tobytes()
        assert (h + g).mat.tobytes() == (h.mat + g.mat).tobytes()
        assert (h - g).mat.tobytes() == (h.mat - g.mat).tobytes()
        small = h.mat.copy()
        small[1], small[:, 1] = 1e-15, 1e-15
        k = HermitianForm(3, basis, small)
        kept = k.compressed()
        assert list(kept.basis) == basis[:1] + basis[2:]
        assert kept.mat.tobytes() == k.mat[np.ix_([0, 2, 3], [0, 2, 3])].tobytes()


# ---------------------------------------------------------------------------
# form_of
# ---------------------------------------------------------------------------
def test_form_of_identity():
    h = form_of(identity_map(2))
    assert h.entry((1, 0), (1, 0)) == pytest.approx(1.0)
    assert h.entry((0, 1), (0, 1)) == pytest.approx(1.0)
    assert h.entry((0, 0), (0, 0)) == pytest.approx(-1.0)
    assert h.size == 3


def test_form_of_cubic_planar_map():
    # |z1^3|^2 + 3|z1 z2|^2 + |z2^3|^2 - 1 == (rho+1)^3 - 1 - 3 rho |z1 z2|^2
    h = form_of(catalog("faran-4"))
    one = HermitianForm.constant(2, 1.0)
    cross = gram_of([Poly.monomial((1, 1))])
    expected = form_power(rho_plus_one(2), 3) - one - (sphere_form(2) * cross).scale(3.0)
    assert h.max_entry_diff(expected) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_tensor_power_form_is_norm_power(n, m):
    h = form_of(tensor_power(n, m))
    expected = form_power(rho_plus_one(n), m) - HermitianForm.constant(n, 1.0)
    assert h.max_entry_diff(expected) <= 1e-10


def test_form_of_generalized_target_signs():
    z = Poly.variable(1, 0)
    f = polynomial_map([z, z], l=1)
    h = form_of(f)
    # |z|^2 - |z|^2 - 1 = -1
    assert h.size == 1
    assert h.entry((0,), (0,)) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# quotient by the sphere
# ---------------------------------------------------------------------------
def test_quotient_of_sphere_form_is_one():
    division = quotient_by_sphere(sphere_form(2))
    u, r = division.quotient, division.residual
    assert r < 1e-14
    assert u.max_entry_diff(HermitianForm.constant(2, 1.0)) < 1e-14


def test_quotient_of_norm_fourth_minus_one():
    h = norm_power_form(2, 2) - HermitianForm.constant(2, 1.0)
    division = quotient_by_sphere(h)
    u, r = division.quotient, division.residual
    expected = norm_power_form(2, 1) + HermitianForm.constant(2, 1.0)
    assert r < 1e-14
    assert u.max_entry_diff(expected) < 1e-14


def test_quotient_detects_non_vanishing():
    # |z1|^2 - 1 in two variables does not vanish on the sphere
    h = gram_of([Poly.variable(2, 0)]) - HermitianForm.constant(2, 1.0)
    r = quotient_by_sphere(h).residual
    assert r > 0.1


def test_quotient_reconstructs_catalog_forms():
    for name in CATALOG_NAMES:
        f = catalog(name)
        h = form_of(f)
        division = quotient_by_sphere(h)
        u, r = division.quotient, division.residual
        assert r <= 1e-9 * (1.0 + h.max_abs()), name
        back = u * sphere_form(f.n)
        assert back.max_entry_diff(h) <= 1e-9 * (1.0 + h.max_abs()), name


# ---------------------------------------------------------------------------
# is_proper
# ---------------------------------------------------------------------------
def test_is_proper_accepts_catalog_entry():
    cert = is_proper(catalog("faran-2"))
    assert cert.proper and cert.residual < 1e-12


def test_is_proper_rejects_duplicated_component():
    z1 = Poly.variable(2, 0)
    cert = is_proper(polynomial_map([z1, z1]))
    assert not cert.proper
    assert cert.residual > 0.1


def test_is_proper_accepts_disc_cubic():
    assert is_proper(catalog("corollary-6-2")).proper


def test_is_proper_warns_on_degenerate_representation():
    # q/q with q = 1 - z/2: the form vanishes identically, so the certificate
    # is vacuous and the representation cannot be in lowest terms
    q = Polynomial(1, {(0,): 1.0, (1,): -0.5})
    f = RationalMap([q], q)
    with pytest.warns(UserWarning, match="identically zero"):
        cert = is_proper(f)
    assert cert.proper


def test_is_proper_composed_map_does_not_warn(rng):
    from ballmaps import compose_source
    import warnings as _warnings

    f = catalog("faran-2")
    g = compose_source(f, BallAutomorphism(np.eye(2), random_center(rng, 2, 0.4)))
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert is_proper(g).proper


# ---------------------------------------------------------------------------
# signature and ranks
# ---------------------------------------------------------------------------
def test_signature_of_identity_form():
    sig = signature(form_of(identity_map(2)))
    assert (sig.positive, sig.negative, sig.zero) == (2, 1, 0)
    assert sig.rank == 3


def test_signature_of_cancelling_generalized_map():
    z = Poly.variable(1, 0)
    f = polynomial_map([z, z], l=1)
    sig = signature(form_of(f))
    assert sig.rank == 1 and sig.negative == 1


@pytest.mark.parametrize(
    "relative,kept,flagged", [(5e-9, False, True), (5e-8, True, True), (1e-3, True, False)]
)
def test_signature_reports_an_eigenvalue_near_the_cut(relative, kept, flagged):
    # |z1 + z2|^2 + t^2 |z1 - z2|^2 has the Gram block [[1 + t^2, 1 - t^2], ...]
    # with eigenvalues 2 and 2 t^2; both rows scale by 1 + t^2, so next to the
    # denominator's -1 the scaled spectrum is -1, 2 / (1 + t^2), 2 t^2 / (1 + t^2)
    # and the small eigenvalue is t^2 relative to the largest
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    t = np.sqrt(relative)
    f = polynomial_map([z1 + z2, (z1 - z2).scale(t)])
    sig = signature(form_of(f))
    assert (sig.positive, sig.negative) == (1 + kept, 1)
    if kept:
        assert sig.margin == pytest.approx(relative, rel=1e-5) and sig.dropped < 1e-15
    else:
        assert sig.dropped == pytest.approx(relative, rel=1e-5) and sig.margin == pytest.approx(0.5)
    assert sig.to_dict()["dropped"] == sig.dropped
    notes = analyze_map(f).notes
    assert any(note.startswith("signature decided within 10x") for note in notes) == flagged


def test_signature_of_the_zero_form():
    sig = signature(HermitianForm(1, [(0,), (1,)], np.zeros((2, 2))))
    assert (sig.positive, sig.negative, sig.zero) == (0, 0, 2)
    assert sig.margin == np.inf and sig.dropped == 0.0


def test_hermitian_rank_of_planar_whitney():
    # frozen eigen count: diag(1, 1, 1, -1) over {z1, z1z2, z2^2, 1}
    assert hermitian_rank(catalog("faran-2")) == 4


def test_image_rank_examples():
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    f = polynomial_map([z1, z2, Poly.zero(2)])
    assert image_rank(f) == 2
    assert image_rank(catalog("faran-3")) == 3
    for k in (1, 2, 3):
        assert image_rank(catalog(f"whitney-seq-{k}")) == k + 2


def _orthonormal_columns(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    return q


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 14),
    st.floats(-2.0, 4.0),
    st.lists(st.tuples(st.booleans(), st.floats(0.0, 1.0)), min_size=13, max_size=13),
    st.integers(0, 2**32 - 1),
)
def test_image_rank_counts_singular_values_above_the_cut(rows, cols, top, draws, seed):
    """A = U diag(sigma) V^H as the numerator of a polynomial map over 14
    nonconstant monomials: its coefficient array [[0, A], [1, 0]] has the
    singular values sigma and the denominator's 1, each kept 10x or more
    away from the cut tol * max(1, sigma_1)."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    largest = 10.0**top
    cut = TAU_SIG * max(1.0, largest)
    # kept values in [10 cut, largest], dropped ones in [0, cut / 10]
    span = np.log10(largest / (10 * cut))
    sigma = [largest] + [
        largest * 10.0 ** (-span * t) if kept else cut / 10 * t for kept, t in draws[: k - 1]
    ]
    A = _orthonormal_columns(rng, rows, k) * sigma @ _orthonormal_columns(rng, cols, k).conj().T
    f = polynomial_map_of_rows(2, grlex_monomials(2, 4)[1 : cols + 1], A)
    assert f.coeffs.shape == (rows + 1, cols + 1)
    singular = np.array(sigma + [1.0])
    expected = int(np.sum(singular > TAU_SIG * max(1.0, singular.max()))) - 1
    assert image_rank(f, check=False) == expected


def test_image_rank_rejects_generalized_targets():
    z = Poly.variable(1, 0)
    with pytest.raises(ValueError):
        image_rank(polynomial_map([z, z], l=1))


def test_hermitian_rank_equals_image_rank_plus_one():
    for name in CATALOG_NAMES:
        f = catalog(name)
        assert hermitian_rank(f) == image_rank(f) + 1, name


def test_signature_invariant_under_target_automorphisms(rng):
    f = catalog("faran-2")
    base = signature(form_of(f))
    for _ in range(5):
        psi = BallAutomorphism(
            random_unitary(rng, f.target_dim), random_center(rng, f.target_dim)
        )
        sig = signature(form_of(compose_target(f, psi)))
        assert (sig.positive, sig.negative, sig.zero) == (
            base.positive,
            base.negative,
            base.zero,
        )


# ---------------------------------------------------------------------------
# target automorphism scaling
# ---------------------------------------------------------------------------
def test_target_scaling_when_fixing_origin(rng):
    fixtures = [
        catalog("faran-2"),
        catalog("faran-4"),
        whitney_map(3),
        tensor_power(2, 3),
    ]
    for f in fixtures:
        a = random_center(rng, f.target_dim, 0.5)
        psi = BallAutomorphism(np.eye(f.target_dim), a)
        c = 1.0 - float(np.vdot(a, a).real)
        hf, hg = form_of(f), form_of(compose_target(f, psi))
        assert hg.max_entry_diff(hf.scale(c)) <= 1e-9 * max(1.0, hf.max_abs())


# ---------------------------------------------------------------------------
# tensor products of automorphisms
# ---------------------------------------------------------------------------
def test_single_factor_form():
    h = automorphism_tensor_form([[0.5, 0.0]])
    assert h.max_entry_diff(sphere_form(2).scale(0.75)) < 1e-14


def test_all_origin_centers_give_norm_powers():
    h = automorphism_tensor_form([[0.0], [0.0], [0.0]])
    expected = form_power(rho_plus_one(1), 3) - HermitianForm.constant(1, 1.0)
    assert h.max_entry_diff(expected) < 1e-14


def test_tensor_form_matches_explicit_tensor(rng):
    for _ in range(3):
        pts = [random_center(rng, 2, 0.6) for _ in range(2)]
        lhs = automorphism_tensor_form(pts)
        f = tensor(
            BallAutomorphism(np.eye(2), pts[0]).as_rational_map(),
            BallAutomorphism(np.eye(2), pts[1]).as_rational_map(),
        )
        assert lhs.max_entry_diff(form_of(f)) <= 1e-8


def test_rho_expansion_extremes(rng):
    pts = [random_center(rng, 2, 0.6) for _ in range(3)]
    coeffs = automorphism_tensor_rho_expansion(pts)
    assert coeffs[0].size == 0  # B_0 vanishes
    prod_c = 1.0
    for p in pts:
        prod_c *= 1.0 - float(np.vdot(p, p).real)
    assert coeffs[-1].max_entry_diff(HermitianForm.constant(2, prod_c)) < 1e-12
    # the expansion re-assembles the full form
    rho = sphere_form(2)
    total = HermitianForm.zero(2)
    for k, B in enumerate(coeffs):
        total = total + B * form_power(rho, k)
    assert total.max_entry_diff(automorphism_tensor_form(pts)) < 1e-10


def test_center_on_boundary_rejected():
    with pytest.raises(ValueError):
        automorphism_tensor_form([[1.0, 0.0]])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
def test_form_json_round_trip():
    h = form_of(catalog("faran-2"))
    data = h.to_dict()
    # only grlex-ordered upper pairs are stored
    for item in data["entries"]:
        a, b = tuple(item["alpha"]), tuple(item["beta"])
        assert (sum(a), a) <= (sum(b), b)
    back = HermitianForm.from_dict(data)
    assert back.max_entry_diff(h) < 1e-14


@pytest.mark.parametrize(
    "entry",
    [
        {"alpha": [1.5], "beta": [1.5], "re": 1.0},
        {"alpha": [1], "beta": [0.5], "re": 1.0},
        {"alpha": [float("nan")], "beta": [0], "re": 1.0},
        {"alpha": [-1], "beta": [0], "re": 1.0},
        {"alpha": [1, 0], "beta": [1], "re": 1.0},
        {"alpha": [0], "beta": [0], "re": float("nan")},
        {"alpha": [1], "beta": [0], "re": 1.0, "im": float("inf")},
    ],
)
def test_form_from_dict_refuses_malformed_entries(entry):
    # a fractional exponent used to be truncated and a NaN entry dropped
    data = {"nvars": 1, "entries": [{"alpha": [1], "beta": [1], "re": 1.0}, entry]}
    with pytest.raises(ValueError):
        HermitianForm.from_dict(data)
    at = (tuple(entry["alpha"]), tuple(entry["beta"]))
    value = complex(entry["re"], entry.get("im", 0.0))
    with pytest.raises(ValueError):
        HermitianForm.from_entries(1, {((1,), (1,)): 1.0, at: value})


def test_rho_expansion_linear_coefficient_closed_form(rng):
    # B_1 = sum_j c_j prod_{k != j} omega_k, with omega built independently
    # from the automorphism denominators
    pts = [random_center(rng, 2, 0.6) for _ in range(2)]
    coeffs = automorphism_tensor_rho_expansion(pts)
    omegas = []
    cs = []
    for a in pts:
        gamma = BallAutomorphism(np.eye(2), a)
        omegas.append(gram_of([gamma.as_rational_map().denominator]))
        cs.append(1.0 - float(np.vdot(a, a).real))
    expected = omegas[1].scale(cs[0]) + omegas[0].scale(cs[1])
    assert coeffs[1].max_entry_diff(expected) < 1e-12
