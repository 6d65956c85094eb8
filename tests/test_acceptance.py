"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here and must not be loosened.
"""

import math
import time

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    HermitianForm,
    Polynomial,
    analyze_map,
    automorphism_tensor_form,
    automorphism_tensor_rho_expansion,
    catalog,
    close_permutation_group,
    compose_target,
    diagonal_stabilizer,
    origin_move_residual,
    first_descendant,
    form_of,
    full_unitary_test,
    identity_map,
    is_proper,
    juxtapose_theta,
    membership,
    pad_with_zeros,
    permutation_stabilizer,
    realize_subgroup,
    sphere_form,
    sphere_sample_check,
    tensor,
    tensor_power,
    torus_test,
    unitary_automorphism,
    whitney_map,
)

from conftest import gram_of, random_center, random_diagonal_unitary, random_unitary

ETA = np.exp(2j * np.pi / 3)
CUBE_ROOTS_DIAG = np.diag([ETA, ETA**2])


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def form_power(h, k):
    """h to the power k, multiplied out one factor at a time."""
    out = HermitianForm.constant(h.nvars, 1.0)
    for _ in range(k):
        out = out * h
    return out


# ---------------------------------------------------------------------------
# 1. the four planar normal forms
# ---------------------------------------------------------------------------
def test_criterion_01_planar_normal_form_table():
    budget = 1.0

    t0 = time.monotonic()
    b1 = analyze_map(catalog("faran-1"))
    assert time.monotonic() - t0 < budget
    assert b1.proper.proper
    assert b1.report.full_unitary_invariant
    powers = full_unitary_test(catalog("faran-1")).powers
    assert len(powers) == 1
    assert powers[0][1] == 1 and powers[0][0] == pytest.approx(1.0)

    t0 = time.monotonic()
    b2 = analyze_map(catalog("faran-2"))
    assert time.monotonic() - t0 < budget
    assert b2.report.torus_invariant
    assert b2.report.block_partition.blocks == ((0,), (1,))
    assert b2.strict.diagonal.is_trivial
    assert b2.strict.permutations == ((0, 1),)

    t0 = time.monotonic()
    b3 = analyze_map(catalog("faran-3"))
    assert time.monotonic() - t0 < budget
    assert b3.report.full_unitary_invariant
    assert b3.strict.diagonal.order == 2
    assert b3.strict.permutations == ((0, 1),)

    t0 = time.monotonic()
    b4 = analyze_map(catalog("faran-4"))
    assert time.monotonic() - t0 < budget
    assert b4.report.diagonal_stabilizer.is_full_torus
    assert b4.report.permutation_stabilizer == ((0, 1), (1, 0))
    assert b4.strict.diagonal.order == 3
    elements = b4.strict.diagonal.element_matrices()
    expected = [np.eye(2), CUBE_ROOTS_DIAG, CUBE_ROOTS_DIAG @ CUBE_ROOTS_DIAG]
    for want in expected:
        assert any(np.max(np.abs(m - want)) < 1e-9 for m in elements)
    assert b4.strict.permutations == ((0, 1),)

    report(1, "planar normal-form table reproduced, each analysis under 1 s")


# ---------------------------------------------------------------------------
# 2. cubic map form expansion
# ---------------------------------------------------------------------------
def test_criterion_02_cubic_form_expansion():
    h = form_of(catalog("faran-4"))
    one = HermitianForm.constant(2, 1.0)
    rho = sphere_form(2)
    cross = gram_of([Polynomial.monomial((1, 1))])
    expected = form_power(rho + one, 3) - one - (rho * cross).scale(3.0)
    err = h.max_entry_diff(expected)
    assert err <= 1e-12
    report(2, f"cubic form matches its closed-form expansion (err {err:.2e})")


# ---------------------------------------------------------------------------
# 3. tensor-power forms
# ---------------------------------------------------------------------------
def test_criterion_03_tensor_power_forms():
    worst = 0.0
    for n in range(1, 5):
        one = HermitianForm.constant(n, 1.0)
        rho1 = sphere_form(n) + one
        for m in range(1, 6):
            err = form_of(tensor_power(n, m)).max_entry_diff(form_power(rho1, m) - one)
            worst = max(worst, err)
            assert err <= 1e-10, (n, m, err)
    report(3, f"tensor-power forms equal norm powers for n<=4, m<=5 (err {worst:.2e})")


# ---------------------------------------------------------------------------
# 4. tensor-of-automorphism forms
# ---------------------------------------------------------------------------
def test_criterion_04_automorphism_tensor_forms():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(10):
        K = int(rng.integers(1, 4))
        pts = [random_center(rng, 2, 0.6) for _ in range(K)]
        lhs = automorphism_tensor_form(pts)
        f = BallAutomorphism(np.eye(2), pts[0]).as_rational_map()
        for p in pts[1:]:
            f = tensor(f, BallAutomorphism(np.eye(2), p).as_rational_map())
        err = lhs.max_entry_diff(form_of(f))
        worst = max(worst, err)
        assert err <= 1e-8, (trial, err)
        coeffs = automorphism_tensor_rho_expansion(pts)
        prod_c = 1.0
        for p in pts:
            prod_c *= 1.0 - float(np.vdot(p, p).real)
        top_err = coeffs[-1].max_entry_diff(HermitianForm.constant(2, prod_c))
        assert top_err <= 1e-10
    report(4, f"automorphism tensor forms match explicit tensors (err {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. target-recentering scaling law
# ---------------------------------------------------------------------------
def test_criterion_05_target_scaling():
    rng = np.random.default_rng(505)
    fixtures = [
        catalog("faran-1"),
        catalog("faran-2"),
        catalog("faran-3"),
        catalog("faran-4"),
        catalog("example-3-1"),
        whitney_map(2),
        whitney_map(3),
        tensor_power(2, 2),
        tensor_power(3, 2),
        catalog("whitney-seq-2"),
    ]
    assert len(fixtures) == 10
    worst = 0.0
    for f in fixtures:
        assert f.maps_origin_to_zero()
        a = random_center(rng, f.target_dim, 0.6)
        psi = BallAutomorphism(np.eye(f.target_dim), a)
        c = 1.0 - float(np.vdot(a, a).real)
        hf = form_of(f)
        hg = form_of(compose_target(f, psi))
        err = hg.max_entry_diff(hf.scale(c))
        worst = max(worst, err)
        assert err <= 1e-9 * max(1.0, hf.max_abs())
    report(5, f"target recentering scales forms by 1 - |a|^2 (err {worst:.2e})")


# ---------------------------------------------------------------------------
# 6. realization suite over all subgroups of S_3
# ---------------------------------------------------------------------------
def test_criterion_06_s3_realization_suite():
    subgroups = {
        "trivial": [],
        "transposition-12": [(1, 0, 2)],
        "transposition-23": [(0, 2, 1)],
        "transposition-13": [(2, 1, 0)],
        "alternating": [(1, 2, 0)],
        "full": [(1, 2, 0), (1, 0, 2)],
    }
    t0 = time.monotonic()
    for name, gens in subgroups.items():
        group = close_permutation_group(gens, 3)
        f = realize_subgroup(gens, 3)
        cert = is_proper(f)
        assert cert.proper and cert.residual <= 1e-8, name
        sample = sphere_sample_check(f, 1000, 1e-9, seed=606)
        assert sample.passed, (name, sample.max_residual)
        assert sorted(permutation_stabilizer(f)) == group, name
        assert diagonal_stabilizer(f).is_trivial, name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"all six subgroups of S_3 realized and verified in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 7. block structure and ranks of the standard families
# ---------------------------------------------------------------------------
def test_criterion_07_standard_family_invariants():
    from ballmaps import image_rank, source_rank_upper
    from ballmaps import block_partition as blocks_of

    for n in (2, 3, 4):
        w = whitney_map(n)
        blocks = blocks_of(w).blocks
        assert blocks == (tuple(range(n - 1)), (n - 1,)), n
        assert source_rank_upper(w) == 2
    assert source_rank_upper(catalog("example-3-1")) == 2
    for k in (1, 2, 3):
        assert image_rank(catalog(f"whitney-seq-{k}")) == k + 2
    report(7, "block partitions, source-rank bounds, and image ranks as published")


# ---------------------------------------------------------------------------
# 8. negative fixtures
# ---------------------------------------------------------------------------
def test_criterion_08_negative_fixtures():
    for name in ("corollary-6-2", "example-7-2"):
        f = catalog(name)
        assert diagonal_stabilizer(f).is_trivial, name
        perms = permutation_stabilizer(f)
        assert perms == [tuple(range(f.n))], name
        assert not torus_test(f).is_torus_invariant, name
    report(8, "asymmetric fixtures show trivial stabilizers and fail the torus test")


# ---------------------------------------------------------------------------
# 9. descent monotonicity and juxtaposition intersection law
# ---------------------------------------------------------------------------
def _known_unitary_member(rng, name):
    """A random unitary inside the known invariance group of the fixture."""
    if name in ("faran-2", "whitney-seq-2"):
        return random_diagonal_unitary(rng, 2)
    if name == "faran-4":
        u = random_diagonal_unitary(rng, 2)
        if rng.uniform() < 0.5:
            u = u @ np.array([[0.0, 1.0], [1.0, 0.0]])
        return u
    if name == "faran-3":
        return random_unitary(rng, 2)
    if name in ("whitney-3", "example-3-1"):
        u = np.zeros((3, 3), dtype=complex)
        u[:2, :2] = random_unitary(rng, 2)
        u[2, 2] = np.exp(1j * rng.uniform(0, 2 * np.pi))
        return u
    raise AssertionError(name)


def test_criterion_09_descent_and_juxtaposition_laws():
    rng = np.random.default_rng(909)
    violations = 0

    # descent monotonicity: 10 randomized instances
    fixtures = {
        "faran-2": catalog("faran-2"),
        "faran-4": catalog("faran-4"),
        "whitney-seq-2": catalog("whitney-seq-2"),
        "whitney-3": whitney_map(3),
        "example-3-1": catalog("example-3-1"),
    }
    instances = 0
    for name, f in fixtures.items():
        ef = first_descendant(f)
        for _ in range(2):
            gamma = unitary_automorphism(_known_unitary_member(rng, name))
            assert membership(f, gamma).member, name
            if not membership(ef, gamma).member:
                violations += 1
            instances += 1

    # intersection law: 10 randomized instances
    pairs = [
        ("faran-2", "faran-4"),
        ("faran-4", "faran-2"),
        ("faran-3", "faran-2"),
        ("faran-2", "faran-3"),
        ("whitney-seq-2", "faran-4"),
    ]
    for name_f, name_g in pairs:
        f, g = catalog(name_f), catalog(name_g)
        m = f.degree + 1
        theta = rng.uniform(0.2, math.pi / 2 - 0.2)
        j = juxtapose_theta(f, tensor(g, tensor_power(2, m)), theta)
        probes = [
            unitary_automorphism(random_diagonal_unitary(rng, 2)),
            unitary_automorphism(
                _known_unitary_member(rng, name_f if rng.uniform() < 0.5 else name_g)
            ),
        ]
        for gamma in probes:
            joint = membership(f, gamma).member and membership(g, gamma).member
            if membership(j, gamma).member != joint:
                violations += 1
            instances += 1

    assert instances == 20
    assert violations == 0
    report(9, "descent monotonicity and intersection law hold on 20 instances")


# ---------------------------------------------------------------------------
# 10. origin-moving residual thresholds
# ---------------------------------------------------------------------------
def test_criterion_10_origin_moving_residual():
    rng = np.random.default_rng(1010)
    for _ in range(5):
        f = pad_with_zeros(identity_map(2), int(rng.integers(1, 4)))
        gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2, 0.7))
        assert origin_move_residual(f, gamma) <= 1e-10
    value = origin_move_residual(catalog("faran-3"), BallAutomorphism(np.eye(2), [0.5, 0.0]))
    assert value >= 1e-3
    report(10, f"residual separates linear embeddings (0) from the quadratic ({value:.4f})")
