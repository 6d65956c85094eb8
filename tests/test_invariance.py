"""Membership, stabilizers, structural tests, and the equation system."""

import itertools
import math

import numpy as np
import pytest

from ballmaps import (
    BallAutomorphism,
    CapabilityError,
    GroupClosureError,
    Polynomial,
    block_partition,
    catalog,
    compose_automorphisms,
    compose_source,
    compose_target,
    diagonal_stabilizer,
    emit_invariance_system,
    form_of,
    origin_move_residual,
    evaluate_invariance_system,
    full_unitary_test,
    group_closure,
    group_report,
    identity_map,
    inverse_automorphism,
    juxtapose_lambda,
    membership,
    pad_with_zeros,
    permutation_automorphism,
    permutation_stabilizer,
    polynomial_map,
    power_chain_check,
    realize_subgroup,
    source_rank_upper,
    strict_stabilizer,
    symmetric_group_map,
    tensor,
    tensor_power,
    torus_test,
    unitary_automorphism,
    whitney_map,
)
from ballmaps import invariance
from ballmaps.invariance import TorusSubgroup
from ballmaps.maps import CATALOG_NAMES, MapConstructionError

from conftest import S3_GENERATORS, random_center, random_diagonal_unitary, random_unitary

ETA = np.exp(2j * np.pi / 3)
CUBE_ROOTS_DIAG = np.diag([ETA, ETA**2])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------
def test_diagonal_torus_preserves_planar_whitney(rng):
    f = catalog("faran-2")
    res = membership(f, unitary_automorphism(random_diagonal_unitary(rng, 2)))
    assert res.member and res.c_gamma == pytest.approx(1.0)


def test_swap_fails_for_planar_whitney():
    assert not membership(catalog("faran-2"), unitary_automorphism(SWAP)).member


def test_identity_map_accepts_any_center(rng):
    f = identity_map(2)
    a = random_center(rng, 2)
    res = membership(f, BallAutomorphism(np.eye(2), a))
    assert res.member
    assert res.c_gamma == pytest.approx(1.0 - float(np.vdot(a, a).real))


def test_square_map_rejects_disc_move():
    f = polynomial_map([Polynomial.monomial((2,), 1.0)])
    assert not membership(f, BallAutomorphism(np.eye(1), [0.5])).member


def test_membership_is_group_predicate(rng):
    f = catalog("faran-4")
    members = [
        unitary_automorphism(random_diagonal_unitary(rng, 2)),
        unitary_automorphism(SWAP @ random_diagonal_unitary(rng, 2)),
    ]
    for g1 in members:
        for g2 in members:
            assert membership(f, compose_automorphisms(g1, g2)).member
        assert membership(f, inverse_automorphism(g1)).member


def test_membership_conjugation_covariance(rng):
    # moving f by phi relocates its group by conjugation
    f = catalog("faran-3")
    phi = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2, 0.4))
    g = compose_source(f, phi)
    probes = [
        unitary_automorphism(random_unitary(rng, 2)),
        BallAutomorphism(np.eye(2), random_center(rng, 2, 0.4)),
        unitary_automorphism(SWAP),
    ]
    for gamma in probes:
        conj = compose_automorphisms(
            compose_automorphisms(inverse_automorphism(phi), gamma), phi
        )
        assert membership(f, gamma).member == membership(g, conj).member


def test_membership_generalized_target_unitary_only():
    z = Polynomial.variable(1, 0)
    f = polynomial_map([z, z * z, z * z], l=1)
    assert membership(f, unitary_automorphism(np.eye(1))).member
    with pytest.raises(MapConstructionError):
        membership(f, BallAutomorphism(np.eye(1), [0.3]))


def test_unitary_that_flips_the_form_is_not_a_member():
    # |z1|^2 - |z2|^2 changes sign when z1 and z2 swap: the forms are
    # proportional, but a unitary member needs the constant 1
    z1, z2 = (Polynomial.variable(2, i) for i in range(2))
    f = polynomial_map([Polynomial.constant(2, 1.0), z1, z2], l=1)
    res = membership(f, permutation_automorphism([1, 0]))
    assert not res.member
    assert res.c_gamma == -1.0 and res.deviation == 0.0
    assert membership(f, permutation_automorphism([0, 1])).member


def test_stabilizers_unchanged_by_zero_padding():
    for name in ("faran-2", "faran-4"):
        f = catalog(name)
        g = pad_with_zeros(f, 2)
        assert diagonal_stabilizer(f).to_dict() == diagonal_stabilizer(g).to_dict()
        assert permutation_stabilizer(f) == permutation_stabilizer(g)
        assert torus_test(f).is_torus_invariant == torus_test(g).is_torus_invariant
        assert (
            full_unitary_test(f).is_unitary_invariant
            == full_unitary_test(g).is_unitary_invariant
        )
        assert block_partition(f).blocks == block_partition(g).blocks


# ---------------------------------------------------------------------------
# diagonal and permutation stabilizers
# ---------------------------------------------------------------------------
def test_diagonal_stabilizer_full_torus_for_monomial_cubic():
    d = diagonal_stabilizer(catalog("faran-4"))
    assert d.is_full_torus


def test_diagonal_stabilizer_trivial_fixtures():
    for name in ("corollary-6-2", "example-7-2"):
        assert diagonal_stabilizer(catalog(name)).is_trivial, name


def _reference_diagonal_stabilizer(f):
    """The per-entry loop over the form's support that the lattice rows came from."""
    rows = []
    for a, b, _ in form_of(f).entries():
        diff = tuple(x - y for x, y in zip(a, b))
        if any(diff):
            rows.append(diff)
    return TorusSubgroup.from_rows(rows, f.n)


@pytest.mark.parametrize(
    "case",
    [pytest.param(name, id=name) for name in CATALOG_NAMES]
    + [pytest.param(gens, id=f"s3-{name}") for name, gens in S3_GENERATORS.items()],
)
def test_diagonal_stabilizer_matches_entry_loop(case):
    f = catalog(case) if isinstance(case, str) else realize_subgroup(case, 3)
    assert diagonal_stabilizer(f) == _reference_diagonal_stabilizer(f)


def test_permutation_stabilizer_fixtures():
    assert permutation_stabilizer(catalog("faran-4")) == [(0, 1), (1, 0)]
    assert permutation_stabilizer(catalog("faran-2")) == [(0, 1)]


def test_permutation_stabilizer_matches_membership(rng):
    f = catalog("example-3-1")
    perms = permutation_stabilizer(f)
    import itertools

    for perm in itertools.permutations(range(3)):
        expected = membership(f, permutation_automorphism(perm)).member
        assert (perm in perms) == expected


def test_permutation_cap():
    with pytest.raises(CapabilityError):
        permutation_stabilizer(identity_map(9))


# ---------------------------------------------------------------------------
# torus and full-unitary detection
# ---------------------------------------------------------------------------
def test_torus_test_on_monomial_map():
    res = torus_test(catalog("faran-2"))
    assert res.is_torus_invariant
    weights = {alpha: w for w, alpha in res.monomials}
    assert weights == {(1, 0): pytest.approx(1.0), (1, 1): pytest.approx(1.0), (0, 2): pytest.approx(1.0)}


def test_torus_test_rejects_twisted_map():
    assert not torus_test(catalog("example-7-2")).is_torus_invariant


def test_torus_test_monomial_data_for_cubic():
    res = torus_test(catalog("faran-4"))
    weights = {alpha: w for w, alpha in res.monomials}
    assert weights[(1, 1)] == pytest.approx(math.sqrt(3.0))
    assert weights[(3, 0)] == pytest.approx(1.0)
    assert weights[(0, 3)] == pytest.approx(1.0)


def test_torus_true_for_all_monomial_catalog_maps():
    monomial_names = [n for n in CATALOG_NAMES if n not in ("example-7-2", "corollary-6-2")]
    for name in monomial_names:
        assert torus_test(catalog(name)).is_torus_invariant, name
    for name in ("example-7-2", "corollary-6-2"):
        assert not torus_test(catalog(name)).is_torus_invariant


def test_full_unitary_fixtures():
    res = full_unitary_test(catalog("faran-3"))
    assert res.is_unitary_invariant
    assert res.powers == ((pytest.approx(1.0), 2),)
    assert not full_unitary_test(whitney_map(3)).is_unitary_invariant
    # (sqrt2/2)(z (+) z^(x)2)
    lam = [math.sqrt(2.0) / 2.0] * 2
    remark = juxtapose_lambda([tensor_power(2, 1), tensor_power(2, 2)], lam)
    res = full_unitary_test(remark)
    assert res.is_unitary_invariant
    assert [(pytest.approx(math.sqrt(0.5)), m) for _, m in res.powers] == list(res.powers)
    assert [m for _, m in res.powers] == [1, 2]


def test_full_unitary_exact_catalog_split():
    expected_true = {"faran-1", "faran-3"}
    for name in CATALOG_NAMES:
        res = full_unitary_test(catalog(name))
        assert res.is_unitary_invariant == (name in expected_true), name
    assert full_unitary_test(tensor_power(3, 4)).is_unitary_invariant


def test_full_unitary_recenters_maps_missing_the_origin():
    # 0.6 (+) 0.8 z^(x)2 is unitary-invariant but sends 0 to (0.6, 0, 0, 0);
    # the detector recenters with a target automorphism before testing
    f = juxtapose_lambda([tensor_power(2, 0), tensor_power(2, 2)], [0.6, 0.8])
    res = full_unitary_test(f)
    assert res.is_unitary_invariant
    assert [m for _, m in res.powers] == [2]
    # a conjugated group is not detected: phi_a (x) phi_a has a conjugate of
    # the unitary group, not the unitary group itself
    g = tensor(
        BallAutomorphism(np.eye(2), [0.4, 0.1]).as_rational_map(),
        BallAutomorphism(np.eye(2), [0.4, 0.1]).as_rational_map(),
    )
    assert not full_unitary_test(g).is_unitary_invariant


@pytest.mark.parametrize("n", [3, 4, 5, 6, None])
def test_full_unitary_rescale_equals_target_recentering(n):
    # recentering by psi_b, b = f(0), only divides the form by 1 - |b|^2
    if n is None:
        f = juxtapose_lambda([tensor_power(2, 0), tensor_power(2, 2)], [0.6, 0.8])
    else:
        f = symmetric_group_map(n)
    b = f.value_at([0.0] * f.n)
    g = compose_target(f, BallAutomorphism(np.eye(f.target_dim), b))
    hg = form_of(g)
    hf = form_of(f).scale(1.0 / (1.0 - float(np.vdot(b, b).real)))
    assert hg.max_entry_diff(hf) <= 1e-14 * max(1.0, hg.max_abs())
    res_f, res_g = full_unitary_test(f), full_unitary_test(g)
    assert res_f.is_unitary_invariant == res_g.is_unitary_invariant
    if res_f.powers is not None:
        assert [m for _, m in res_f.powers] == [m for _, m in res_g.powers]
        weights_g = [w for w, _ in res_g.powers]
        assert [w for w, _ in res_f.powers] == pytest.approx(weights_g, abs=1e-12)


# ---------------------------------------------------------------------------
# blocks, source rank, power chains
# ---------------------------------------------------------------------------
def test_block_partition_fixtures():
    assert block_partition(catalog("example-3-1")).blocks == ((0, 1), (2,))
    assert block_partition(catalog("faran-3")).blocks == ((0, 1),)
    assert block_partition(catalog("example-7-2")).blocks == ((0,), (1,))
    assert block_partition(catalog("example-7-4-f")).blocks == ((0, 1), (2,))
    assert block_partition(catalog("example-7-4-g")).blocks == ((0,), (1,), (2,))


def test_source_rank_upper_fixtures():
    assert source_rank_upper(catalog("example-3-1")) == 2
    for n in (2, 3, 4):
        assert source_rank_upper(tensor_power(n, 3)) == 1
        assert source_rank_upper(whitney_map(n)) == 2
    assert source_rank_upper(catalog("example-7-4-g")) == 3


def test_power_chain_fixtures():
    assert power_chain_check(whitney_map(3)) == set()
    assert power_chain_check(identity_map(3)) == {0, 1, 2}
    assert power_chain_check(catalog("faran-4")) == set()


def test_power_chain_rejects_rational():
    f = BallAutomorphism(np.eye(1), [0.5]).as_rational_map()
    with pytest.raises(MapConstructionError):
        power_chain_check(f)


def test_empty_power_chain_excludes_origin_moves(rng):
    # necessary-condition consistency: no origin-moving member when the
    # power chain is empty (polynomial, degree >= 2, fixing the origin)
    for f in (whitney_map(2), catalog("faran-4"), catalog("example-7-2")):
        assert power_chain_check(f) == set()
        for _ in range(3):
            gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2, 0.5))
            assert not membership(f, gamma).member


# ---------------------------------------------------------------------------
# origin-moving residual
# ---------------------------------------------------------------------------
def test_origin_move_residual_zero_for_linear_embedding(rng):
    f = pad_with_zeros(identity_map(2), 3)
    for _ in range(5):
        gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
        assert origin_move_residual(f, gamma) <= 1e-10


def test_origin_move_residual_nonzero_for_quadratic():
    # frozen: (15/16)^2 - (3/4)^4 = 144/256
    val = origin_move_residual(catalog("faran-3"), BallAutomorphism(np.eye(2), [0.5, 0.0]))
    assert val == pytest.approx(0.5625, abs=1e-12)
    assert val >= 1e-3


def test_origin_move_residual_zero_for_identity_map(rng):
    f = identity_map(2)
    gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2))
    assert origin_move_residual(f, gamma) <= 1e-12


def test_origin_move_residual_requires_origin_fixed():
    f = BallAutomorphism(np.eye(1), [0.5]).as_rational_map()
    with pytest.raises(MapConstructionError):
        origin_move_residual(f, BallAutomorphism(np.eye(1), [0.2]))


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------
def test_group_closure_cyclic_three():
    assert len(group_closure([CUBE_ROOTS_DIAG])) == 3


def test_group_closure_swap():
    assert len(group_closure([SWAP.astype(complex)])) == 2


def test_group_closure_cap_exceeded():
    with pytest.raises(GroupClosureError):
        group_closure([np.diag([np.exp(1j)])], cap=1000)


def test_group_closure_symmetric_group():
    gens = [
        permutation_automorphism((1, 2, 0)).U.astype(complex),
        permutation_automorphism((1, 0, 2)).U.astype(complex),
    ]
    assert len(group_closure(gens)) == 6


# ---------------------------------------------------------------------------
# strict stabilizer
# ---------------------------------------------------------------------------
def test_strict_stabilizer_of_quadratic_power():
    s = strict_stabilizer(catalog("faran-3"))
    assert s.diagonal.order == 2
    mats = s.diagonal.element_matrices()
    assert any(np.allclose(m, -np.eye(2)) for m in mats)
    assert s.permutations == ((0, 1),)


def test_strict_stabilizer_of_cubic():
    s = strict_stabilizer(catalog("faran-4"))
    assert s.diagonal.order == 3
    mats = s.diagonal.element_matrices()
    assert any(np.allclose(m, CUBE_ROOTS_DIAG) for m in mats)
    assert any(np.allclose(m, CUBE_ROOTS_DIAG @ CUBE_ROOTS_DIAG) for m in mats)


def test_strict_stabilizer_trivial_for_planar_whitney():
    s = strict_stabilizer(catalog("faran-2"))
    assert s.diagonal.is_trivial
    assert s.permutations == ((0, 1),)


def test_strict_stabilizer_skips_permutations_above_the_cap():
    s = strict_stabilizer(identity_map(9))
    assert s.permutations is None
    assert s.diagonal.is_trivial


def test_strict_stabilizer_tensor_power_is_cyclic():
    s = strict_stabilizer(tensor_power(2, 4))
    assert s.diagonal.order == 4


# ---------------------------------------------------------------------------
# group report
# ---------------------------------------------------------------------------
def test_group_report_well_formed():
    rep = group_report(catalog("faran-4"))
    data = rep.to_dict()
    assert data["torus_invariant"] is True
    assert data["full_unitary_invariant"] is False
    assert data["origin_moving_excluded"] is True
    assert data["source_rank_upper"] == 2
    assert [list(p) for p in ([0, 1], [1, 0])] == data["permutation_stabilizer"]


# ---------------------------------------------------------------------------
# invariance equation system
# ---------------------------------------------------------------------------
def test_system_refuses_nine_variables_before_building(monkeypatch):
    # the determinant constraint alone would have 10! = 3,628,800 terms
    def unreachable(f):
        raise AssertionError("the system was built past the cap")

    monkeypatch.setattr(invariance, "form_of", unreachable)
    with pytest.raises(CapabilityError):
        emit_invariance_system(identity_map(9))


def test_system_unknown_count_for_disc_identity():
    doc = emit_invariance_system(identity_map(1))
    assert doc["unknowns"]["shape"] == [2, 2]
    assert len(doc["equations"]) >= 1


def test_system_satisfied_by_members(rng):
    f = identity_map(1)
    doc = emit_invariance_system(f)
    for theta in (0.0, 0.7, 2.1):
        M = np.diag([np.exp(1j * theta), 1.0])
        assert evaluate_invariance_system(doc, M) <= 1e-9
    gamma = BallAutomorphism(np.eye(1), [0.5])
    assert evaluate_invariance_system(doc, gamma.projective_matrix()) <= 1e-9
    g2 = BallAutomorphism(random_unitary(rng, 1), random_center(rng, 1))
    assert evaluate_invariance_system(doc, g2.projective_matrix()) <= 1e-9


def test_system_excludes_swap_for_planar_whitney():
    doc = emit_invariance_system(catalog("faran-2"))
    swap3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert evaluate_invariance_system(doc, swap3) > 1e-3
    assert evaluate_invariance_system(doc, np.eye(3)) <= 1e-12


def test_system_identity_always_satisfies():
    for name in ("faran-3", "example-7-2", "corollary-6-2"):
        f = catalog(name)
        doc = emit_invariance_system(f)
        assert evaluate_invariance_system(doc, np.eye(f.n + 1)) <= 1e-9, name


def test_system_members_of_cubic():
    f = catalog("faran-4")
    doc = emit_invariance_system(f)
    emb = np.zeros((3, 3), dtype=complex)
    emb[:2, :2] = CUBE_ROOTS_DIAG.T
    emb[2, 2] = 1.0
    assert evaluate_invariance_system(doc, emb) <= 1e-9
    swap3 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    assert evaluate_invariance_system(doc, swap3) <= 1e-9
    # a generic unitary is excluded
    theta = 0.3
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    assert evaluate_invariance_system(doc, rot) > 1e-3


def _embedded(U):
    M = np.eye(U.shape[0] + 1, dtype=complex)
    M[:-1, :-1] = U
    return M


def test_system_for_map_missing_the_origin(rng):
    # 0.6 (+) 0.8 z^(x)2 sends 0 to (0.6, 0, 0, 0): the constant comes from
    # the origin-row coefficient h00 = 0.36 - 1, not from h00 = -1
    f = juxtapose_lambda([tensor_power(2, 0), tensor_power(2, 2)], [0.6, 0.8])
    doc = emit_invariance_system(f)
    assert evaluate_invariance_system(doc, np.eye(3)) <= 1e-9
    assert evaluate_invariance_system(doc, _embedded(random_unitary(rng, 2))) <= 1e-9


def test_system_of_symmetric_group_map_keeps_every_permutation():
    doc = emit_invariance_system(symmetric_group_map(3))
    assert len(doc["equations"]) == 209  # the origin-row equation cancels exactly
    for perm in itertools.permutations(range(3)):
        P = np.eye(3, dtype=complex)[list(perm)]
        assert evaluate_invariance_system(doc, _embedded(P)) <= 1e-9, perm


def test_system_rejects_form_vanishing_at_the_origin_row():
    with pytest.raises(MapConstructionError):
        emit_invariance_system(tensor_power(2, 0))


def test_metric_constraints_present():
    doc = emit_invariance_system(identity_map(1))
    assert doc["metric_constraints"]
    assert doc["determinant_constraint"]["terms"]


def test_constant_padding_preserves_the_group(rng):
    # lambda_1 (+) lambda_2 h has the same invariance group as h
    h = catalog("faran-2")
    f = juxtapose_lambda([tensor_power(2, 0), h], [0.6, 0.8])
    probes = [
        unitary_automorphism(random_diagonal_unitary(rng, 2)),
        unitary_automorphism(SWAP),
        unitary_automorphism(random_unitary(rng, 2)),
        BallAutomorphism(np.eye(2), random_center(rng, 2, 0.4)),
    ]
    for gamma in probes:
        assert membership(f, gamma).member == membership(h, gamma).member


def test_whitney_sequence_stabilizer_is_diagonal_only():
    for k in (1, 2, 3):
        f = catalog(f"whitney-seq-{k}")
        assert permutation_stabilizer(f) == [(0, 1)]
        d = diagonal_stabilizer(f)
        assert d.is_full_torus
