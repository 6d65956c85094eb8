"""Realization constructions: factorization, padding, prescribed groups."""

import math
import warnings

import numpy as np
import pytest

from ballmaps import (
    TAU_SIG,
    MapConstructionError,
    catalog,
    close_permutation_group,
    diagonal_stabilizer,
    factor_form,
    form_of,
    gram_form,
    hermitian_rank,
    image_rank,
    is_proper,
    membership,
    norm_power_form,
    pad_to_proper,
    padded_map,
    permutation_stabilizer,
    polynomial_map,
    power_chain_check,
    realize_from_invariants,
    realize_subgroup,
    signature,
    sphere_form,
    sphere_sample_check,
    strict_stabilizer,
    symmetric_group_map,
    symmetric_group_map_v2,
    unitary_automorphism,
)

from conftest import Poly, S3_GENERATORS, gram_of

ETA = np.exp(2j * np.pi / 3)
CUBE_ROOTS_DIAG = np.diag([ETA, ETA**2])


# ---------------------------------------------------------------------------
# factor_form
# ---------------------------------------------------------------------------
def test_factor_sphere_form():
    res = factor_form(sphere_form(2))
    assert len(res.positives) == 2 and len(res.negatives) == 1
    assert res.reconstruct(2).max_entry_diff(sphere_form(2)) < 1e-12


def test_factor_positive_semidefinite_form():
    # 2|z|^2 + |z|^4 factors into holomorphic squares with no negative part
    h = norm_power_form(2, 1).scale(2.0) + norm_power_form(2, 2)
    res = factor_form(h)
    assert not len(res.negatives)
    assert gram_form(h.nvars, res.monos, res.positives).max_entry_diff(h) < 1e-10


def test_factor_cubic_form_signature_split():
    res = factor_form(form_of(catalog("faran-4")))
    assert len(res.positives) == 3 and len(res.negatives) == 1


def test_factor_reconstruction_random(rng):
    for _ in range(4):
        polys = [
            Poly(2, {tuple(rng.integers(0, 3, 2)): complex(*rng.standard_normal(2))})
            for _ in range(3)
        ]
        h = gram_of(polys, [1.0, 1.0, -1.0])
        res = factor_form(h)
        assert res.reconstruct(2).max_entry_diff(h) < 1e-10 * max(1.0, h.max_abs())


# ---------------------------------------------------------------------------
# pad_to_proper
# ---------------------------------------------------------------------------
def test_pad_pair_monomial_with_forced_epsilon():
    # (2/3)|z1 z2|^2 + (1/3)(1 + |z|^2 + |z1|^4 + |z2|^4) = (1/3)(1 + |z|^2 + |z|^4)
    p = [Poly.monomial((1, 1))]
    pad = pad_to_proper(p, epsilon=math.sqrt(2.0 / 3.0))
    assert pad.powers == (0, 1, 2)
    assert all(lam == pytest.approx(1.0 / math.sqrt(3.0)) for lam in pad.lambdas)
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    expected = gram_of(
        [Poly.constant(2, 1.0), z1, z2, z1 * z1, z2 * z2]
    ).scale(1.0 / 3.0)
    assert gram_of(list(pad.components)).max_entry_diff(expected) < 1e-10
    assert pad == pad_to_proper(p, epsilon=math.sqrt(2.0 / 3.0))
    assert pad != pad_to_proper(p, epsilon=0.5)
    mapped = padded_map(p, pad)
    assert is_proper(mapped).proper
    assert sphere_sample_check(mapped, 500, 1e-9, seed=7).passed


def test_pad_empty_map():
    pad = pad_to_proper([Poly.zero(2)])
    assert pad.powers == (0,)
    assert len(pad.components) == 1
    assert pad.components[0].degree == 0


def test_pad_map_whose_gram_form_is_below_the_zero_threshold():
    # |1e-8 z1|^2 has its one entry below TAU_ZERO, so the Gram form is empty
    p = [Poly(2, {(1, 0): 1e-8})]
    pad = pad_to_proper(p)
    assert pad.epsilon == 1.0
    assert is_proper(padded_map(p, pad)).proper


def test_pad_affine_map():
    p = [Poly(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0})]
    pad = pad_to_proper(p)
    mapped = padded_map(p, pad)
    assert is_proper(mapped).proper
    # reconstruction certificate
    lhs = gram_of([q.scale(pad.epsilon) for q in p] + list(pad.components))
    assert lhs.max_entry_diff(pad.target_form(2)) < 1e-9


def test_pad_reconstruction_identity_holds(rng):
    for _ in range(3):
        p = [
            Poly(2, {tuple(rng.integers(0, 3, 2)): complex(*rng.standard_normal(2))})
            for _ in range(2)
        ]
        pad = pad_to_proper(p)
        lhs = gram_of([q.scale(pad.epsilon) for q in p] + list(pad.components))
        assert lhs.max_entry_diff(pad.target_form(2)) < 1e-9 * max(1.0, lhs.max_abs())
        mapped = padded_map(p, pad)
        assert is_proper(mapped).proper
        assert sphere_sample_check(mapped, 500, 1e-9, seed=7).passed


def test_pad_omit_empty_degrees():
    p = [Poly.monomial((1, 1))]
    pad = pad_to_proper(p, omit_empty_degrees=True)
    assert pad.powers == (2,)
    mapped = padded_map(p, pad)
    assert is_proper(mapped).proper


def test_pad_rejects_oversized_epsilon():
    with pytest.raises(MapConstructionError):
        pad_to_proper([Poly.monomial((1, 1))], epsilon=10.0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_pad_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(MapConstructionError, match="not finite"):
        pad_to_proper([Poly.monomial((1, 1))], epsilon=epsilon)


def _affine(n):
    affine = Poly.constant(n, 1.0)
    for j in range(n):
        affine = affine + Poly.variable(n, j)
    return affine


def _pad_input(kind, n):
    """(p, omit_empty_degrees) as the realizations pad them: 1 + sum z_j, prod (1 + z_j),
    and a tau of realize_subgroup with the exponents (1..n) in place of (0..n-1) (at
    n = 2 those would make tau affine): the monomial z^(1..n) averaged over the cyclic
    group of the n-cycle, plus 1."""
    one = Poly.constant(n, 1.0)
    if kind == "affine":
        return [_affine(n)], False
    if kind == "product":
        prod = one
        for j in range(n):
            prod = prod * (one + Poly.variable(n, j))
        return [prod], False
    tau = one
    for perm in close_permutation_group([[*range(1, n), 0]], n):
        tau = tau + Poly.monomial([perm.index(j) + 1 for j in range(n)], 1.0)
    return [tau], True


PAD_INPUTS = [(kind, n) for kind in ("affine", "product", "cyclic-tau") for n in (2, 3, 4)]


def _scaled_min_eig(target, b, e):
    """Smallest eigenvalue of D^-1/2 (R - e^2 b) D^-1/2, D the diagonal of the target R."""
    at = [target.basis.index(mono) for mono in b.basis]
    B = np.zeros_like(target.mat)
    B[np.ix_(at, at)] = b.mat
    s = 1.0 / np.sqrt(target.mat.diagonal().real)
    return np.linalg.eigvalsh(s[:, None] * (target.mat - e * e * B) * s)[0]


def _bisection_bracket(target, b):
    """Final [lo, hi] of a doubling-then-bisection search, to 1e-3 relative, for the
    largest e with R - e^2 b positive semidefinite up to a 1e-11 relative slack."""
    slack = 1e-11 * max(1.0, target.max_abs())

    def feasible(e):
        return np.min(np.linalg.eigvalsh((target - b.scale(e * e)).mat)) >= -slack

    lo, hi = 0.0, 1.0
    while feasible(hi) and hi <= 1e8:
        lo, hi = hi, 2.0 * hi
    while (hi - lo) > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo, hi


@pytest.mark.parametrize("kind,n", PAD_INPUTS)
def test_pad_epsilon_sup_is_the_psd_boundary(kind, n):
    p, omit = _pad_input(kind, n)
    pad = pad_to_proper(p, omit_empty_degrees=omit)
    target, b, eps_sup = pad.target_form(n), gram_of(p), 2.0 * pad.epsilon
    assert abs(_scaled_min_eig(target, b, eps_sup)) <= 1e-12
    assert _scaled_min_eig(target, b, 1.01 * eps_sup) < 0.0


@pytest.mark.parametrize("kind,n", PAD_INPUTS)
def test_pad_epsilon_sup_lies_in_the_bisection_bracket(kind, n):
    p, omit = _pad_input(kind, n)
    pad = pad_to_proper(p, omit_empty_degrees=omit)
    lo, hi = _bisection_bracket(pad.target_form(n), gram_of(p))
    assert lo <= 2.0 * pad.epsilon <= hi


@pytest.mark.parametrize("kind,n", PAD_INPUTS)
def test_pad_refuses_an_epsilon_just_past_the_supremum(kind, n):
    p, omit = _pad_input(kind, n)
    eps_sup = 2.0 * pad_to_proper(p, omit_empty_degrees=omit).epsilon
    with pytest.raises(MapConstructionError, match="too large"):
        pad_to_proper(p, epsilon=eps_sup * (1 + 1e-6), omit_empty_degrees=omit)


@pytest.mark.parametrize("kind,n", PAD_INPUTS)
def test_pad_accepts_an_epsilon_just_below_the_supremum(kind, n):
    p, omit = _pad_input(kind, n)
    eps_sup = 2.0 * pad_to_proper(p, omit_empty_degrees=omit).epsilon
    pad = pad_to_proper(p, epsilon=eps_sup * (1 - 1e-6), omit_empty_degrees=omit)
    assert is_proper(padded_map(p, pad)).proper


@pytest.mark.parametrize("n", range(1, 7))
def test_pad_affine_epsilon_is_exact(n):
    # B is all ones over (1, z_1, ..., z_n) and D = I / 2, so eps_sup^2 = 1 / (2 (n + 1))
    pad = pad_to_proper([_affine(n)])
    assert pad.epsilon == pytest.approx(1.0 / (2.0 * math.sqrt(2.0 * (n + 1))), rel=1e-12)


def test_pad_finds_epsilon_with_one_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    pad_to_proper([_affine(3)])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# permutation closure
# ---------------------------------------------------------------------------
def test_close_permutation_group_sizes():
    assert len(close_permutation_group([], 3)) == 1
    assert len(close_permutation_group([(1, 2, 0)], 3)) == 3
    assert len(close_permutation_group([(1, 2, 0), (1, 0, 2)], 3)) == 6


def test_close_permutation_group_rejects_non_permutation():
    with pytest.raises(MapConstructionError):
        close_permutation_group([(0, 0, 1)], 3)


# ---------------------------------------------------------------------------
# symmetric group maps
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [2, 3])
def test_symmetric_group_map(n):
    f = symmetric_group_map(n)
    assert f.degree == 3
    cert = is_proper(f)
    assert cert.proper and cert.residual <= 1e-8
    assert sphere_sample_check(f, 1000, 1e-9, seed=5).passed
    expected = close_permutation_group([tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))], n)
    assert sorted(permutation_stabilizer(f)) == expected
    assert diagonal_stabilizer(f).is_trivial
    assert power_chain_check(f) == set()


def test_symmetric_group_map_n1_is_trivial_fixture():
    f = symmetric_group_map(1)
    g = catalog("corollary-6-2")
    assert form_of(f).max_entry_diff(form_of(g)) < 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_symmetric_group_map_v2(n):
    f = symmetric_group_map_v2(n)
    cert = is_proper(f)
    assert cert.proper and cert.residual <= 1e-8
    assert sphere_sample_check(f, 500, 1e-9, seed=9).passed
    perms = permutation_stabilizer(f)
    assert len(perms) == math.factorial(n)
    assert diagonal_stabilizer(f).is_trivial


def test_symmetric_group_map_v2_three_variables():
    f = symmetric_group_map_v2(3)
    assert is_proper(f).proper
    assert len(permutation_stabilizer(f)) == 6


# ---------------------------------------------------------------------------
# subgroup realization
# ---------------------------------------------------------------------------
def test_realize_alternating_group():
    f = realize_subgroup([(1, 2, 0)], 3)
    assert is_proper(f).proper
    stab = permutation_stabilizer(f)
    assert sorted(stab) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    assert diagonal_stabilizer(f).is_trivial


def test_realize_trivial_subgroup_of_s2():
    f = realize_subgroup([], 2)
    assert is_proper(f).proper
    assert permutation_stabilizer(f) == [(0, 1)]
    assert diagonal_stabilizer(f).is_trivial


def test_realize_full_symmetric_delegates():
    f = realize_subgroup([(1, 2, 0), (1, 0, 2)], 3)
    g = symmetric_group_map(3)
    assert form_of(f).max_entry_diff(form_of(g)) < 1e-12


def test_realize_subgroup_members_have_unit_constant():
    f = realize_subgroup([(1, 0, 2)], 3)
    perm_mat = np.zeros((3, 3))
    perm_mat[0, 1] = perm_mat[1, 0] = perm_mat[2, 2] = 1.0
    res = membership(f, unitary_automorphism(perm_mat))
    assert res.member and res.c_gamma == pytest.approx(1.0)


#: Generators of every subgroup of S_2 and S_3.
SMALL_SUBGROUPS = {
    **{f"s3-{name}": (gens, 3) for name, gens in S3_GENERATORS.items()},
    "s2-trivial": ([], 2),
    "s2-full": ([(1, 0)], 2),
}


@pytest.mark.parametrize("name", SMALL_SUBGROUPS)
def test_realized_map_decides_its_ranks_far_from_the_threshold(name):
    generators, n = SMALL_SUBGROUPS[name]
    f = realize_subgroup(generators, n)
    assert signature(form_of(f)).margin >= 10 * TAU_SIG
    assert hermitian_rank(f) == image_rank(f, check=False) + 1
    # |f|^2 has one positive eigenvalue per independent component; a proper
    # subgroup's components come from a factorization, so they are independent
    positive = signature(gram_form(f.n, f.monos, f.coeffs[:-1]))
    rank = np.linalg.matrix_rank(f.coeffs[:-1])
    assert (positive.positive, positive.negative) == (rank, 0)
    assert positive.margin >= 10 * TAU_SIG
    if len(close_permutation_group(generators, n)) < math.factorial(n):
        assert rank == f.target_dim


#: Generators of C_4, of the normal Klein four-group and of the trivial
#: subgroup of S_4.
S4_SUBGROUPS = {
    "cyclic-4": [(1, 2, 3, 0)],
    "klein-4": [(1, 0, 3, 2), (2, 3, 0, 1)],
    "trivial": [],
}


@pytest.mark.parametrize("name", S4_SUBGROUPS)
def test_realize_subgroup_of_s4(name):
    generators = S4_SUBGROUPS[name]
    f = realize_subgroup(generators, 4)
    assert is_proper(f).proper
    assert sorted(permutation_stabilizer(f)) == close_permutation_group(generators, 4)
    assert diagonal_stabilizer(f).is_trivial
    assert sphere_sample_check(f, 1000, 1e-9, seed=4).passed


@pytest.mark.parametrize("name", ["cyclic-4", "klein-4"])
def test_s4_subgroup_ranks_agree_without_warning(name):
    f = realize_subgroup(S4_SUBGROUPS[name], 4)
    sig = signature(form_of(f))
    assert (sig.positive, sig.negative) == (1569, 1)
    assert sig.margin >= 10 * TAU_SIG and sig.dropped <= TAU_SIG / 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # image_rank compares itself with hermitian_rank and warns on a mismatch
        assert image_rank(f) + 1 == sig.rank


# ---------------------------------------------------------------------------
# realization from invariants
# ---------------------------------------------------------------------------
def test_realize_sign_flip_group_on_disc():
    zsq = Poly.monomial((2,))
    f = realize_from_invariants([zsq], [np.array([[-1.0 + 0j]])])
    assert is_proper(f).proper
    d = diagonal_stabilizer(f)
    assert d.order == 2
    assert sphere_sample_check(f, 500, 1e-9, seed=13).passed


def test_realize_cyclic_three_group():
    z1cubed = Poly.monomial((3, 0))
    z2cubed = Poly.monomial((0, 3))
    cross = Poly.monomial((1, 1))
    f = realize_from_invariants([z1cubed, z2cubed, cross], [CUBE_ROOTS_DIAG])
    assert is_proper(f).proper
    assert membership(f, unitary_automorphism(CUBE_ROOTS_DIAG)).member
    assert diagonal_stabilizer(f).order == 3


def test_realize_trivial_group_from_coordinates():
    invs = [Poly.variable(2, i) for i in range(2)]
    f = realize_from_invariants(invs, [])
    assert is_proper(f).proper
    assert diagonal_stabilizer(f).is_trivial


def test_realize_rejects_nonvanishing_invariants():
    bad = Poly.constant(1, 1.0) + Poly.variable(1, 0)
    with pytest.raises(MapConstructionError):
        realize_from_invariants([bad], [])


def test_strict_stabilizer_of_realized_sign_flip():
    # the output form has the order-2 lattice even though the map itself is
    # only Hermitian-invariant, not strictly invariant
    zsq = Poly.monomial((2,))
    f = realize_from_invariants([zsq], [np.array([[-1.0 + 0j]])])
    s = strict_stabilizer(f)
    assert s.diagonal.order in (1, 2)
    assert diagonal_stabilizer(f).order == 2


# ---------------------------------------------------------------------------
# pairwise-product block symmetry
# ---------------------------------------------------------------------------
def test_pairwise_product_block_admits_only_diag_perm_symmetries(rng):
    # |p o U|^2 = |p|^2 for p = (z_j z_k)_{j<k} holds for diagonal-times-
    # permutation unitaries and fails for generic rotations
    zs = [Poly.variable(3, i) for i in range(3)]
    p = polynomial_map([zs[j] * zs[k] for j in range(3) for k in range(j + 1, 3)])
    h = gram_of(list(p.numerator))
    from ballmaps import compose_source, permutation_automorphism

    for _ in range(5):
        diag = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 3)))
        perm = tuple(rng.permutation(3))
        u = diag @ permutation_automorphism(perm).U
        composed = compose_source(p, unitary_automorphism(u))
        assert gram_of(list(composed.numerator)).max_entry_diff(h) < 1e-10
    theta = 0.4
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    composed = compose_source(p, unitary_automorphism(rot))
    assert gram_of(list(composed.numerator)).max_entry_diff(h) > 1e-3
