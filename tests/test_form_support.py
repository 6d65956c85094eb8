"""A Hermitian form holds its own support.

Every form is held with each entry 0 < |h_ab| <= TAU_ZERO max(1, d_a d_b)
zeroed, d the Jacobi scale of ``signature`` (d_a = sqrt(max_b |h_ab|)), and
every reader takes the held nonzeros as the support.  The property below
checks the rule on Hermitian matrices whose rows are scaled from 1e-8 to
1e8 and carry rounding-level noise: each held nonzero is above its cut and
each zeroed entry at or below it, holding a held matrix again changes no
bit, and where every d_a >= 1 the held form's signature is the inertia of
the raw Jacobi-scaled matrix.  Two factorizations of one positive form,
which differ in their rounding noise, give the same diagonal lattice, and
the A_4 subgroup of S_4 is certified.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ballmaps import (
    HermitianForm,
    certify_realization,
    close_permutation_group,
    diagonal_stabilizer,
    factor_form,
    gram_form,
    realize_subgroup,
    signature,
    symmetric_group_map_v2,
)
from ballmaps.hermitian import TAU_SIG, _jacobi_scale
from ballmaps.maps import polynomial_map_of_rows, pruned_rows
from ballmaps.polynomials import TAU_ZERO, grlex_monomials

BASIS = grlex_monomials(2, 3)


@st.composite
def noisy_scaled_forms(draw):
    """(raw, cut): a Hermitian matrix S M S with row scales 10^u, u drawn from
    [-8, 8] or [0, 8], |M_ab| in [1, 2] on a random support, plus noise of
    1e-16 d_a d_b at every entry; and TAU_ZERO max(1, d_a d_b) of the raw
    matrix as the constructor symmetrizes it."""
    size = draw(st.integers(1, len(BASIS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.sampled_from([-8.0, 0.0]))
    phases = np.exp(2j * np.pi * rng.random((size, size))) if draw(st.booleans()) else 1.0
    M = rng.uniform(1.0, 2.0, (size, size)) * rng.choice([-1.0, 1.0], (size, size)) * phases
    M *= rng.random((size, size)) < draw(st.floats(0.2, 1.0))
    M = M + M.conj().T
    s = 10.0 ** rng.uniform(low, 8.0, size)
    H = s[:, None] * M * s
    d = _jacobi_scale(H)
    noise = rng.uniform(-1.0, 1.0, (size, size)) * (1e-16 * d[:, None] * d)
    raw = H + noise + noise.T
    raw = 0.5 * (raw + raw.conj().T)
    d = _jacobi_scale(raw)
    return raw, TAU_ZERO * np.maximum(1.0, np.outer(d, d))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(noisy_scaled_forms())
def test_the_hold_zeroes_exactly_the_entries_at_or_below_their_cut(case):
    raw, cut = case
    h = HermitianForm(2, BASIS[: len(raw)], raw)
    kept = h.mat != 0
    assert np.array_equal(h.mat[kept], raw[kept])
    assert (np.abs(raw[kept]) > cut[kept]).all()
    assert (np.abs(raw[~kept]) <= cut[~kept]).all()
    # a real multiple by 1 holds the held matrix again
    again = h.scale(1.0)
    assert again.mat.dtype == h.mat.dtype and again.mat.tobytes() == h.mat.tobytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(noisy_scaled_forms())
def test_the_hold_keeps_the_inertia_of_the_raw_scaled_matrix(case):
    raw, _ = case
    d = _jacobi_scale(raw)
    assume((d >= 1.0).all())
    eigs = np.linalg.eigvalsh(raw / np.outer(d, d))
    scale = np.abs(eigs).max()
    # every dropped entry is at most TAU_ZERO in the scaled matrix, so an
    # eigenvalue moves by at most size * TAU_ZERO; none may sit that close to the cut
    assume((np.abs(np.abs(eigs) - TAU_SIG * scale) > 10 * len(raw) * TAU_ZERO).all())
    keep = np.abs(eigs) > TAU_SIG * scale
    inertia = (int((eigs[keep] > 0).sum()), int((eigs[keep] < 0).sum()), int((~keep).sum()))
    sig = signature(HermitianForm(2, BASIS[: len(raw)], raw))
    assert (sig.positive, sig.negative, sig.zero) == inertia


@pytest.mark.parametrize(
    "build",
    [lambda: symmetric_group_map_v2(3), lambda: realize_subgroup([(1, 0, 2)], 3)],
    ids=["symmetric-v2-3", "s3-transposition-12"],
)
def test_two_factorizations_of_one_form_list_the_same_lattice(build):
    # the two maps' forms agree to about 4e-15 of their largest entry, and
    # differ only in where their Gram products leave rounding noise
    f = build()
    factored = factor_form(gram_form(f.n, f.monos, f.coeffs[:-1]))
    g = polynomial_map_of_rows(f.n, *pruned_rows(factored.monos, factored.positives))
    assert diagonal_stabilizer(f).rows == diagonal_stabilizer(g).rows


def test_a4_in_s4_is_certified():
    # its form has 1.95 M stored Gram products, 52,442 of them above their cut
    generators = [(1, 2, 0, 3), (1, 0, 3, 2)]
    f = realize_subgroup(generators, 4)
    group = close_permutation_group(generators, 4)
    cert = certify_realization(f, group, seed=4)
    assert len(group) == 12 and cert.certified
    assert cert.proper.residual <= 1e-4 * cert.proper.tolerance
