"""One spectral decision, in the form's own dtype.

A Hermitian form H = V diag(lambda) V^H over a small graded-lex basis, V a
random orthogonal or unitary matrix and each lambda of random sign with
|lambda| from 1 down to 1e-6, has the inertia of lambda.  ``signature``
reads it exactly, and ``factor_form`` splits H into that many positive and
negative rows, in H's dtype, whose Gram form gives H back.  A complex form
is factored by one complex ``eigh`` of its Jacobi-scaled matrix, bit for bit.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ballmaps import HermitianForm, factor_form, signature
from ballmaps.hermitian import _jacobi_scale
from ballmaps.polynomials import grlex_monomials

BASIS = grlex_monomials(2, 3)


@st.composite
def spectral_forms(draw):
    """(h, p, n, unitary): the form of V diag(lambda) V^H over the first
    1 to 10 monomials of BASIS, with p positive and n negative lambda; the
    magnitudes are 1, 1e-6 and the rest log-uniform between them."""
    size = draw(st.integers(1, len(BASIS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitary = draw(st.booleans())
    g = rng.standard_normal((size, size))
    if unitary:
        g = g + 1j * rng.standard_normal((size, size))
    V, _ = np.linalg.qr(g)
    mags = 10.0 ** -rng.uniform(0.0, 6.0, size)
    mags[:2] = (1.0, 1e-6)[:size]
    lam = mags * rng.choice([-1.0, 1.0], size)
    h = HermitianForm(2, BASIS[:size], (V * lam) @ V.conj().T)
    return h, int((lam > 0).sum()), int((lam < 0).sum()), unitary


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spectral_forms())
def test_signature_and_factorization_read_the_exact_inertia(case):
    h, p, n, unitary = case
    sig = signature(h)
    assert (sig.positive, sig.negative, sig.zero) == (p, n, 0)

    factored = factor_form(h)
    assert (len(factored.positives), len(factored.negatives)) == (p, n)
    assert factored.positives.dtype == factored.negatives.dtype == h.mat.dtype
    if not unitary:
        assert h.mat.dtype == np.float64
    assert factored.reconstruct(h.nvars).max_entry_diff(h) <= 1e-9 * h.max_abs()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spectral_forms())
def test_a_complex_form_factors_as_one_complex_eigh(case):
    h = case[0]
    assume(np.iscomplexobj(h.mat))
    # the support of H is connected, so it is factored as one block
    d = _jacobi_scale(h.mat)
    eigvals, eigvecs = np.linalg.eigh(h.mat.astype(complex) / np.outer(d, d))
    rows = (d[:, None] * eigvecs * np.sqrt(np.abs(eigvals))).T
    factored = factor_form(h)
    assert factored.positives.tobytes() == rows[eigvals > 0].tobytes()
    assert factored.negatives.tobytes() == rows[eigvals < 0].tobytes()
