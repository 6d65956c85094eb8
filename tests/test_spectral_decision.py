"""One spectral decision, in the form's own dtype.

A Hermitian form H = V diag(lambda) V^H over a small graded-lex basis, V a
random orthogonal or unitary matrix and each lambda of random sign with
|lambda| from 1 down to 1e-6, has the inertia of lambda.  ``signature``
reads it exactly, and ``factor_form`` splits H into that many positive and
negative rows, in H's dtype, whose Gram form gives H back.  A complex form
is factored by one complex ``eigh`` of its Jacobi-scaled matrix, bit for bit.

A direct sum of such blocks, under a permutation of the basis and beside
empty rows, has the inertia of all its lambda; both read it off the same
block spectra, and the rows are those of one ``eigh`` per block, bit for bit.
The cut is against the largest lambda of all blocks, not of each block.  No
other code of the package calls ``eigh`` or ``eigvalsh``.
"""

import ast
import pathlib

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from ballmaps import HermitianForm, factor_form, signature
from ballmaps.hermitian import TAU_SIG, _jacobi_scale, _support_blocks
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


def _planted_block(rng, size, unitary):
    """V diag(lambda) V^H with |lambda| log-uniform in [1e-6, 1], random signs."""
    g = rng.standard_normal((size, size))
    if unitary:
        g = g + 1j * rng.standard_normal((size, size))
    V, _ = np.linalg.qr(g)
    lam = 10.0 ** -rng.uniform(0.0, 6.0, size) * rng.choice([-1.0, 1.0], size)
    return (V * lam) @ V.conj().T, lam


@st.composite
def block_sum_forms(draw):
    """(h, p, n, empty): the direct sum of 1 to 8 planted blocks of sizes 1 to 4,
    real or complex, placed on randomly permuted rows of a graded-lex basis
    that also holds 0 to 4 empty rows; p and n count the planted signs."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    empty = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unitary = draw(st.booleans())
    total = sum(sizes) + empty
    rows = rng.permutation(total)
    mat = np.zeros((total, total), dtype=complex if unitary else float)
    lams, start = [], 0
    for size in sizes:
        block, lam = _planted_block(rng, size, unitary)
        at = rows[start : start + size]
        mat[np.ix_(at, at)] = block
        lams.append(lam)
        start += size
    lam = np.concatenate(lams)
    h = HermitianForm(2, grlex_monomials(2, 7)[:total], mat)
    return h, int((lam > 0).sum()), int((lam < 0).sum()), empty


def _factor_per_block(h, tol_sig=TAU_SIG):
    """(positive rows, negative rows) from one ``eigh`` per support block, cut
    against the largest |lambda| of all blocks: the factorization as it was
    computed before the blocks of a size were stacked."""
    support = h.mat != 0
    labels, d = _support_blocks(support), _jacobi_scale(h.mat)
    blocks = [np.flatnonzero(labels == label) for label in np.unique(labels[support.any(axis=1)])]
    spectra = [np.linalg.eigh(h.mat[np.ix_(i, i)] / np.outer(d[i], d[i])) for i in blocks]
    scale = max((np.max(np.abs(eigvals)) for eigvals, _ in spectra), default=0.0)
    empty = np.zeros((0, h.size), dtype=h.mat.dtype)
    pos, neg = [empty], [empty]
    for idx, (eigvals, eigvecs) in zip(blocks, spectra):
        keep = np.abs(eigvals) > tol_sig * scale
        comps = np.zeros((np.count_nonzero(keep), h.size), dtype=h.mat.dtype)
        comps[:, idx] = (d[idx, None] * eigvecs[:, keep] * np.sqrt(np.abs(eigvals[keep]))).T
        pos.append(comps[eigvals[keep] > 0])
        neg.append(comps[eigvals[keep] < 0])
    return np.vstack(pos), np.vstack(neg)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(block_sum_forms())
def test_block_sums_read_one_spectral_decision(case):
    h, p, n, empty = case
    sig = signature(h)
    assert (sig.positive, sig.negative, sig.zero) == (p, n, empty)

    factored = factor_form(h)
    assert (len(factored.positives), len(factored.negatives)) == (p, n)
    positives, negatives = _factor_per_block(h)
    assert factored.positives.dtype == positives.dtype == h.mat.dtype
    assert factored.positives.tobytes() == positives.tobytes()
    assert factored.negatives.tobytes() == negatives.tobytes()


def test_the_cut_is_against_the_largest_lambda_of_all_blocks():
    # the scaled blocks are J_4, with lambda 4, 0, 0, 0, and [[1, 1 - t], [1 - t, 1]]
    # with t = 2e-8: t is above TAU_SIG times its own block's 2 - t but not
    # times the 4 of J_4, so it is dropped, and with it one component
    t = 2e-8
    mat = np.zeros((6, 6))
    mat[:4, :4] = 1.0
    mat[4:, 4:] = [[1.0, 1.0 - t], [1.0 - t, 1.0]]
    h = HermitianForm(2, grlex_monomials(2, 2), mat)
    sig = signature(h)
    assert (sig.positive, sig.negative, sig.zero) == (2, 0, 4)
    assert abs(sig.dropped - t / 4) <= 1e-15
    factored = factor_form(h)
    assert (len(factored.positives), len(factored.negatives)) == (2, 0)
    assert factored.positives.tobytes() == _factor_per_block(h)[0].tobytes()


PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ballmaps"


def test_eigensolvers_are_called_only_by_the_block_spectra_and_the_padding():
    """The SVDs of ``image_rank`` and ``Subspace`` are separate oracles."""
    callers = set()
    for path in PACKAGE.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        if node.func.attr in ("eigh", "eigvalsh"):
                            callers.add((path.stem, func.name))
    assert callers == {("hermitian", "_block_spectra"), ("realize", "_padding")}
