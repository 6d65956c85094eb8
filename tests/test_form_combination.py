"""Sums, differences and comparisons of Hermitian forms in one array.

``HermitianForm.__add__``, ``__sub__`` and ``max_entry_diff`` place the first
form into one array over the union basis and combine the second in place.
The reference below is the two-array embedding the library used before:
both forms copied into a (2, B, B) pair, then ``a + b`` or ``a - b``.  Every
entry is the same IEEE operation either way, so the results are equal; only
the sign of a zero entry, which is outside every form's support, may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballmaps import HermitianForm
from ballmaps.polynomials import grlex_monomials, grlex_union


def _aligned(a, b):
    """Both forms embedded into one (2, B, B) pair over the union basis."""
    if a.nvars != b.nvars:
        raise ValueError("variable-count mismatch between forms")
    basis, positions = grlex_union(a.basis, b.basis)
    dtype = np.result_type(a.mat, b.mat)
    out = np.zeros((2, len(basis), len(basis)), dtype=dtype)
    for embedded, h, at in zip(out, (a, b), positions):
        embedded[np.ix_(at, at)] = h.mat
    return basis, out[0], out[1]


def _reference_combination(a, b, op):
    """The form holding ``op(x, y)`` (np.add or np.subtract) of the pair."""
    basis, x, y = _aligned(a, b)
    return HermitianForm._held(a.nvars, basis, op(x, y)).compressed()


def _reference_max_entry_diff(a, b):
    _, x, y = _aligned(a, b)
    return 0.0 if x.size == 0 else float(np.max(np.abs(x - y)))


#: entries that stress the hold: signed zeros, values at and near the support
#: cut TAU_ZERO = 1e-13, and ordinary magnitudes
ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-14, -1e-13, 1.5e-13, 2e-13, 3e-7, 1.0, -2.5]),
    st.floats(-10.0, 10.0),
)


@st.composite
def forms(draw, nvars, basis):
    size = len(basis)
    real = np.array(draw(st.lists(ENTRY, min_size=size * size, max_size=size * size)))
    mat = real.reshape(size, size)
    if draw(st.booleans()):
        imag = np.array(draw(st.lists(ENTRY, min_size=size * size, max_size=size * size)))
        mat = mat + 1j * imag.reshape(size, size)
    return HermitianForm(nvars, basis, mat)


@st.composite
def form_pairs(draw):
    """Two forms whose bases overlap, are disjoint or are nested."""
    nvars = draw(st.integers(1, 3))
    pool = draw(st.permutations(grlex_monomials(nvars, 2)))
    relation = draw(st.sampled_from(["overlap", "disjoint", "nested", "equal"]))
    cut = draw(st.integers(0, len(pool)))
    if relation == "disjoint":
        left, right = pool[:cut], pool[cut:]
    elif relation == "nested":
        left, right = pool, pool[:cut]
    elif relation == "equal":
        left, right = pool[:cut], pool[:cut]
    else:
        lo = draw(st.integers(0, cut))
        left, right = pool[:cut], pool[lo:]
    if draw(st.booleans()):
        left, right = right, left
    return draw(forms(nvars, left)), draw(forms(nvars, right))


def _assert_same_form(h, ref):
    assert h.basis == ref.basis
    assert h.mat.dtype == ref.mat.dtype
    assert np.array_equal(h.mat, ref.mat)


@settings(max_examples=200, deadline=None)
@given(form_pairs())
def test_sum_difference_and_comparison_match_the_two_array_reference(pair):
    a, b = pair
    _assert_same_form(a + b, _reference_combination(a, b, np.add))
    _assert_same_form(a - b, _reference_combination(a, b, np.subtract))
    assert a.max_entry_diff(b) == _reference_max_entry_diff(a, b)


@pytest.mark.parametrize(
    "combine",
    [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.max_entry_diff(b)],
    ids=["sum", "difference", "comparison"],
)
def test_a_variable_count_mismatch_is_refused(combine):
    with pytest.raises(ValueError, match="variable-count mismatch"):
        combine(HermitianForm.constant(2, 1.0), HermitianForm.constant(3, 1.0))
