"""Real forms and maps stay real: one dtype rule.

``HermitianForm`` and ``RationalMap`` hold an array whose imaginary part is
exactly zero as contiguous float64, and any other as complex128.  Products,
sums, the sphere division, ``signature``, ``image_rank`` and ``gram_form``
follow the held dtype.  On a real form the decisions must equal those taken
on the same matrix held as complex: the division residual and quotient bit
for bit, the signature counts and the image rank exactly, the signature
margin (a ratio to the spectral norm) to 1e-12.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ballmaps import (
    CapabilityError,
    HermitianForm,
    Polynomial,
    RationalMap,
    catalog,
    form_of,
    image_rank,
    is_proper,
    norm_power_form,
    polynomial_map,
    quotient_by_sphere,
    realize_subgroup,
    signature,
    tensor,
)
from ballmaps import polynomials
from ballmaps.maps import CATALOG_NAMES, polynomial_map_of_rows
from ballmaps.polynomials import TAU_ZERO, grlex_monomials

from conftest import S3_GENERATORS


def _as_complex(h):
    """The form h with its matrix held as complex128, past the dtype rule."""
    c = object.__new__(HermitianForm)
    for name, value in zip(HermitianForm.__slots__, (h.nvars, h.basis, h.mat.astype(complex))):
        object.__setattr__(c, name, value)
    return c


def _map_as_complex(f):
    """The map f with its coefficient array held as complex128, past the rule."""
    c = object.__new__(RationalMap)
    values = (f.n, f.m, f.l, f.monos, f.coeffs.astype(complex), None)
    for name, value in zip(RationalMap.__slots__, values):
        object.__setattr__(c, name, value)
    return c


# ---------------------------------------------------------------------------
# the rule
# ---------------------------------------------------------------------------
def test_real_input_is_held_as_float64():
    h = HermitianForm(1, [(0,), (1,)], np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex))
    assert h.mat.dtype == np.float64 and h.mat.flags.c_contiguous and not h.mat.flags.writeable
    f = polynomial_map([Polynomial(2, {(1, 0): 1.0, (0, 1): 0.5 + 0j})])
    assert f.coeffs.dtype == np.float64 and f.coeffs.flags.c_contiguous
    assert form_of(f).mat.dtype == np.float64
    for name in CATALOG_NAMES:
        assert catalog(name).coeffs.dtype == np.float64
    assert realize_subgroup(S3_GENERATORS["alternating"], 3).coeffs.dtype == np.float64


def test_a_subnormal_imaginary_part_stays_complex():
    tiny = 5e-324
    h = HermitianForm(1, [(0,), (1,)], np.array([[1.0, 1 + tiny * 1j], [1 - tiny * 1j, 1.0]]))
    assert h.mat.dtype == np.complex128 and h.mat[0, 1].imag == tiny
    f = polynomial_map([Polynomial(1, {(1,): 1.0 + tiny * 1j})])
    assert f.coeffs.dtype == np.complex128 and f.coeffs[0, 1].imag == tiny


def test_sums_and_products_of_real_forms_stay_real():
    a, b = form_of(catalog("faran-2")), norm_power_form(2, 2)
    for h in (a + b, a - b, a * b, a.scale(-0.5), a.compressed(), quotient_by_sphere(a).quotient):
        assert h.mat.dtype == np.float64
    f = tensor(catalog("faran-3"), catalog("whitney-seq-1"))
    assert f.coeffs.dtype == np.float64 and form_of(f).mat.dtype == np.float64


def test_a_real_plus_a_complex_form_is_complex():
    real = form_of(catalog("faran-2"))
    z = Polynomial(2, {(1, 0): 1.0, (0, 1): 1j})
    cplx = form_of(polynomial_map([z]))
    assert cplx.mat.dtype == np.complex128
    for h in (real + cplx, cplx - real, real * cplx):
        assert h.mat.dtype == np.complex128


def _complex_entries(h):
    """The entries ``to_dict`` writes, read off the matrix held as complex."""
    mat = h.mat.astype(complex)
    rows, cols = np.nonzero(np.triu(np.abs(mat) > TAU_ZERO))
    return [
        {"alpha": list(h.basis[i]), "beta": list(h.basis[j]), "re": c.real, "im": c.imag}
        for i, j, c in zip(rows.tolist(), cols.tolist(), mat[rows, cols].tolist())
    ]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_to_dict_writes_the_bytes_of_the_complex_array(name):
    f = catalog(name)
    for h in (form_of(f), is_proper(f).quotient):
        text = json.dumps(h.to_dict()["entries"])
        assert text == json.dumps(_complex_entries(h))
        assert '"im": -0.0' not in text and '"im": 0.0' in text
    doc = f.to_dict()
    terms = [t for p in doc["numerator"] + [doc["denominator"]] for t in p["terms"]]
    assert all(math.copysign(1.0, t["im"]) == 1.0 and t["im"] == 0.0 for t in terms)
    assert json.dumps(doc) == json.dumps(_map_as_complex(f).to_dict())


# ---------------------------------------------------------------------------
# decisions on real forms equal those on the complex-held matrix
# ---------------------------------------------------------------------------
@st.composite
def _real_maps(draw):
    n = draw(st.integers(1, 3))
    monos = grlex_monomials(n, draw(st.integers(1, 3)))
    size = draw(st.integers(1, 5)) * len(monos)
    values = st.one_of(st.just(0.0), st.integers(-3, 3).map(float), st.floats(-2.0, 2.0))
    rows = np.array(draw(st.lists(values, min_size=size, max_size=size)))
    f = polynomial_map_of_rows(n, monos, rows.reshape(-1, len(monos)))
    if n == 2 and draw(st.booleans()):
        f = tensor(f, catalog(draw(st.sampled_from(["faran-1", "whitney-seq-1"]))))
    return f


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_real_maps())
def test_real_forms_decide_as_their_complex_matrices(f):
    h = form_of(f)
    assert h.mat.dtype == np.float64
    hc = _as_complex(h)
    real, cplx = quotient_by_sphere(h), quotient_by_sphere(hc)
    assert np.float64(real.residual).tobytes() == np.float64(cplx.residual).tobytes()
    assert real.quotient.basis == cplx.quotient.basis
    # both quotients are built by the constructor, so both are held real
    assert real.quotient.mat.tobytes() == cplx.quotient.mat.tobytes()
    s, sc = signature(h), signature(hc)
    assert (s.positive, s.negative, s.zero) == (sc.positive, sc.negative, sc.zero)
    if math.isinf(sc.margin):
        assert math.isinf(s.margin)
    else:
        assert abs(s.margin - sc.margin) <= 1e-12 * max(1.0, sc.margin)
    assert image_rank(f, check=False) == image_rank(_map_as_complex(f), check=False)


# ---------------------------------------------------------------------------
# the product budget counts the held dtype's bytes
# ---------------------------------------------------------------------------
def test_the_product_budget_counts_the_held_dtype(monkeypatch):
    a, b = form_of(catalog("faran-2")), norm_power_form(2, 3)
    size = (a * b).size
    # room for the real product, not for the same product held as complex
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_BYTES", size * size * 8)
    assert (a * b).mat.dtype == np.float64
    with pytest.raises(CapabilityError, match="MAX_PRODUCT_BYTES"):
        _as_complex(a) * b
    monkeypatch.setattr(polynomials, "MAX_PRODUCT_BYTES", size * size * 8 - 1)
    with pytest.raises(CapabilityError, match="MAX_PRODUCT_BYTES"):
        a * b
