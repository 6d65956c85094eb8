"""One byte budget for every dense array sized from the input.

``polynomials.check_array_budget`` counts a shape in the dtype it will be
allocated in against ``MAX_ARRAY_BYTES`` and raises ``CapabilityError``
before anything is allocated.  Form construction, form sums and
comparisons, Gram forms, norm-power targets, products, sphere division and
the permutation search (its padded copy and dense key table) all count
there, so a request too large for memory is refused, never killed.  The
product and division boundaries are checked in ``test_real_arrays.py`` and
``test_sphere_division.py``.
"""

import tracemalloc

import numpy as np
import pytest

from ballmaps import CapabilityError, HermitianForm, gram_form, norm_power_form
from ballmaps import polynomials
from ballmaps.hermitian import _norm_power_sum
from ballmaps.invariance import _form_search
from ballmaps.polynomials import TAU_EQ, check_array_budget, degree_monomials, multinomial

from conftest import realize_capped


def test_the_budget_counts_shape_times_itemsize(monkeypatch):
    monkeypatch.setattr(polynomials, "MAX_ARRAY_BYTES", 2 * 4 * 8)
    check_array_budget((2, 4), np.float64)
    check_array_budget((4, 4), np.float32)
    with pytest.raises(CapabilityError, match=r"2 x 4 complex128 array needs 128 bytes"):
        check_array_budget((2, 4), complex)
    with pytest.raises(CapabilityError, match="MAX_ARRAY_BYTES = 64"):
        check_array_budget((3, 3), float)


def _complex_form():
    # basis (0, 0), (0, 1), (1, 0)
    return HermitianForm.from_entries(2, {((1, 0), (0, 1)): 1 + 1j, ((0, 0), (0, 0)): 2.0})


# each construction, and the bytes of the largest array it allocates
CONSTRUCTIONS = {
    "from_entries": (_complex_form, 3 * 3 * 16),
    "constructor": (lambda: HermitianForm(2, [(0, 1), (1, 0)], np.eye(2) * 1j), 2 * 2 * 16),
    "form sum": (lambda: norm_power_form(2, 1) + norm_power_form(2, 2), 5 * 5 * 8),
    "form comparison": (
        lambda: norm_power_form(2, 1).max_entry_diff(norm_power_form(2, 2)),
        5 * 5 * 8,
    ),
    "gram_form": (lambda: gram_form(2, [(0, 0), (0, 1), (1, 0)], np.ones((2, 3))), 3 * 3 * 8),
    "norm power": (lambda: norm_power_form(2, 3), 4 * 4 * 8),
    # the zero-padded copy of the form, one row and column more than its basis
    "permutation search": (lambda: _form_search(_complex_form(), TAU_EQ), 4 * 4 * 16),
    # keys 0 and 9 * 10: a dense key table of 92 intp entries
    "permutation search key table": (
        lambda: _form_search(HermitianForm(2, [(0, 0), (0, 9)], np.eye(2)), TAU_EQ),
        92 * np.dtype(np.intp).itemsize,
    ),
}


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_each_construction_admits_exactly_up_to_the_budget(name, monkeypatch):
    build, nbytes = CONSTRUCTIONS[name]
    monkeypatch.setattr(polynomials, "MAX_ARRAY_BYTES", nbytes)
    build()
    monkeypatch.setattr(polynomials, "MAX_ARRAY_BYTES", nbytes - 1)
    with pytest.raises(CapabilityError, match="MAX_ARRAY_BYTES"):
        build()


@pytest.mark.parametrize(
    "nvars, lambdas, powers",
    [(2, (1.0,), (3,)), (3, (0.5, 0.5, 0.5), (0, 2, 5)), (4, (0.7, 1.3), (1, 4))],
)
def test_the_norm_power_target_is_the_constructor_form(nvars, lambdas, powers):
    basis = [alpha for m in powers for alpha in degree_monomials(nvars, m)]
    diagonal = [
        float(multinomial(alpha)) * (lam * lam)
        for lam, m in zip(lambdas, powers)
        for alpha in degree_monomials(nvars, m)
    ]
    ref = HermitianForm(nvars, basis, np.diag(diagonal))
    target = _norm_power_sum(nvars, lambdas, powers)
    assert target.basis == ref.basis
    assert target.mat.dtype == ref.mat.dtype and target.mat.tobytes() == ref.mat.tobytes()


def test_the_c6_padding_target_is_refused_before_allocating():
    # |z|^30 in 6 variables: a 15,504 x 15,504 float64 diagonal, 1.79 GiB
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError, match="needs 1922992128 bytes"):
            norm_power_form(6, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_cli_refuses_c6_within_3gb(tmp_path):
    # tau of C_6 = <(1 2 3 4 5 0)> has degree 15, so its padding target holds
    # |z|^30 over 15,505 monomials, which used to end in a traceback
    done, out = realize_capped(tmp_path, 6, [[1, 2, 3, 4, 5, 0]], timeout=120)
    assert done.returncode == 4, done.stderr
    assert "MAX_ARRAY_BYTES" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()
