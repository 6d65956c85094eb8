"""Sphere division builds the quotient form only when it is read, within a
memory budget.

``quotient_by_sphere`` returns the residual at once and keeps the
recursion's per-class array; the quotient form is assembled from it on first
read and kept.  ``is_proper`` divides once, through the module's own
``quotient_by_sphere`` binding (the one the benchmark tracer wraps), and
builds no form of its own.  A division whose per-class array would exceed
``MAX_DIVISION_CELLS`` entries is refused with ``CapabilityError`` before the
array is allocated.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import ballmaps
from ballmaps import (
    CapabilityError,
    HermitianForm,
    analyze_map,
    catalog,
    form_of,
    is_proper,
    quotient_by_sphere,
    realize_subgroup,
    symmetric_group_map,
)
from ballmaps import hermitian
from ballmaps.maps import CATALOG_NAMES
from ballmaps.polynomials import degree_monomials

from conftest import S3_GENERATORS

CASES = [*CATALOG_NAMES, "S2", "S3", "S4", "S5", "S6", *(f"s3-{g}" for g in S3_GENERATORS)]


def _map(case):
    if case.startswith("s3-"):
        return realize_subgroup(S3_GENERATORS[case[3:]], 3)
    if case in CATALOG_NAMES:
        return catalog(case)
    return symmetric_group_map(int(case[1:]))


def test_is_proper_builds_no_quotient(monkeypatch):
    f = realize_subgroup([], 3)
    form_of(f)  # built once and kept on the map
    built = []
    init = HermitianForm.__init__

    def counted(form, *args):
        built.append(args)
        init(form, *args)

    monkeypatch.setattr(HermitianForm, "__init__", counted)
    cert = is_proper(f)
    assert cert.proper and built == []
    cert.quotient
    assert len(built) == 1


def test_quotient_is_assembled_once():
    division = quotient_by_sphere(form_of(catalog("faran-2")))
    assert division.quotient is division.quotient
    cert = is_proper(catalog("example-7-2"))
    assert cert.quotient is cert.quotient is cert.division.quotient


def test_is_proper_divides_once_through_the_module_binding(monkeypatch):
    calls = []
    divide = hermitian.quotient_by_sphere

    def counted(h):
        calls.append(h)
        return divide(h)

    monkeypatch.setattr(hermitian, "quotient_by_sphere", counted)
    f = realize_subgroup([(1, 0, 2)], 3)
    cert = ballmaps.is_proper(f)
    cert.quotient
    assert calls == [form_of(f)]
    assert cert.residual == cert.division.residual


@pytest.mark.parametrize("case", CASES)
def test_deferred_quotient_equals_the_quotient_read_at_once(case):
    f = _map(case)
    # the rest of the analysis runs between the division and the first read
    bundle = analyze_map(f)
    at_once = quotient_by_sphere(form_of(f)).quotient
    later = bundle.proper.quotient
    assert later.basis == at_once.basis
    assert later.mat.tobytes() == at_once.mat.tobytes()
    assert json.dumps(bundle.to_dict()["proper"]["quotient"]) == json.dumps(at_once.to_dict())


def test_zero_form_divides_to_the_zero_quotient():
    division = quotient_by_sphere(HermitianForm.zero(2))
    assert division.residual == 0.0
    assert division.quotient.basis == () and division.quotient.mat.shape == (0, 0)


# ---------------------------------------------------------------------------
# the division budget
# ---------------------------------------------------------------------------
def _division_entries(h):
    """(x-simplex cells up to the largest class bound) x (torus classes),
    counted entry by entry."""
    exps = np.array(h.basis)
    classes, top = set(), 0
    for i, j in zip(*np.nonzero(h.mat)):
        cell = np.minimum(exps[i], exps[j])
        plus, minus = exps[i] - cell, exps[j] - cell
        classes.add((tuple(plus), tuple(minus)))
        top = max(top, h.max_degree() - max(plus.sum(), minus.sum()))
    return math.comb(int(top) + h.nvars, h.nvars) * len(classes)


@pytest.mark.parametrize("case", ["faran-2", "S3", "s3-trivial"])
def test_division_budget_admits_exactly_up_to_its_entries(case, monkeypatch):
    h = form_of(_map(case))
    entries = _division_entries(h)
    monkeypatch.setattr(hermitian, "MAX_DIVISION_CELLS", entries)
    quotient_by_sphere(h)
    monkeypatch.setattr(hermitian, "MAX_DIVISION_CELLS", entries - 1)
    with pytest.raises(CapabilityError, match="MAX_DIVISION_CELLS"):
        quotient_by_sphere(h)


def test_division_over_budget_is_refused_before_allocating():
    # 42 monomials of degree 40 in 4 variables: 135,751 cells x 1,685 classes,
    # two complex arrays of 3.4 GiB each
    basis = degree_monomials(4, 40)[::300]
    h = HermitianForm(4, basis, np.ones((len(basis), len(basis))))
    assert _division_entries(h) > 4 * hermitian.MAX_DIVISION_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(CapabilityError):
            quotient_by_sphere(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


_CAPPED_REALIZE = """
import resource, sys
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from ballmaps.cli import main
sys.exit(main(["realize", "subgroup", "--group", sys.argv[1], "-o", sys.argv[2]]))
"""


def _realize_capped(tmp_path, n, generators, timeout):
    pytest.importorskip("resource")
    spec, out = tmp_path / "group.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"n": n, "generators": generators}))
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_REALIZE, str(spec), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done, out


def test_cli_certifies_c4_within_3gb(tmp_path):
    # the division of the C_4 = <(1 2 3 0)> map has 9.7 M entries, within the budget
    done, out = _realize_capped(tmp_path, 4, [[1, 2, 3, 0]], timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(out.read_text())["verification"]
    assert summary["proper"] is True and summary["matches_requested_group"] is True


def test_cli_refuses_c5_within_3gb(tmp_path):
    # the product of the C_5 = <(1 2 3 4 0)> remainder with |z|^22 needs a
    # dense 14,015 x 14,015 array (1.46 GiB real), which used to end in MemoryError
    done, out = _realize_capped(tmp_path, 5, [[1, 2, 3, 4, 0]], timeout=120)
    assert done.returncode == 4, done.stderr
    assert "MAX_PRODUCT_BYTES" in done.stderr and "Traceback" not in done.stderr
    assert not out.exists()
