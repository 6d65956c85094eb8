"""Sphere division builds the quotient form only when it is read.

``quotient_by_sphere`` returns the residual at once and keeps the
recursion's per-class array; the quotient form is assembled from it on first
read and kept.  ``is_proper`` divides once, through the module's own
``quotient_by_sphere`` binding (the one the benchmark tracer wraps), and
builds no form of its own.
"""

import json

import pytest

import ballmaps
from ballmaps import (
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
