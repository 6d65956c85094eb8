"""One certificate decides a realization: ``certify_realization``.

It is checked against the separate calls it is made of, against one failing
check at a time (in the library and through ``ballmaps realize``, which exits
3 and writes the failing field), against the CLI's ``verification`` block,
and against the check of the benchmark's ``s3-realize`` jobs, which still
holds its own copy of the same decisions.
"""

import functools
import importlib.util
import json
import pathlib
import sys

import pytest

from ballmaps import (
    SphereSampleResult,
    certify_realization,
    close_permutation_group,
    diagonal_stabilizer,
    identity_map,
    is_proper,
    permutation_stabilizer,
    realize_subgroup,
    sphere_sample_check,
)
from ballmaps import analysis, realize
from ballmaps.cli import main
from ballmaps.maps import RationalMap

from conftest import S3_GENERATORS

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

REALIZED = {
    **{f"s3-{name}": (3, gens) for name, gens in S3_GENERATORS.items()},
    "s2-trivial": (2, []),
    "s2-full": (2, [(1, 0)]),
    "c4-in-s4": (4, [(1, 2, 3, 0)]),
}


@functools.cache
def _realized(name: str):
    n, gens = REALIZED[name]
    return realize_subgroup(gens, n), close_permutation_group(gens, n)


@pytest.mark.parametrize("name", REALIZED)
def test_certificate_agrees_with_the_separate_checks(name):
    f, group = _realized(name)
    cert = certify_realization(f, group)
    assert cert.certified
    proper = is_proper(f)
    assert (cert.proper.proper, cert.proper.residual, cert.proper.tolerance) == (
        proper.proper,
        proper.residual,
        proper.tolerance,
    )
    assert cert.sample == sphere_sample_check(f, seed=0)
    assert cert.permutation_stabilizer == permutation_stabilizer(f)
    assert cert.matches_requested_group is (sorted(permutation_stabilizer(f)) == group)
    assert cert.diagonal_stabilizer_trivial is diagonal_stabilizer(f).is_trivial


def test_certificate_without_a_group_runs_no_group_check():
    f, _ = _realized("s3-alternating")
    cert = certify_realization(f)
    assert cert.certified and cert.permutation_stabilizer is None
    assert list(cert.to_dict()) == ["proper", "residual", "tolerance", "sample"]


def _failed_sample(f, count=1000, tol=1e-9, seed=0):
    return SphereSampleResult(1.0, False, count, tol, seed, 1.0)


def _realize(tmp_path, *argv):
    out = tmp_path / "map.json"
    code = main(["realize", *argv, "-o", str(out)])
    return code, json.loads(out.read_text())["verification"]


def test_a_failed_sampler_fails_the_certificate(tmp_path, monkeypatch):
    monkeypatch.setattr(analysis, "sphere_sample_check", _failed_sample)
    f, group = _realized("s3-alternating")
    cert = certify_realization(f, group)
    assert not cert.certified
    assert cert.proper.proper and cert.matches_requested_group
    assert cert.diagonal_stabilizer_trivial
    code, v = _realize(tmp_path, "symmetric", "--n", "2")
    assert code == 3 and v["sample"]["pass"] is False
    assert v["proper"] and v["matches_requested_group"] and v["diagonal_stabilizer_trivial"]


def test_a_stabilizer_larger_than_the_group_fails_the_certificate(tmp_path, monkeypatch):
    f, _ = _realized("s3-full")
    cert = certify_realization(f, close_permutation_group([(1, 2, 0)], 3))
    assert not cert.certified and cert.matches_requested_group is False
    assert cert.proper.proper and cert.sample.passed and cert.diagonal_stabilizer_trivial
    # the requested A_3, realized by a map whose stabilizer is all of S_3
    monkeypatch.setattr(realize, "realize_subgroup", lambda gens, n: f)
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"n": 3, "generators": [[2, 3, 1]]}))
    code, v = _realize(tmp_path, "subgroup", "--group", str(spec))
    assert code == 3 and v["matches_requested_group"] is False
    assert len(v["permutation_stabilizer"]) == 6
    assert v["proper"] and v["sample"]["pass"] and v["diagonal_stabilizer_trivial"]


def test_a_full_diagonal_torus_fails_the_certificate(tmp_path, monkeypatch):
    # the identity map is kept by S_2 and by every diagonal unitary
    cert = certify_realization(identity_map(2), [(0, 1), (1, 0)])
    assert not cert.certified and cert.diagonal_stabilizer_trivial is False
    assert cert.proper.proper and cert.sample.passed and cert.matches_requested_group
    monkeypatch.setattr(realize, "symmetric_group_map", identity_map)
    code, v = _realize(tmp_path, "symmetric", "--n", "2")
    assert code == 3 and v["diagonal_stabilizer_trivial"] is False
    assert v["proper"] and v["sample"]["pass"] and v["matches_requested_group"]


def test_a_tight_division_tolerance_fails_the_certificate(tmp_path):
    f, group = _realized("s3-alternating")
    cert = certify_realization(f, group, tol_div=1e-20)
    assert not cert.certified and not cert.proper.proper
    assert cert.sample.passed and cert.matches_requested_group
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"n": 3, "generators": [[2, 3, 1]]}))
    code, v = _realize(tmp_path, "subgroup", "--group", str(spec), "--tol-div", "1e-20")
    assert code == 3 and v["proper"] is False and v["residual"] > v["tolerance"]
    assert v["sample"]["pass"] and v["matches_requested_group"] and v["diagonal_stabilizer_trivial"]


def test_cli_verification_is_the_certificate_of_the_written_map(tmp_path):
    spec = tmp_path / "group.json"
    spec.write_text(json.dumps({"n": 3, "generators": [[2, 3, 1]]}))
    code, v = _realize(tmp_path, "subgroup", "--group", str(spec))
    assert code == 0
    f = RationalMap.from_dict(json.loads((tmp_path / "map.json").read_text()))
    assert v == certify_realization(f, close_permutation_group([(1, 2, 0)], 3)).to_dict()


def _s3_jobs(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads, [job for group in workloads.s3_realize(0, "") for job in group]


def test_bench_s3_realize_check_agrees_with_the_certificate(monkeypatch):
    workloads, jobs = _s3_jobs(monkeypatch)
    assert len(jobs) == 6
    for job in jobs:
        out = job.run()
        job.check(out)
        group = close_permutation_group(workloads.S3_SUBGROUPS[job.key], 3)
        cert = certify_realization(out["map"], group, seed=out["sample"].seed)
        assert cert.certified, job.key
        assert cert.proper.residual == out["proper"].residual
        assert cert.sample == out["sample"]
        assert cert.permutation_stabilizer == out["permutations"]
        assert cert.diagonal_stabilizer_trivial is out["diagonal"].is_trivial
