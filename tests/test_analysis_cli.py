"""Sphere-sampling oracle, analysis bundles, and the command-line surface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ballmaps
from ballmaps import (
    BallAutomorphism,
    RationalMap,
    analyze_map,
    catalog,
    compose_target,
    emit_invariance_system,
    evaluate_invariance_system,
    first_descendant,
    group_closure,
    identity_map,
    is_proper,
    oplus,
    pad_to_proper,
    padded_map,
    polynomial_map,
    realize_from_invariants,
    sphere_sample_check,
    tensor,
    tensor_power,
    whitney_map,
)
from ballmaps import analysis, cli, invariance
from ballmaps.cli import main
from ballmaps.maps import CATALOG_NAMES

from conftest import Poly


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------
def test_sampler_accepts_cubic_catalog_map():
    res = sphere_sample_check(catalog("faran-4"), 1000, 1e-9, seed=2)
    assert res.passed and res.max_residual < 1e-12


def test_sampler_rejects_duplicated_component():
    z1 = Poly.variable(2, 0)
    res = sphere_sample_check(polynomial_map([z1, z1]), 500, 1e-9, seed=2)
    assert not res.passed
    # residual is max |2|z1|^2 - 1| over the samples, close to 1
    assert res.max_residual > 0.5


def test_sampler_identity_is_exact():
    res = sphere_sample_check(identity_map(3), 200, 1e-9, seed=4)
    assert res.passed and res.max_residual <= 1e-14


def test_sampler_is_deterministic():
    a = sphere_sample_check(catalog("faran-2"), 300, 1e-9, seed=11)
    b = sphere_sample_check(catalog("faran-2"), 300, 1e-9, seed=11)
    assert a == b


def test_sampler_agrees_with_certificate():
    for name in CATALOG_NAMES:
        f = catalog(name)
        assert sphere_sample_check(f, 300, 1e-9, seed=6).passed == is_proper(f).proper


def test_sampler_rational_map():
    from ballmaps import BallAutomorphism

    f = BallAutomorphism(np.eye(2), [0.4, 0.2j]).as_rational_map()
    res = sphere_sample_check(f, 300, 1e-9, seed=8)
    assert res.passed
    assert res.min_abs_denominator > 0.1


# ---------------------------------------------------------------------------
# analysis bundle
# ---------------------------------------------------------------------------
def test_analyze_quadratic_power_bundle():
    bundle = analyze_map(catalog("faran-3"))
    data = bundle.to_dict()
    assert data["proper"]["proper"] is True
    assert data["group_report"]["full_unitary_invariant"] is True
    assert data["strict_stabilizer"]["diagonal"]["order"] == 2
    assert data["hermitian_rank"] == data["image_rank"] + 1
    assert data["consistent"] is True
    json.dumps(data)  # must be serializable


def test_analyze_non_proper_map_reports():
    z1 = Poly.variable(2, 0)
    bundle = analyze_map(polynomial_map([z1, z1]))
    assert bundle.proper.proper is False


def test_analyze_whitney_blocks():
    bundle = analyze_map(whitney_map(3))
    blocks = bundle.report.block_partition.blocks
    assert blocks == ((0, 1), (2,))
    assert bundle.report.source_rank_upper == 2
    assert bundle.report.origin_moving_excluded is True


_CAPPED_ANALYSIS = """
import resource, sys
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from ballmaps import analyze_map, realize_subgroup
bundle = analyze_map(realize_subgroup([], 3))
assert bundle.proper.proper and bundle.consistent
assert bundle.report.permutation_stabilizer == ((0, 1, 2),)
"""


def test_analyze_realized_trivial_group_within_3gb():
    # a 15,700-component map: full_unitary_test used to build a dense N x N
    # recentering and run out of memory
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_ANALYSIS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_construct_and_analyze(tmp_path, capsys):
    mp = tmp_path / "map.json"
    assert main(["construct", "catalog", "--name", "faran-3", "-o", str(mp)]) == 0
    out = tmp_path / "analysis.json"
    assert main(["analyze", str(mp), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["proper"]["proper"] is True
    assert data["group_report"]["full_unitary_invariant"] is True


def test_cli_construct_power_matches_library(tmp_path):
    mp = tmp_path / "p.json"
    assert main(["construct", "power", "--n", "2", "--m", "3", "-o", str(mp)]) == 0
    data = json.loads(mp.read_text())
    from ballmaps import RationalMap, form_of

    f = RationalMap.from_dict(data)
    assert form_of(f).max_entry_diff(form_of(tensor_power(2, 3))) < 1e-12
    assert data["properness"]["proper"] is True


def test_cli_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nonsense")
    assert main(["analyze", str(bad)]) == 2


_FARAN_2 = {
    "n": 2,
    "m": 3,
    "l": 0,
    "numerator": [
        {"nvars": 2, "terms": [{"exp": e, "re": 1.0, "im": 0.0}]} for e in ([1, 0], [1, 1], [0, 2])
    ],
    "denominator": {"nvars": 2, "terms": [{"exp": [0, 0], "re": 1.0, "im": 0.0}]},
}


#: A polynomial in two variables with a one-entry exponent.
_SHORT_EXP = {"nvars": 2, "terms": [{"exp": [1], "re": 1.0, "im": 0.0}]}
#: Polynomials in two variables with a NaN or an infinite coefficient, and
#: with a fractional exponent.
_NAN_COEFF = {"nvars": 2, "terms": [{"exp": [1, 0], "re": math.nan, "im": 0.0}]}
_INF_COEFF = {"nvars": 2, "terms": [{"exp": [1, 0], "re": 1.0, "im": math.inf}]}
_HALF_EXP = {"nvars": 2, "terms": [{"exp": [1.5, 0], "re": 1.0, "im": 0.0}]}
#: A 2 x 2 matrix and a 2-vector with a NaN entry.
_NAN_MATRIX = {"matrix": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
_NAN_VECTOR = {"vector": [[math.nan, 0.0], [0.0, 0.0]]}


def _faran_2_with(component):
    """_FARAN_2 with its first component replaced."""
    return {**_FARAN_2, "numerator": [component] + _FARAN_2["numerator"][1:]}

_DESCEND = ["construct", "descend", "-f", "{map}", "--subspace", "{data}"]
_COMPOSE = ["compose", "source", "{map}"]


@pytest.mark.parametrize(
    "argv,files",
    [
        (["sample", "{map}", "--count", "0"], {"map": _FARAN_2}),
        (["construct", "catalog", "--name", "faran-x"], {}),
        (["construct", "catalog", "--name", "whitney-seq-x"], {}),
        (["construct", "catalog", "--name", "example-7-4-f", "--theta", "nan"], {}),
        (["pad", "{data}"], {"data": {"polynomials": []}}),
        (["pad", "{data}"], {"data": {"components": []}}),
        (["realize", "subgroup", "--group", "{data}"], {"data": {"generators": [[1, 0]]}}),
        (["realize", "from-invariants", "--group", "{data}"], {"data": {"generators": []}}),
        (["analyze", "{map}"], {"map": {**_FARAN_2, "m": 2}}),
        (["realize", "subgroup", "--group", "{data}"], {"data": {"n": "three"}}),
        (["pad", "{data}"], {"data": {"components": [_SHORT_EXP]}}),
        (
            ["realize", "from-invariants", "--group", "{data}"],
            {"data": {"invariants": [_SHORT_EXP]}},
        ),
        (["member", "{map}", "--unitary", "{data}"], {"map": _FARAN_2, "data": {}}),
        (["member", "{map}", "--center", "{data}"], {"map": _FARAN_2, "data": {}}),
        (["compose", "source", "{map}", "--unitary", "{data}"], {"map": _FARAN_2, "data": {}}),
        (["compose", "source", "{map}", "--center", "{data}"], {"map": _FARAN_2, "data": {}}),
        (_DESCEND, {"map": _FARAN_2, "data": {}}),
        (_DESCEND, {"map": _FARAN_2, "data": {"vectors": [[[1.0, 0.0]]]}}),
        (_DESCEND, {"map": _FARAN_2, "data": {"vectors": [[[1.0, 0.0]] * 2] * 3}}),
        (["analyze", "{map}"], {"map": _faran_2_with(_NAN_COEFF)}),
        (["analyze", "{map}"], {"map": _faran_2_with(_INF_COEFF)}),
        (["analyze", "{map}"], {"map": _faran_2_with(_HALF_EXP)}),
        (["pad", "{data}"], {"data": {"components": [_NAN_COEFF]}}),
        (["pad", "{data}"], {"data": {"components": [_HALF_EXP]}}),
        (
            ["realize", "from-invariants", "--group", "{data}"],
            {"data": {"invariants": [_INF_COEFF]}},
        ),
        (
            ["realize", "from-invariants", "--group", "{data}"],
            {"data": {"invariants": [_HALF_EXP]}},
        ),
        (_COMPOSE + ["--unitary", "{data}"], {"map": _FARAN_2, "data": _NAN_MATRIX}),
        (_COMPOSE + ["--center", "{data}"], {"map": _FARAN_2, "data": _NAN_VECTOR}),
        (["member", "{map}", "--unitary", "{data}"], {"map": _FARAN_2, "data": _NAN_MATRIX}),
        (["member", "{map}", "--center", "{data}"], {"map": _FARAN_2, "data": _NAN_VECTOR}),
    ],
    ids=[
        "sample-count-0",
        "faran-x",
        "whitney-seq-x",
        "catalog-theta-nan",
        "pad-no-components",
        "pad-empty-components",
        "subgroup-no-n",
        "invariants-missing",
        "map-m-mismatch",
        "subgroup-n-not-integer",
        "pad-exponent-length",
        "invariants-exponent-length",
        "member-no-matrix",
        "member-no-vector",
        "compose-no-matrix",
        "compose-no-vector",
        "descend-no-vectors",
        "descend-vector-length",
        "descend-vector-count",
        "map-nan-coefficient",
        "map-inf-coefficient",
        "map-fractional-exponent",
        "pad-nan-coefficient",
        "pad-fractional-exponent",
        "invariants-inf-coefficient",
        "invariants-fractional-exponent",
        "compose-nan-unitary",
        "compose-nan-center",
        "member-nan-unitary",
        "member-nan-center",
    ],
)
def test_cli_malformed_input_exits_2(tmp_path, capsys, argv, files):
    paths = {}
    for key, data in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        with open(paths[key], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    out = str(tmp_path / "out.json")
    assert main([arg.format(**paths) for arg in argv] + ["-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


def test_cli_missing_file_exit_code():
    assert main(["analyze", "/nonexistent/path.json"]) == 2


def test_cli_require_proper_failure(tmp_path):
    z1 = Poly.variable(2, 0)
    f = polynomial_map([z1, z1])
    mp = tmp_path / "np.json"
    mp.write_text(json.dumps(f.to_dict()))
    out = tmp_path / "out.json"
    assert main(["analyze", str(mp), "--require-proper", "-o", str(out)]) == 3


def test_cli_realize_subgroup(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"n": 3, "generators": [[2, 3, 1]]}))
    out = tmp_path / "map.json"
    assert main(["realize", "subgroup", "--group", str(spec), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    v = data["verification"]
    assert v["proper"] is True
    assert v["matches_requested_group"] is True
    assert v["diagonal_stabilizer_trivial"] is True
    assert sorted(tuple(p) for p in v["permutation_stabilizer"]) == [
        (0, 1, 2),
        (1, 2, 0),
        (2, 0, 1),
    ]


def test_cli_realize_fails_on_a_nontrivial_diagonal_stabilizer(tmp_path, monkeypatch):
    # every diagonal unitary kept: a full torus, which a realization must not have
    monkeypatch.setattr(
        analysis, "diagonal_stabilizer", lambda f: invariance.TorusSubgroup.from_rows([], f.n)
    )
    out = tmp_path / "map.json"
    assert main(["realize", "symmetric", "--n", "2", "-o", str(out)]) == 3
    v = json.loads(out.read_text())["verification"]
    assert v["proper"] is True and v["matches_requested_group"] is True
    assert v["diagonal_stabilizer_trivial"] is False


def test_cli_realize_builds_no_payload_for_a_refused_certificate(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise invariance.CapabilityError("refused")

    def unexpected(self):
        raise AssertionError("the map's JSON was built before its certificate")

    monkeypatch.setattr(analysis, "is_proper", refuse)
    monkeypatch.setattr(ballmaps.RationalMap, "to_dict", unexpected)
    out = tmp_path / "map.json"
    assert main(["realize", "symmetric", "--n", "2", "-o", str(out)]) == 4
    assert not out.exists()


def test_cli_json_output_is_not_truncated_by_a_failed_encoding(tmp_path):
    out = tmp_path / "map.json"
    # the value that cannot be encoded comes after chunks that were already streamed
    unencodable = {"components": list(range(1000)), "verification": object()}
    with pytest.raises(TypeError):
        cli._write_json(unencodable, str(out))
    assert list(tmp_path.iterdir()) == []
    out.write_text("{}\n")
    with pytest.raises(TypeError):
        cli._write_json(unencodable, str(out))
    assert list(tmp_path.iterdir()) == [out] and out.read_text() == "{}\n"
    cli._write_json({"components": [1, 2]}, str(out))
    assert list(tmp_path.iterdir()) == [out] and json.loads(out.read_text()) == {"components": [1, 2]}


def test_cli_emit_system_schema(tmp_path):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", "faran-2", "-o", str(mp)])
    out = tmp_path / "sys.json"
    assert main(["emit-system", str(mp), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "invariance-system/2"
    assert doc["unknowns"]["shape"] == [3, 3]
    assert doc["equations"] and doc["metric_constraints"]
    d = doc["degree"]

    def assert_indices(term, u_len, ubar_len):
        assert (len(term["u"]), len(term["ubar"])) == (u_len, ubar_len)
        for index in (term["u"], term["ubar"]):
            assert index == sorted(index) and all(0 <= i < 9 for i in index)

    for eq in doc["equations"]:
        assert set(eq) == {"alpha", "mu", "beta", "nu", "terms"}
        for term in eq["terms"]:
            assert_indices(term, d, d)
    for eq in doc["metric_constraints"]:
        for term in eq["terms"]:
            assert_indices(term, 1, 1)
    assert len(doc["determinant_constraint"]["terms"]) == 6
    for term in doc["determinant_constraint"]["terms"]:
        assert_indices(term, 3, 0)


@pytest.mark.parametrize("name", ["faran-2", "example-7-2", "whitney-seq-3", "corollary-6-2"])
def test_cli_emit_system_round_trip(tmp_path, name):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", name, "-o", str(mp)])
    out = tmp_path / "sys.json"
    assert main(["emit-system", str(mp), "-o", str(out)]) == 0
    text = out.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    f = catalog(name)
    doc = json.loads(text)
    assert doc == emit_invariance_system(f)
    assert evaluate_invariance_system(doc, np.eye(f.n + 1)) <= 1e-9


def test_cli_emit_system_refuses_nine_variables(tmp_path, capsys, monkeypatch):
    # building the system would raise here: the refusal must come first
    monkeypatch.setattr(invariance, "form_of", lambda f: 1 / 0)
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(identity_map(9).to_dict()))
    out = tmp_path / "sys.json"
    assert main(["emit-system", str(mp), "-o", str(out)]) == 4
    assert not out.exists()
    assert "emission is capped at n <= 8" in capsys.readouterr().err


def test_cli_sample_pass_and_fail(tmp_path):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", "faran-4", "-o", str(mp)])
    assert main(["sample", str(mp), "--count", "200", "-o", str(tmp_path / "s.json")]) == 0
    z1 = Poly.variable(2, 0)
    bad = polynomial_map([z1, z1])
    bp = tmp_path / "bad.json"
    bp.write_text(json.dumps(bad.to_dict()))
    assert main(["sample", str(bp), "--count", "100", "-o", str(tmp_path / "s2.json")]) == 3


def test_cli_member_command(tmp_path):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", "faran-2", "-o", str(mp)])
    um = tmp_path / "u.json"
    um.write_text(json.dumps({"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}))
    out = tmp_path / "m.json"
    assert main(["member", str(mp), "--unitary", str(um), "-o", str(out)]) == 3
    diag = tmp_path / "d.json"
    theta = 0.8
    diag.write_text(
        json.dumps(
            {
                "matrix": [
                    [[math.cos(theta), math.sin(theta)], [0, 0]],
                    [[0, 0], [1, 0]],
                ]
            }
        )
    )
    assert main(["member", str(mp), "--unitary", str(diag), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["member"] is True and data["c_gamma"] == pytest.approx(1.0)


def test_cli_pad_command(tmp_path):
    poly = Poly.monomial((1, 1))
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"components": [poly.to_dict()]}))
    out = tmp_path / "pad.json"
    assert main(["pad", str(pf), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["proper"] is True
    assert data["powers"] == [0, 1, 2]


def test_cli_pad_reports_the_properness_block_of_the_padded_map(tmp_path):
    polys = [Poly.monomial((1, 1)), Poly.monomial((2, 0))]
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"components": [p.to_dict() for p in polys]}))
    out = tmp_path / "pad.json"
    for argv, tol_div in ([], 1e-9), (["--tol-div", "1e-6"], 1e-6):
        assert main(["pad", str(pf), *argv, "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        cert = is_proper(padded_map(polys, pad_to_proper(polys)), tol_div)
        assert {k: data[k] for k in ("proper", "residual", "tolerance")} == cert.to_dict()


_U3 = [[0, 1j, 0], [1, 0, 0], [0, 0, -1]]
_SIGN_FLIP = {"invariants": [Poly.monomial((2,)).to_dict()], "generators": [[[[-1.0, 0.0]]]]}

#: Each command, run where f.json holds faran-2, g.json whitney-seq-1, u.json
#: the unitary _U3 and group.json z^2 under z -> -z, with the library call
#: whose map it must write.
_CLI_BUILDS = {
    "construct-tensor": (["construct", "tensor", "-f", "f.json", "-g", "g.json"], tensor),
    "construct-oplus": (
        ["construct", "oplus", "-f", "f.json", "-g", "g.json", "--weights", "0.6", "0.8"],
        lambda f, g: oplus(f, g, (0.6, 0.8)),
    ),
    "construct-whitney": (["construct", "whitney", "--n", "3"], lambda f, g: whitney_map(3)),
    "construct-descend": (
        ["construct", "descend", "-f", "g.json"],
        lambda f, g: first_descendant(g),
    ),
    "compose-target": (
        ["compose", "target", "f.json", "--unitary", "u.json"],
        lambda f, g: compose_target(f, BallAutomorphism(np.array(_U3))),
    ),
    "realize-from-invariants": (
        ["realize", "from-invariants", "--group", "group.json"],
        lambda f, g: realize_from_invariants(
            [Poly.monomial((2,))], group_closure([np.array([[-1.0 + 0j]])])
        ),
    ),
}


@pytest.mark.parametrize("name", _CLI_BUILDS)
def test_cli_writes_the_map_of_the_library_call(tmp_path, monkeypatch, name):
    argv, build = _CLI_BUILDS[name]
    f, g = catalog("faran-2"), catalog("whitney-seq-1")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.json").write_text(json.dumps(f.to_dict()))
    (tmp_path / "g.json").write_text(json.dumps(g.to_dict()))
    u = [[[z.real, z.imag] for z in map(complex, row)] for row in _U3]
    (tmp_path / "u.json").write_text(json.dumps({"matrix": u}))
    (tmp_path / "group.json").write_text(json.dumps(_SIGN_FLIP))
    assert main([*argv, "-o", "out.json"]) == 0
    data = json.loads((tmp_path / "out.json").read_text())
    written, want = RationalMap.from_dict(data), build(f, g)
    assert written.monos == want.monos
    assert written.coeffs.dtype == want.coeffs.dtype
    assert written.coeffs.tobytes() == want.coeffs.tobytes()
    assert (data.get("properness") or data["verification"])["proper"] is True


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_pad_refuses_non_finite_epsilon(tmp_path, value):
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"components": [Poly.monomial((1, 1)).to_dict()]}))
    out = tmp_path / "pad.json"
    assert main(["pad", str(pf), "--epsilon", value, "-o", str(out)]) == 2
    assert not out.exists()


def test_cli_compose_source(tmp_path):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", "faran-2", "-o", str(mp)])
    cf = tmp_path / "c.json"
    cf.write_text(json.dumps({"vector": [[0.3, 0.0], [0.0, 0.1]]}))
    out = tmp_path / "g.json"
    assert main(["compose", "source", str(mp), "--center", str(cf), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["properness"]["proper"] is True


def test_cli_construct_juxtapose(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["construct", "power", "--n", "2", "--m", "1", "-o", str(a), "--skip-proper-check"])
    main(["construct", "power", "--n", "2", "--m", "2", "-o", str(b), "--skip-proper-check"])
    out = tmp_path / "j.json"
    c = math.sqrt(2.0) / 2.0
    assert (
        main(
            [
                "construct",
                "juxtapose",
                "--maps",
                str(a),
                str(b),
                "--lambdas",
                str(c),
                str(c),
                "-o",
                str(out),
            ]
        )
        == 0
    )
    assert json.loads(out.read_text())["properness"]["proper"] is True


#: CLI calls in order, each with its expected exit code; the second juxtapose
#: omits --maps right after a call that gave it, and each --tol-div call is
#: followed by one that takes the default.
_CALL_SEQUENCE = [
    (["construct", "power", "--n", "2", "--m", "1", "-o", "a.json", "--skip-proper-check"], 0),
    (["construct", "power", "--n", "2", "--m", "2", "-o", "b.json"], 0),
    (["construct", "juxtapose", "--maps", "a.json", "b.json", "--lambdas", "0.6", "0.8",
      "-o", "j.json"], 0),
    (["construct", "juxtapose", "--lambdas", "1.0", "-o", "k.json"], 2),
    (["construct", "juxtapose", "-f", "a.json", "-g", "b.json", "-o", "t.json"], 0),
    (["analyze", "j.json", "--tol-sig", "1e-3", "-o", "an1.json"], 0),
    (["analyze", "j.json", "-o", "an2.json"], 0),
    (["realize", "symmetric", "--n", "2", "--tol-div", "1e-20", "-o", "r1.json"], 3),
    (["realize", "symmetric", "--n", "2", "-o", "r2.json"], 0),
    (["sample", "t.json", "--count", "50", "--seed", "3", "-o", "s.json"], 0),
]


def _run_sequence(directory, monkeypatch):
    directory.mkdir()
    monkeypatch.chdir(directory)
    codes = [main(argv) for argv, _ in _CALL_SEQUENCE]
    assert codes == [code for _, code in _CALL_SEQUENCE]
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_cli_reuses_one_parser_with_the_results_of_fresh_ones(tmp_path, monkeypatch):
    assert cli._parser() is cli._parser()
    reused = _run_sequence(tmp_path / "reused", monkeypatch)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _run_sequence(tmp_path / "fresh", monkeypatch)
    assert "k.json" not in fresh
    assert reused == fresh


def test_cli_realize_symmetric(tmp_path):
    out = tmp_path / "s2.json"
    assert main(["realize", "symmetric", "--n", "2", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["verification"]["proper"] is True
    assert data["verification"]["matches_requested_group"] is True


def test_cli_analyze_twisted_fixture(tmp_path):
    mp = tmp_path / "map.json"
    main(["construct", "catalog", "--name", "example-7-2", "-o", str(mp)])
    out = tmp_path / "a.json"
    assert main(["analyze", str(mp), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    rep = data["group_report"]
    assert rep["torus_invariant"] is False
    assert rep["diagonal_stabilizer"]["order"] == 1
    assert rep["permutation_stabilizer"] == [[0, 1]]


def test_analyze_large_dimension_skips_permutations():
    bundle = analyze_map(identity_map(9))
    assert bundle.strict.permutations is None
    assert bundle.report.permutation_stabilizer is None
    assert bundle.consistent is True
    assert any("skipped" in note for note in bundle.notes)
    assert any("skipped" in note for note in bundle.report.notes)


def test_cli_analyze_large_dimension(tmp_path):
    import ballmaps

    f = identity_map(9)
    mp = tmp_path / "big.json"
    mp.write_text(json.dumps(f.to_dict()))
    out = tmp_path / "a.json"
    assert main(["analyze", str(mp), "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["strict_stabilizer"]["permutations"] is None


def test_cli_strict_permutations_capability_exit(tmp_path):
    f = identity_map(9)
    mp = tmp_path / "big.json"
    mp.write_text(json.dumps(f.to_dict()))
    assert main(["analyze", str(mp), "--strict-permutations"]) == 4


def test_cli_realize_above_cap_is_capability_error(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"n": 9, "generators": [list(range(2, 10)) + [1]]}))
    assert main(["realize", "subgroup", "--group", str(spec)]) == 4


def test_cli_realize_symmetric_above_cap_builds_no_group(tmp_path, monkeypatch):
    # the n! group is only compared with the stabilizer, which is skipped above the cap
    def refuse(*args, **kwargs):
        raise AssertionError("the symmetric group was enumerated")

    monkeypatch.setattr(cli.itertools, "permutations", refuse)
    out = tmp_path / "s9.json"
    assert main(["realize", "symmetric", "--n", "9", "-o", str(out)]) == 0
    summary = json.loads(out.read_text())["verification"]
    assert summary["proper"] is True
    assert "matches_requested_group" not in summary


def test_cli_realize_and_pad_certify_with_tol_div(tmp_path):
    out = tmp_path / "s2.json"
    assert main(["realize", "symmetric", "--n", "2", "-o", str(out)]) == 0
    assert main(["realize", "symmetric", "--n", "2", "--tol-div", "1e-20", "-o", str(out)]) == 3
    assert json.loads(out.read_text())["verification"]["proper"] is False
    polys = [Poly.monomial((1, 1)), Poly.monomial((2, 0))]
    pf = tmp_path / "p.json"
    pf.write_text(json.dumps({"components": [p.to_dict() for p in polys]}))
    assert main(["pad", str(pf), "-o", str(out)]) == 0
    assert main(["pad", str(pf), "--tol-div", "1e-20", "-o", str(out)]) == 3
    assert json.loads(out.read_text())["proper"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ["emit-system", "x.json", "--tol-eq"],
        ["sample", "x.json", "--tol-div"],
        ["member", "x.json", "--tol-sig"],
        ["realize", "symmetric", "--tol-eq"],
        ["pad", "x.json", "--tol-sig"],
    ],
)
def test_cli_offers_only_the_tolerances_it_reads(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
