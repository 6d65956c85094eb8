"""The invariance system read off the form against the substitution it replaced.

The reference below is the library's earlier emitter: it homogenizes every
component, substitutes w_j = sum_i v_i u_ij into each as a polynomial in
n + 1 + (n + 1)^2 variables, and assembles both sides of the equation from
the grouped terms.  The library now reads every equation off form_of(f);
both must give the same equations, with the same term keys in the same
order, every coefficient within 1e-14 of the reference's relative to it, and
equal metric and determinant constraints.  The reference writes dense
exponent vectors (schema invariance-system/1); the library's index lists
(schema invariance-system/2) are densified before the comparison.
"""

import functools
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ballmaps
from ballmaps import (
    BallAutomorphism,
    CapabilityError,
    Polynomial,
    RationalMap,
    catalog,
    compose_source,
    emit_invariance_system,
    evaluate_invariance_system,
    juxtapose_lambda,
    polynomial_map,
    symmetric_group_map,
    tensor_power,
)
from ballmaps import invariance
from ballmaps.invariance import _expansions
from ballmaps.maps import CATALOG_NAMES, MapConstructionError
from ballmaps.polynomials import TAU_ZERO, grlex_key, monomial_values

from conftest import Poly, random_center, random_unitary


# ---------------------------------------------------------------------------
# reference: the substitution emitter
# ---------------------------------------------------------------------------
def _reference_homogenize(p, degree):
    terms = {exp + (degree - sum(exp),): c for exp, c in p.terms.items()}
    return Poly(p.nvars + 1, terms)


def _reference_substitute_fractional(p, numerators, denominator, degree_bound):
    """sum over terms coeff(alpha) prod_i numerators[i]^alpha_i
    denominator^(degree_bound - |alpha|), in Polynomial arithmetic."""
    result = Poly.zero(denominator.nvars)
    for exp, coeff in p.sorted_terms():
        term = Poly.constant(denominator.nvars, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * numerators[i] ** e
        if degree_bound - sum(exp):
            term = term * denominator ** (degree_bound - sum(exp))
        result = result + term
    return result


def _reference_grouped_substitution(hat, n1):
    total = n1 + n1 * n1
    w = []
    for j in range(n1):
        terms = {}
        for i in range(n1):
            exp = [0] * total
            exp[i] = 1
            exp[n1 + i * n1 + j] = 1
            terms[tuple(exp)] = 1.0
        w.append(Poly(total, terms))
    one = Poly.constant(total, 1.0)
    composed = _reference_substitute_fractional(hat, w, one, hat.degree)
    grouped = {}
    for exp, coeff in composed.terms.items():
        vpart, upart = exp[:n1], exp[n1:]
        grouped.setdefault(vpart, {})[upart] = grouped.get(vpart, {}).get(upart, 0.0) + coeff
    return grouped


def _reference_sesquilinear(g1, g2, sign):
    out = {}
    for e1, c1 in g1.items():
        for e2, c2 in g2.items():
            out[(e1, e2)] = out.get((e1, e2), 0.0) + sign * c1 * complex(c2).conjugate()
    return out


def _reference_merge(target, source, weight=1.0):
    for key, val in source.items():
        target[key] = target.get(key, 0.0) + weight * val


def reference_emit(f):
    """The earlier emitter: substitution into every homogenized component."""
    d = f.degree
    hats = [_reference_homogenize(p, d) for p in f.numerator]
    qhat = _reference_homogenize(f.denominator, d)
    n1 = f.n + 1
    signs = [1.0] * f.m + [-1.0] * f.l + [-1.0]
    polys = hats + [qhat]
    grouped = [_reference_grouped_substitution(p, n1) for p in polys]

    origin_key = tuple([0] * f.n + [d])
    lam = {}
    for sign, grp in zip(signs, grouped):
        g0 = grp.get(origin_key, {})
        _reference_merge(lam, _reference_sesquilinear(g0, g0, sign))

    base = {}
    for sign, p in zip(signs, polys):
        for e1, c1 in p.terms.items():
            for e2, c2 in p.terms.items():
                base[(e1, e2)] = base.get((e1, e2), 0.0) + sign * c1 * complex(c2).conjugate()
    h00 = base.get((origin_key, origin_key), 0.0).real
    if abs(h00) <= TAU_ZERO:
        raise MapConstructionError("the form vanishes at the origin row")

    vsupport = sorted(
        {v for grp in grouped for v in grp} | {v for pair in base for v in pair}, key=grlex_key
    )
    equations = []
    for i1, v1 in enumerate(vsupport):
        for v2 in vsupport[i1:]:
            terms = {}
            for sign, grp in zip(signs, grouped):
                g1, g2 = grp.get(v1), grp.get(v2)
                if g1 and g2:
                    _reference_merge(terms, _reference_sesquilinear(g1, g2, sign))
            h_value = base.get((v1, v2), 0.0)
            if abs(h_value) > TAU_ZERO:
                _reference_merge(terms, lam, weight=h_value * (-1.0 / h00))
            terms = {k: v for k, v in terms.items() if abs(v) > TAU_ZERO}
            if terms:
                equations.append(
                    {
                        "alpha": list(v1[: f.n]),
                        "mu": v1[f.n],
                        "beta": list(v2[: f.n]),
                        "nu": v2[f.n],
                        "terms": [
                            {"u": list(ue), "ubar": list(ve), "re": c.real, "im": c.imag}
                            for (ue, ve), c in sorted(terms.items())
                        ],
                    }
                )

    metric = []
    for k in range(n1):
        for m in range(k, n1):
            terms = []
            for j in range(n1):
                ue = [0] * (n1 * n1)
                ve = [0] * (n1 * n1)
                ue[k * n1 + j] = 1
                ve[m * n1 + j] = 1
                terms.append({"u": ue, "ubar": ve, "re": 1.0 if j < n1 - 1 else -1.0, "im": 0.0})
            constant = (-1.0 if k < n1 - 1 else 1.0) if k == m else 0.0
            metric.append({"row": k, "col": m, "constant": constant, "terms": terms})

    det_terms = []
    for perm in itertools.permutations(range(n1)):
        inv = sum(1 for i in range(n1) for j in range(i + 1, n1) if perm[i] > perm[j])
        ue = [0] * (n1 * n1)
        for i, j in enumerate(perm):
            ue[i * n1 + j] += 1
        det_terms.append(
            {"u": ue, "ubar": [0] * (n1 * n1), "re": -1.0 if inv % 2 else 1.0, "im": 0.0}
        )
    return {
        "schema": "invariance-system/1",
        "n": f.n,
        "degree": d,
        "target_signature": [f.m, f.l],
        "unknowns": {"shape": [n1, n1], "order": "row-major"},
        "equations": equations,
        "metric_constraints": metric,
        "determinant_constraint": {"constant": -1.0, "terms": det_terms},
    }


def densify(doc):
    """The document with every term's index lists turned into the dense
    (n+1)^2-entry exponent vectors the reference writes; each list must be
    ascending."""
    size = doc["unknowns"]["shape"][0] ** 2

    def dense(index):
        assert index == sorted(index) and all(0 <= i < size for i in index), index
        return np.bincount(np.array(index, dtype=int), minlength=size).tolist()

    def terms(ts):
        return [dict(t, u=dense(t["u"]), ubar=dense(t["ubar"])) for t in ts]

    return dict(
        doc,
        equations=[dict(e, terms=terms(e["terms"])) for e in doc["equations"]],
        metric_constraints=[dict(e, terms=terms(e["terms"])) for e in doc["metric_constraints"]],
        determinant_constraint=dict(
            doc["determinant_constraint"], terms=terms(doc["determinant_constraint"]["terms"])
        ),
    )


def assert_systems_agree(doc, ref):
    assert doc["schema"] == "invariance-system/2"
    doc = densify(doc)
    skip = ("schema", "equations")
    assert {k: v for k, v in doc.items() if k not in skip} == {
        k: v for k, v in ref.items() if k not in skip
    }
    heads = lambda s: [(e["alpha"], e["mu"], e["beta"], e["nu"]) for e in s["equations"]]
    assert heads(doc) == heads(ref)
    for eq, req in zip(doc["equations"], ref["equations"]):
        assert [(t["u"], t["ubar"]) for t in eq["terms"]] == [
            (t["u"], t["ubar"]) for t in req["terms"]
        ]
        got = np.array([complex(t["re"], t["im"]) for t in eq["terms"]])
        want = np.array([complex(t["re"], t["im"]) for t in req["terms"]])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------
def _faran2_generalized():
    f = catalog("faran-2")
    return RationalMap(f.numerator, f.denominator, l=1)


def _whitney_composite():
    rng = np.random.default_rng(7)
    gamma = BallAutomorphism(random_unitary(rng, 2), random_center(rng, 2, 0.4))
    return compose_source(catalog("whitney-seq-2"), gamma)


CASES = {
    **{name: functools.partial(catalog, name) for name in CATALOG_NAMES},
    "symmetric-2": functools.partial(symmetric_group_map, 2),
    "symmetric-3": functools.partial(symmetric_group_map, 3),
    "missing-origin": lambda: juxtapose_lambda(
        [tensor_power(2, 0), tensor_power(2, 2)], [0.6, 0.8]
    ),
    "faran-2-l1": _faran2_generalized,
    "whitney-composite": _whitney_composite,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_system_matches_substitution_reference(name):
    f = CASES[name]()
    assert_systems_agree(emit_invariance_system(f), reference_emit(f))


def test_evaluator_refuses_other_schemas():
    # read as index lists, the dense [1, 0, 0, ...] of a /1 term would be u_1 u_0^(n1^2 - 1)
    f = catalog("faran-2")
    unlabelled = {k: v for k, v in emit_invariance_system(f).items() if k != "schema"}
    for doc in (reference_emit(f), unlabelled):
        with pytest.raises(ValueError, match="invariance-system/2"):
            evaluate_invariance_system(doc, np.eye(3))


def test_evaluator_refuses_indices_outside_the_matrix():
    doc = emit_invariance_system(catalog("faran-2"))
    doc["equations"][0]["terms"][0] = dict(doc["equations"][0]["terms"][0], u=[0, 0, 9])
    with pytest.raises(ValueError, match="outside"):
        evaluate_invariance_system(doc, np.eye(3))


def test_evaluator_refuses_ragged_index_lists():
    doc = emit_invariance_system(catalog("faran-2"))
    doc["equations"][0]["terms"][0] = dict(doc["equations"][0]["terms"][0], ubar=[0])
    with pytest.raises(ValueError, match="unequal lengths"):
        evaluate_invariance_system(doc, np.eye(3))


def _reference_evaluate(system, matrix):
    """The evaluator on dense exponents: one (terms x 2 size) exponent row per
    term, of u_k in column k and of conj(u_k) in size + k, evaluated by
    monomial_values."""
    size = system["unknowns"]["shape"][0] ** 2
    u = np.asarray(matrix, dtype=complex).reshape(-1)
    equations = system["equations"]
    terms = [term for eq in equations for term in eq["terms"]]
    exps = np.zeros((len(terms), 2 * size), dtype=np.int64)
    for t, term in enumerate(terms):
        np.add.at(exps[t], term["u"], 1)
        np.add.at(exps[t], [size + k for k in term["ubar"]], 1)
    coeffs = np.array([complex(t["re"], t["im"]) for t in terms])
    values = coeffs * monomial_values(exps, [np.concatenate([u, u.conj()])])[0]
    magnitudes = np.abs(values)
    eq = np.repeat(np.arange(len(equations)), [len(e["terms"]) for e in equations])
    totals = np.zeros(len(equations), dtype=complex)
    np.add.at(totals, eq, values)
    return float(np.max(np.abs(totals), initial=0.0)), float(
        np.max(np.bincount(eq, magnitudes, len(equations)), initial=0.0)
    )


EVALUATOR_CASES = {
    **{name: functools.partial(catalog, name) for name in CATALOG_NAMES},
    "symmetric-2": functools.partial(symmetric_group_map, 2),
    "symmetric-3": functools.partial(symmetric_group_map, 3),
}


@pytest.mark.parametrize("name", sorted(EVALUATOR_CASES))
def test_evaluator_matches_the_dense_exponent_reference(name, rng):
    f = EVALUATOR_CASES[name]()
    doc = emit_invariance_system(f)
    n1 = f.n + 1
    perm = np.eye(n1, dtype=complex)
    perm[: f.n, : f.n] = np.eye(f.n)[rng.permutation(f.n)]
    random = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
    for matrix in (np.eye(n1), perm, random):
        want, scale = _reference_evaluate(doc, matrix)
        assert abs(evaluate_invariance_system(doc, matrix) - want) <= 1e-12 * scale


def test_whitney_composite_has_complex_coefficients():
    doc = emit_invariance_system(_whitney_composite())
    assert any(t["im"] != 0.0 for e in doc["equations"] for t in e["terms"])


def test_both_emitters_refuse_a_form_vanishing_at_the_origin_row():
    f = tensor_power(2, 0)
    with pytest.raises(MapConstructionError):
        emit_invariance_system(f)
    with pytest.raises(MapConstructionError):
        reference_emit(f)


# Coefficients are halves of small integers, so every sum of products both
# emitters form is exact and any difference comes from the emission itself,
# not from rounding.  With general floats the two differ in two known ways:
# sums that cancel carry rounding of the summands' size, and a monomial whose
# coefficients are all below about sqrt(TAU_ZERO) is dropped from the form
# (its row is negligible) but kept by the substitution once the multinomial
# weights lift its terms past TAU_ZERO.
halves = st.integers(-4, 4).map(lambda k: k / 2)
coefficients = st.builds(complex, halves, halves)


@st.composite
def small_maps(draw):
    nvars = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    components = draw(
        st.lists(
            st.dictionaries(exps, coefficients, min_size=1, max_size=4).map(
                lambda terms: Polynomial(nvars, terms)
            ),
            min_size=1,
            max_size=3,
        )
    )
    return polynomial_map(components, l=draw(st.integers(0, len(components) - 1)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_maps())
def test_system_matches_substitution_reference_on_random_maps(f):
    try:
        ref = reference_emit(f)
    except MapConstructionError:
        with pytest.raises(MapConstructionError):
            emit_invariance_system(f)
        return
    assert_systems_agree(emit_invariance_system(f), ref)


# ---------------------------------------------------------------------------
# the expansion helper and the term budget
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("a", [(0,), (3,), (1, 0), (2, 1), (0, 0, 3), (1, 2, 0, 1)])
def test_expansion_weights_sum_to_the_multinomial_total(a):
    n1 = len(a)
    E, w = _expansions(a)
    assert w.sum() == n1 ** sum(a)
    assert len(E) == math.prod(math.comb(aj + n1 - 1, n1 - 1) for aj in a)
    np.testing.assert_array_equal(E.reshape(-1, n1, n1).sum(axis=1), np.tile(a, (len(E), 1)))
    assert len({tuple(e) for e in E.tolist()}) == len(E)


def test_system_refuses_above_the_term_budget(monkeypatch):
    def unreachable(a):
        raise AssertionError("the system was expanded past the budget")

    monkeypatch.setattr(invariance, "_expansions", unreachable)
    with pytest.raises(CapabilityError, match="term pairs"):
        emit_invariance_system(symmetric_group_map(4))


_CAPPED_EMISSION = """
import resource, sys
cap = 3 * 1024 ** 3
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from ballmaps.cli import main
sys.exit(main(["emit-system", sys.argv[1], "-o", sys.argv[2]]))
"""


def _run_capped(tmp_path, n, timeout):
    pytest.importorskip("resource")
    mp = tmp_path / f"s{n}.json"
    mp.write_text(json.dumps(symmetric_group_map(n).to_dict()))
    out = tmp_path / f"s{n}-system.json"
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_EMISSION, str(mp), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done, out


def test_cli_emits_s3_within_3gb(tmp_path):
    done, out = _run_capped(tmp_path, 3, timeout=300)
    assert done.returncode == 0, done.stderr
    # the dense exponent lists of schema invariance-system/1 made this 49.5 MB
    assert out.stat().st_size < 8 * 1024**2
    doc = json.loads(out.read_text())
    assert len(doc["equations"]) == 209
    for perm in itertools.permutations(range(3)):
        matrix = np.eye(4, dtype=complex)
        matrix[:3, :3] = np.eye(3)[list(perm)]
        assert evaluate_invariance_system(doc, matrix) <= 1e-9, perm


def test_cli_refuses_s5_quickly_within_3gb(tmp_path):
    # building this system used to run 74 s and end in MemoryError
    done, out = _run_capped(tmp_path, 5, timeout=30)
    assert done.returncode == 4, done.stderr
    assert "term pairs" in done.stderr
    assert not out.exists()
