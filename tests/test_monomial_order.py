"""Graded-lex ordering and alignment through the monomial kernel.

``polynomials.grlex_order`` and ``polynomials.grlex_union`` are the only
places that order and align monomials.  The references below are the code
they replaced: a sorted set with an index search, the per-entry sort of
``HermitianForm.to_dict`` and ``block_partition``'s dict accumulation and
union-find.  Each must agree exactly with the kernel-based code.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ballmaps
from ballmaps import (
    HermitianForm,
    block_partition,
    catalog,
    compose_source,
    factor_form,
    form_of,
    juxtapose_lambda,
    juxtapose_theta,
    oplus,
    tensor_power,
    unitary_automorphism,
    whitney_map,
)
from ballmaps.invariance import TAU_EQ
from ballmaps.maps import CATALOG_NAMES
from ballmaps.polynomials import TAU_ZERO, grlex_key, grlex_order, grlex_union
from ballmaps.realize import FactorizationResult

from conftest import random_unitary


# ---------------------------------------------------------------------------
# grlex_union and grlex_order
# ---------------------------------------------------------------------------
@st.composite
def _monomial_lists(draw):
    nvars = draw(st.sampled_from([0, 1, 2, 3, 70]))
    mono = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(tuple)
    pool = draw(st.lists(mono, min_size=1, max_size=6))
    # drawing from a small pool repeats monomials within and across lists
    return draw(st.lists(st.lists(st.sampled_from(pool), max_size=8), max_size=4))


@settings(max_examples=200, deadline=None)
@given(_monomial_lists())
def test_grlex_union_matches_sorted_set_reference(lists):
    union, positions = grlex_union(*lists)
    want = sorted(set().union(*lists), key=lambda a: (sum(a), a))
    assert union == want
    assert len(positions) == len(lists)
    for monos, at in zip(lists, positions):
        assert at.dtype == np.int64 and at.shape == (len(monos),)
        assert at.tolist() == [want.index(m) for m in monos]


@settings(max_examples=100, deadline=None)
@given(_monomial_lists())
def test_grlex_order_sorts_rows_like_grlex_key(lists):
    monos = [m for monos in lists for m in monos]
    if not monos:
        return
    exps = np.array(monos, dtype=np.int64).reshape(len(monos), len(monos[0]))
    order = grlex_order(exps)
    assert order.tolist() == sorted(range(len(monos)), key=lambda i: grlex_key(monos[i]))


# ---------------------------------------------------------------------------
# HermitianForm.to_dict
# ---------------------------------------------------------------------------
def _reference_to_dict(h):
    items = []
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    for i, j in zip(rows.tolist(), cols.tolist()):
        a, b, c = h.basis[i], h.basis[j], complex(h.mat[i, j])
        if grlex_key(a) <= grlex_key(b):
            items.append({"alpha": list(a), "beta": list(b), "re": c.real, "im": c.imag})
    items.sort(key=lambda e: (grlex_key(tuple(e["alpha"])), grlex_key(tuple(e["beta"]))))
    return {"nvars": h.nvars, "entries": items}


def _random_form(rng, nvars):
    """A complex form over an unsorted basis, with zero, tiny and -0.0 entries."""
    size = int(rng.integers(1, 12))
    exps = rng.integers(0, 4, size=(3 * size, nvars))
    basis = [tuple(e) for e in np.unique(exps, axis=0).tolist()][:size]
    rng.shuffle(basis)
    mat = rng.standard_normal((len(basis),) * 2) + 1j * rng.standard_normal((len(basis),) * 2)
    mat[rng.random(mat.shape) < 0.3] = 0.0
    mat[rng.random(mat.shape) < 0.1] = 1e-14
    mat[rng.random(mat.shape) < 0.1] = complex(-0.0, 0.5)
    return HermitianForm(nvars, basis, mat + mat.conj().T)


@pytest.mark.parametrize("seed", range(40))
def test_to_dict_matches_sorted_entry_reference(seed):
    rng = np.random.default_rng(seed)
    h = _random_form(rng, int(rng.integers(1, 4)))
    assert list(h.basis) == sorted(h.basis, key=grlex_key)
    assert json.dumps(h.to_dict()) == json.dumps(_reference_to_dict(h))


def test_form_from_unsorted_basis_is_permuted_into_order():
    basis = [(2, 0), (0, 0), (1, 1), (0, 1)]
    mat = np.arange(16.0).reshape(4, 4) * (1 + 1j)
    mat = mat + mat.conj().T
    h = HermitianForm(2, basis, mat)
    assert h.basis == ((0, 0), (0, 1), (1, 1), (2, 0))
    order = [1, 3, 2, 0]
    assert np.array_equal(h.mat, mat[np.ix_(order, order)])


# ---------------------------------------------------------------------------
# block_partition
# ---------------------------------------------------------------------------
def _reference_block_partition(f, tol=TAU_EQ):
    """Dict accumulation per rotation derivation and a union-find."""
    h = form_of(f)
    n = f.n
    cut = tol * max(1.0, h.max_abs())

    def derivation_vanishes(i, j):
        acc = {}
        for a, b, c in h.entries():
            if a[j]:
                na = list(a)
                na[j] -= 1
                na[i] += 1
                key = (tuple(na), b)
                acc[key] = acc.get(key, 0.0) + c * a[j]
            if b[i]:
                nb = list(b)
                nb[i] -= 1
                nb[j] += 1
                key = (a, tuple(nb))
                acc[key] = acc.get(key, 0.0) - c * b[i]
        return max((abs(v) for v in acc.values()), default=0.0) <= cut

    def phase_invariant(i):
        return all(not (a[i] != b[i] and abs(c) > cut) for a, b, c in h.entries())

    phase_ok = [phase_invariant(i) for i in range(n)]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if phase_ok[i] and phase_ok[j]:
                if derivation_vanishes(i, j) and derivation_vanishes(j, i):
                    parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


_BASE_MAPS = {
    **{name: lambda name=name: catalog(name) for name in CATALOG_NAMES},
    **{
        f"tensor-power-{n}-{m}": lambda n=n, m=m: tensor_power(n, m)
        for n in (2, 3, 4)
        for m in (1, 2, 3)
    },
    **{f"whitney-{n}": lambda n=n: whitney_map(n) for n in (2, 3, 4)},
    "theta-powers-2": lambda: juxtapose_theta(tensor_power(2, 1), tensor_power(2, 2), 0.7),
    "theta-faran-3": lambda: juxtapose_theta(catalog("faran-3"), tensor_power(2, 3), 0.3),
    "oplus-example-3-1": lambda: oplus(catalog("example-3-1"), tensor_power(3, 2), (0.6, 0.8)),
    "lambda-powers-3": lambda: juxtapose_lambda(
        [tensor_power(3, 1), tensor_power(3, 2), whitney_map(3)], [0.6, 0.0, 0.8]
    ),
}


def _block_unitary(rng, blocks, n):
    U = np.zeros((n, n), dtype=complex)
    for block in blocks:
        U[np.ix_(block, block)] = random_unitary(rng, len(block))
    return U


@pytest.mark.parametrize("name", sorted(_BASE_MAPS))
def test_block_partition_matches_union_find_reference(name):
    """The map, four conjugations by unitaries preserving its reference
    blocks and one by a generic unitary: six maps per base map, 168 in all."""
    f = _BASE_MAPS[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    blocks = _reference_block_partition(f)
    unitaries = [_block_unitary(rng, blocks, f.n) for _ in range(4)]
    maps = [f] + [compose_source(f, unitary_automorphism(U)) for U in unitaries]
    maps.append(compose_source(f, unitary_automorphism(random_unitary(rng, f.n))))
    for g in maps:
        assert block_partition(g).blocks == _reference_block_partition(g)


# ---------------------------------------------------------------------------
# FactorizationResult equality
# ---------------------------------------------------------------------------
def test_factorization_results_compare_by_value():
    first = factor_form(form_of(catalog("faran-2")))
    second = factor_form(form_of(catalog("faran-2")))
    assert first is not second and first == second
    assert first != factor_form(form_of(catalog("faran-3")))
    assert first != FactorizationResult(first.monos, 2 * first.positives, first.negatives)
    assert first != FactorizationResult(first.monos[::-1], first.positives, first.negatives)
    assert first != "faran-2"


# ---------------------------------------------------------------------------
# the order lives in polynomials.py
# ---------------------------------------------------------------------------
def _ordering_sites(tree):
    """grlex_key references and index dicts built from enumerate or range."""
    for node in ast.walk(tree):
        name = next((getattr(node, k) for k in ("id", "attr", "name") if hasattr(node, k)), None)
        if name == "grlex_key":
            yield node.lineno, "grlex_key"
        if isinstance(node, ast.DictComp) and any(
            isinstance(g.iter, ast.Call) and getattr(g.iter.func, "id", None) == "enumerate"
            for g in node.generators
        ):
            yield node.lineno, "index dict"
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "dict"
            and any(
                isinstance(arg, ast.Call)
                and getattr(arg.func, "id", None) == "zip"
                and any(
                    isinstance(z, ast.Call) and getattr(z.func, "id", None) in ("range", "count")
                    for z in arg.args
                )
                for arg in node.args
            )
        ):
            yield node.lineno, "index dict"


def test_monomial_order_and_index_dicts_only_in_polynomials():
    package = Path(ballmaps.__file__).parent
    found = {
        f"{path.name}:{line} {what}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "polynomials.py"
        for line, what in _ordering_sites(ast.parse(path.read_text()))
    }
    assert not found
    polynomials = ast.parse((package / "polynomials.py").read_text())
    assert {what for _, what in _ordering_sites(polynomials)} == {"grlex_key", "index dict"}


def test_ordering_guard_flags_each_pattern():
    source = (
        "from .polynomials import grlex_key\n"
        "a = sorted(xs, key=polynomials.grlex_key)\n"
        "b = {m: i for i, m in enumerate(xs)}\n"
        "c = dict(zip(xs, range(len(xs))))\n"
    )
    assert sorted(_ordering_sites(ast.parse(source))) == [
        (1, "grlex_key"), (2, "grlex_key"), (3, "index dict"), (4, "index dict"),
    ]


# ---------------------------------------------------------------------------
# Polynomial is an input/output view: no arithmetic in the package
# ---------------------------------------------------------------------------
_ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"}


def _polynomial_arithmetic_sites(tree):
    """Arithmetic dunders defined or assigned in the body of Polynomial or of a
    class deriving from it, or assigned onto Polynomial from outside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "Polynomial" in (
            node.name, *(getattr(b, "id", getattr(b, "attr", None)) for b in node.bases)
        ):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = [item.name]
                else:
                    names = [getattr(t, "id", None) for t in getattr(item, "targets", [])]
                yield from ((item.lineno, name) for name in names if name in _ARITHMETIC)
        if isinstance(node, ast.Assign):
            yield from (
                (node.lineno, t.attr)
                for t in node.targets
                if isinstance(t, ast.Attribute)
                and t.attr in _ARITHMETIC
                and getattr(t.value, "id", None) == "Polynomial"
            )


def test_polynomial_defines_no_arithmetic():
    package = Path(ballmaps.__file__).parent
    found = {
        f"{path.name}:{line} {name}"
        for path in sorted(package.rglob("*.py"))
        for line, name in _polynomial_arithmetic_sites(ast.parse(path.read_text()))
    }
    assert not found
    assert not [name for name in _ARITHMETIC if hasattr(ballmaps.Polynomial, name)]


def test_arithmetic_guard_flags_each_pattern():
    source = (
        "class Polynomial:\n"
        "    def __add__(self, other): ...\n"
        "class Poly(polynomials.Polynomial):\n"
        "    __rmul__ = scale\n"
        "Polynomial.__pow__ = power\n"
        "class HermitianForm:\n"
        "    def __mul__(self, other): ...\n"
    )
    assert sorted(_polynomial_arithmetic_sites(ast.parse(source))) == [
        (2, "__add__"), (4, "__rmul__"), (5, "__pow__"),
    ]
    conftest = Path(__file__).with_name("conftest.py").read_text()
    assert {name for _, name in _polynomial_arithmetic_sites(ast.parse(conftest))} == _ARITHMETIC
