"""Hermitian coefficient-matrix forms, properness certificates, and ranks.

A Hermitian form represents a real polynomial sum c_{ab} z^a conj(z)^b as a
Hermitian matrix over a graded-lex monomial basis.  Properness of a rational
map is certified by dividing its form by the sphere defining function
|z|^2 - 1: the division recursion is exact in exact arithmetic, so a nonzero
remainder (beyond rounding noise) witnesses failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .maps import RationalMap
from .polynomials import (
    KeyIndex,
    MonomialKeys,
    MultiIndex,
    TAU_ZERO,
    check_array_budget,
    checked_coefficient,
    checked_exponent,
    degree_monomials,
    exponent_array,
    grlex_monomials,
    grlex_order,
    grlex_sums,
    grlex_union,
    held_array,
    monomial_values,
    multinomial,
    row_products,
)

#: Relative tolerance for the sphere-division remainder.
TAU_DIV = 1e-9

#: Eigenvalue threshold relative to the Jacobi-scaled spectrum (:func:`_block_spectra`).
TAU_SIG = 1e-8


class HermitianForm:
    """Hermitian matrix over a graded-lex monomial basis.

    ``basis[i]`` is the multi-index of the i-th monomial and ``mat[i, j]`` is
    the coefficient of z^basis[i] * conj(z^basis[j]).  The constructor sorts and
    symmetrizes; a slice, real multiple, sum or difference is held as formed.
    Every form is held with its support decided (:meth:`_hold`); then a
    matrix whose imaginary part is exactly zero is held as float64, any
    other as complex128 (:func:`ballmaps.polynomials.held_array`).  Every
    dense matrix a constructor allocates is first counted against
    :func:`ballmaps.polynomials.check_array_budget`.
    """

    __slots__ = ("nvars", "basis", "mat")

    def __init__(self, nvars: int, basis: Sequence[MultiIndex], mat: np.ndarray):
        exps = exponent_array(basis, nvars)
        order = grlex_order(exps)
        basis = tuple(map(tuple, exps[order].tolist()))
        mat = np.asarray(mat)
        if mat.shape != (len(basis), len(basis)):
            raise ValueError("matrix shape does not match basis size")
        check_array_budget(mat.shape, np.result_type(mat, float))
        if (order != np.arange(len(order))).any():
            mat = mat[np.ix_(order, order)]
        self._hold(nvars, basis, 0.5 * (mat + mat.conj().T))

    def _hold(self, nvars: int, basis: tuple[MultiIndex, ...], mat: np.ndarray) -> None:
        """Hold ``mat``, a fresh array, with each entry 0 < |h_ab| <= TAU_ZERO
        max(1, d_a d_b) zeroed in place, d = :func:`_jacobi_scale` as in :func:`_block_spectra`.
        Such an entry is at most TAU_ZERO in the scaled matrix, whose largest
        |lambda| is at least 1, so it moves no spectral decision."""
        support = mat != 0
        mags = np.abs(mat[support])
        # every cut is TAU_ZERO max(1, max|h|) at most (2x covers its rounding)
        if mags.size and mags.min() <= 2 * TAU_ZERO * max(1.0, mags.max()):
            rows, cols = np.divmod(np.flatnonzero(support), len(mat))
            d = _jacobi_scale(mat)
            drop = mags <= TAU_ZERO * np.maximum(d[rows] * d[cols], 1.0)
            mat[rows[drop], cols[drop]] = 0.0
        mat = held_array(mat)
        mat.setflags(write=False)
        for name, value in zip(self.__slots__, (nvars, basis, mat)):
            object.__setattr__(self, name, value)

    @classmethod
    def _held(cls, nvars: int, basis: Sequence[MultiIndex], mat: np.ndarray) -> "HermitianForm":
        """The form holding ``mat``, Hermitian over the graded-lex sorted ``basis``."""
        h = object.__new__(cls)
        h._hold(nvars, tuple(basis), mat)
        return h

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("HermitianForm is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "HermitianForm":
        return cls(nvars, [], np.zeros((0, 0)))

    @classmethod
    def from_entries(
        cls, nvars: int, entries: Mapping[tuple[MultiIndex, MultiIndex], complex]
    ) -> "HermitianForm":
        """The form with entry c at (alpha, beta) for each item.  Exponents
        must be non-negative integers and entries finite; anything else
        raises ``ValueError``."""
        pairs = [(checked_exponent(a, nvars), checked_exponent(b, nvars)) for a, b in entries]
        values = [checked_coefficient(c, at) for at, c in zip(pairs, entries.values())]
        basis, (rows, cols) = grlex_union([a for a, _ in pairs], [b for _, b in pairs])
        check_array_budget((len(basis),) * 2, complex)
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for i, j, c in zip(rows.tolist(), cols.tolist(), values):
            if abs(c) > TAU_ZERO:
                mat[i, j] += 0.5 * c
                mat[j, i] += 0.5 * complex(c).conjugate()
        return cls(nvars, basis, mat).compressed()

    @classmethod
    def constant(cls, nvars: int, value: float) -> "HermitianForm":
        zero = (0,) * nvars
        return cls.from_entries(nvars, {(zero, zero): value})

    # -- queries -------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.basis)

    def entry(self, alpha: Sequence[int], beta: Sequence[int]) -> complex:
        try:
            i = self.basis.index(tuple(alpha))
            j = self.basis.index(tuple(beta))
        except ValueError:
            return 0.0 + 0.0j
        return complex(self.mat[i, j])

    def entries(self) -> Iterator[tuple[MultiIndex, MultiIndex, complex]]:
        """The held entries: every one is above TAU_ZERO (:meth:`_hold`)."""
        rows, cols = np.nonzero(self.mat != 0)
        for i, j in zip(rows.tolist(), cols.tolist()):
            yield self.basis[i], self.basis[j], complex(self.mat[i, j])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.mat))) if self.size else 0.0

    def max_degree(self) -> int:
        return max((sum(b) for b in self.basis), default=0)

    def is_diagonal(self, tol: float) -> bool:
        if not self.size:
            return True
        off = self.mat - np.diag(np.diag(self.mat))
        return float(np.max(np.abs(off))) <= tol

    def evaluate(self, z: Sequence[complex]) -> float:
        """Value sum h_ab z^a conj(z^b) of the form at a point."""
        vals = monomial_values(self.basis, [z])[0]
        return float((vals @ self.mat @ vals.conj()).real)

    def compressed(self) -> "HermitianForm":
        """Drop basis monomials whose row and column hold no entry."""
        keep = np.flatnonzero(self.mat.any(axis=0))
        if len(keep) == self.size:
            return self
        basis = [self.basis[i] for i in keep.tolist()]
        return HermitianForm._held(self.nvars, basis, self.mat[np.ix_(keep, keep)])

    def __repr__(self) -> str:
        return f"HermitianForm(nvars={self.nvars}, basis_size={self.size})"

    # -- arithmetic ----------------------------------------------------------
    def _combined(self, other: "HermitianForm", op: np.ufunc) -> tuple[list, np.ndarray]:
        """The union basis and one array over it: self placed, then other put in
        by ``op`` (np.add or np.subtract), op(a, b) with zeros outside a basis."""
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch between forms")
        basis, (pa, pb) = grlex_union(self.basis, other.basis)
        dtype = np.result_type(self.mat, other.mat)
        check_array_budget((len(basis),) * 2, dtype)
        out = np.zeros((len(basis),) * 2, dtype=dtype)
        out[np.ix_(pa, pa)] = self.mat
        at = np.ix_(pb, pb)
        out[at] = op(out[at], other.mat)
        return basis, out

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        return HermitianForm._held(self.nvars, *self._combined(other, np.add)).compressed()

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        return HermitianForm._held(self.nvars, *self._combined(other, np.subtract)).compressed()

    def scale(self, factor: float) -> "HermitianForm":
        return HermitianForm._held(self.nvars, self.basis, self.mat * float(factor))

    def __mul__(self, other: "HermitianForm") -> "HermitianForm":
        """Product as real polynomials in (z, conj z).

        A form is the sum over a of z^a times its row a, a polynomial in
        conj z.  Row a + c of the product sums the products of row a of self
        and row c of other, formed by :func:`row_products` over the held
        entries, so every entry is summed in the order of the pairs of
        entries (a, b) of self, (c, d) of other.  Rows and columns run
        over the same sums of a monomial of each basis (:func:`grlex_sums`).
        The product's dense matrix is the accumulator of :func:`row_products`.
        """
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch between forms")
        n = self.nvars
        _, target = grlex_sums(n, exponent_array(self.basis, n), exponent_array(other.basis, n))
        pairs = np.indices(target.shape).reshape(2, -1).T
        left, right = (self.basis, self.mat), (other.basis, other.mat)
        exps, rows = row_products(n, left, right, pairs, target.ravel())
        return HermitianForm(n, exps.tolist(), rows).compressed()

    def max_entry_diff(self, other: "HermitianForm") -> float:
        _, diff = self._combined(other, np.subtract)
        return float(np.max(np.abs(diff), initial=0.0))

    # -- serialization --------------------------------------------------------
    def to_dict(self) -> dict:
        """The upper-triangle held entries, in (alpha, beta) graded-lex
        order: the basis is sorted, so that is the row-major order."""
        rows, cols = np.nonzero(np.triu(self.mat != 0))
        items = [
            {"alpha": list(self.basis[i]), "beta": list(self.basis[j]), "re": c.real, "im": c.imag}
            for i, j, c in zip(rows.tolist(), cols.tolist(), self.mat[rows, cols].tolist())
        ]
        return {"nvars": self.nvars, "entries": items}

    @classmethod
    def from_dict(cls, data: Mapping) -> "HermitianForm":
        nvars = int(data["nvars"])
        entries: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for item in data.get("entries", []):
            a, b = tuple(item["alpha"]), tuple(item["beta"])
            c = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
            entries[(a, b)] = entries.get((a, b), 0.0) + c
            if a != b:
                entries[(b, a)] = entries.get((b, a), 0.0) + c.conjugate()
        return cls.from_entries(nvars, entries)


def _support_blocks(support: np.ndarray) -> np.ndarray:
    """Connected-component label of each vertex of a symmetric adjacency matrix:
    the smallest vertex of its component.

    Every vertex points at a vertex of its component.  Each round hooks the
    root of every edge's first end onto the smaller root of its second end,
    then jumps pointers to pointers until every vertex points at a root;
    rounds repeat until no root moves.
    """
    rows, cols = np.nonzero(support)
    labels = np.arange(len(support))
    while True:
        before = labels.copy()
        np.minimum.at(labels, labels[rows], labels[cols])
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


# ---------------------------------------------------------------------------
# standard forms
# ---------------------------------------------------------------------------
def sphere_form(nvars: int) -> HermitianForm:
    """|z|^2 - 1."""
    return norm_power_form(nvars, 1) - HermitianForm.constant(nvars, 1.0)


def norm_power_form(nvars: int, power: int) -> HermitianForm:
    """|z|^(2 power) as a diagonal form with multinomial coefficients."""
    return _norm_power_sum(nvars, (1.0,), (power,))


def _norm_power_sum(nvars: int, lambdas: Sequence[float], powers: Sequence[int]) -> HermitianForm:
    """sum_j lambda_j^2 |z|^(2 m_j), the diagonal form of the weighted
    multinomials; the powers ascend, so the basis is graded-lex sorted."""
    assert all(a < b for a, b in zip(powers, powers[1:])), f"powers {powers} do not ascend"
    blocks = [(lam * lam, degree_monomials(nvars, m)) for lam, m in zip(lambdas, powers)]
    basis = [alpha for _, monos in blocks for alpha in monos]
    check_array_budget((len(basis),) * 2, float)
    diagonal = [float(multinomial(alpha)) * weight for weight, monos in blocks for alpha in monos]
    return HermitianForm._held(nvars, basis, np.diag(diagonal))


def gram_form(
    nvars: int,
    monos: Sequence[MultiIndex],
    A: np.ndarray,
    signs: Sequence[float] | None = None,
) -> HermitianForm:
    """sum_k signs_k p_k conj(p_k) as a Hermitian form (default all +1).

    ``A`` holds one coefficient row per polynomial p_k over the graded-lex
    monomials ``monos`` (see :func:`ballmaps.maps.coefficient_matrix`); the
    form is the product A^T S conj(A) with the diagonal sign matrix S, real
    when A is (a quarter of the flops of a complex product).
    """
    sgn = np.ones(len(A)) if signs is None else np.asarray(signs, dtype=float)
    A = held_array(A)
    check_array_budget((A.shape[1],) * 2, A.dtype)
    gram = A.T @ (sgn[:, None] * A.conj())
    return HermitianForm(nvars, monos, gram).compressed()


def form_of(f: RationalMap) -> HermitianForm:
    """Hermitian form |p|^2_l - |q|^2 of a normalized rational map.

    Built from the map's coefficient array on first use and kept on the map.
    """
    if f._form is None:
        signs = [1.0] * f.m + [-1.0] * (f.l + 1)
        object.__setattr__(f, "_form", gram_form(f.n, f.monos, f.coeffs, signs))
    return f._form


# ---------------------------------------------------------------------------
# division by the sphere and properness
# ---------------------------------------------------------------------------
class SphereDivision:
    """A division by |z|^2 - 1: the residual, and the quotient built on first read."""

    def __init__(self, residual: float, assemble: Callable[[], HermitianForm]):
        self.residual = residual
        self._assemble = assemble

    @cached_property
    def quotient(self) -> HermitianForm:
        return self._assemble()


def quotient_by_sphere(h: HermitianForm) -> SphereDivision:
    """Divide h by |z|^2 - 1: the residual at once, the quotient u on first read.

    The residual is the largest |entry| of the remainder h - u (|z|^2 - 1);
    it vanishes (to rounding) exactly when h vanishes on the unit sphere.
    The quotient entries satisfy the recursion
    ``u[a, b] = sum_i u[a - e_i, b - e_i] - h[a, b]`` seeded with
    ``u[0, 0] = -h[0, 0]``, over the rows and columns of degree < D, D the
    max degree of h.

    The sphere is invariant under the diagonal torus, so the recursion never
    leaves a class delta = a - b.  Writing a = delta+ + c and b = delta- + c
    with c = min(a, b), class delta is a recursion in x = |z|^2 over the
    cells c of the x-simplex: ``u[c] = -h[c] + sum_i u[c - e_i]`` for cells
    of degree < D - max(|delta+|, |delta-|).  All classes are held in one
    (x-simplex x classes) array and run one cell degree at a time, with one
    gather per variable; every entry is summed in the same order as a dense
    recursion over the pairs of monomials would sum it.  The arrays take the
    dtype of h, so a real form divides in real arithmetic.  Cells and classes
    are keyed by :class:`MonomialKeys` in base D + 1, a class by the pair
    (key(delta+), key(delta-)).  The array is counted against
    :func:`ballmaps.polynomials.check_array_budget` before it is allocated.
    """
    n = h.nvars
    rows, cols = np.nonzero(h.mat != 0)
    if not len(rows):
        return SphereDivision(0.0, lambda: HermitianForm.zero(n))
    D = h.max_degree()
    monomial_keys = MonomialKeys(n, D)
    exps = exponent_array(h.basis, n)
    plus, minus = exps[rows], exps[cols]
    cells = np.minimum(plus, minus)
    plus -= cells
    minus -= cells
    # classes, by the pair (key(delta+), key(delta-)) in one lexicographic
    # sort (the two keys in one int64 could overflow), stable so ``first`` is
    # each class's first entry; np.lexsort spelled as its two stable passes,
    # which numpy runs faster; then largest degree bound first: at each cell
    # degree the classes still in the recursion are a prefix
    plus_key, minus_key = monomial_keys.keys(plus), monomial_keys.keys(minus)
    by_minus = np.argsort(minus_key, kind="stable")
    by_pair = by_minus[np.argsort(plus_key[by_minus], kind="stable")]
    plus_key, minus_key = plus_key[by_pair], minus_key[by_pair]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (plus_key[1:] != plus_key[:-1]) | (minus_key[1:] != minus_key[:-1])
    first = by_pair[starts]
    cls = np.empty_like(by_pair)
    cls[by_pair] = np.cumsum(starts) - 1
    bound = D - np.maximum(plus[first].sum(axis=1), minus[first].sum(axis=1))
    check_array_budget((math.comb(int(bound.max()) + n, n), len(first)), h.mat.dtype)
    order = np.argsort(-bound, kind="stable")
    bound, first = bound[order], first[order]
    cls = np.argsort(order)[cls]

    # the x-simplex up to the largest bound, one degree at a time: a cell of
    # degree t is a cell of degree t - 1 times an x_i with i at least its last
    # variable, so each cell is made once
    levels, last = [np.zeros(1, dtype=np.int64)], np.zeros(1, dtype=np.int64)
    for _ in range(bound[0]):
        cell, last = np.nonzero(np.arange(n) >= last[:, None])
        levels.append(levels[-1][cell] + monomial_keys.weights[last])
    keys = np.concatenate(levels)
    bounds = np.cumsum([0] + [len(level) for level in levels])
    index_of = KeyIndex(keys).lookup

    # per variable: the cells containing x_i (dst), those cells divided by x_i
    # (src), and where each degree starts in dst
    cell_exps = monomial_keys.exponents(keys)
    steps = []
    for i in range(n):
        dst = np.flatnonzero(cell_exps[:, i] > 0)
        src = index_of(keys[dst] - monomial_keys.weights[i])
        steps.append((dst, src, np.searchsorted(dst, bounds)))

    # the recursion, and the remainder h + u - sum_i u[c - e_i] of each cell
    # from the same gathers: class delta has a remainder up to its bound
    H = np.zeros((len(keys), len(first)), dtype=h.mat.dtype)
    H[index_of(monomial_keys.keys(cells)), cls] = h.mat[rows, cols]
    U = np.zeros_like(H)
    residual = 0.0
    for t in range(bound[0] + 1):
        lo, hi = bounds[t], bounds[t + 1]
        active, live = np.count_nonzero(bound > t), np.count_nonzero(bound >= t)
        block = -H[lo:hi, :active]
        gathers = []
        for dst, src, starts in steps:
            run = slice(starts[t], starts[t + 1])
            at, gathered = dst[run] - lo, U[src[run], :live]
            block[at] += gathered[:, :active]
            gathers.append((at, gathered))
        U[lo:hi, :active] = block
        remainder = H[lo:hi, :live] + U[lo:hi, :live]
        for at, gathered in gathers:
            remainder[at] -= gathered
        residual = max(residual, float(np.max(np.abs(remainder))))

    deltas = monomial_keys.keys(np.stack([plus[first], minus[first]]))

    def quotient() -> HermitianForm:
        # scatter u back onto (delta+ + c, delta- + c)
        cell, of = np.nonzero(U != 0)
        monos, index = np.unique(keys[cell] + deltas[:, of], return_inverse=True)
        check_array_budget((len(monos),) * 2, U.dtype)
        mat = np.zeros((len(monos),) * 2, dtype=U.dtype)
        mat[tuple(index.reshape(2, -1))] = U[cell, of]
        return HermitianForm(n, monomial_keys.exponents(monos).tolist(), mat).compressed()

    return SphereDivision(residual, quotient)


@dataclass(frozen=True)
class ProperResult:
    """Properness of a map; the quotient is assembled from ``division`` when read."""

    proper: bool
    division: SphereDivision
    residual: float
    tolerance: float

    @property
    def quotient(self) -> HermitianForm:
        return self.division.quotient

    def to_dict(self) -> dict:
        return {"proper": self.proper, "residual": self.residual, "tolerance": self.tolerance}


def is_proper(f: RationalMap, tol_div: float = TAU_DIV) -> ProperResult:
    """Certify properness by exact division of the form by |z|^2 - 1."""
    h = form_of(f)
    division = quotient_by_sphere(h)
    threshold = tol_div * (1.0 + h.max_abs())
    proper = division.residual <= threshold
    if proper:
        # the denominator-degree bound holds for maps fixing the origin; a
        # violation there (or a vanishing form) flags a representation that
        # cannot be in lowest terms
        if not h.mat.any():
            warnings.warn(
                "form is identically zero; numerator and denominator share "
                "a unimodular factor and cannot be in lowest terms",
                stacklevel=2,
            )
        elif (
            f.degree >= 1
            and f.maps_origin_to_zero()
            and exponent_array(f.monos, f.n)[f.coeffs[-1] != 0].sum(axis=1).max() > f.degree - 1
        ):
            warnings.warn(
                "origin-fixing proper map with denominator degree exceeding "
                "degree - 1; the representation is unlikely to be in lowest terms",
                stacklevel=2,
            )
    return ProperResult(proper, division, division.residual, threshold)


# ---------------------------------------------------------------------------
# signature and ranks
# ---------------------------------------------------------------------------
def _jacobi_scale(mat: np.ndarray) -> np.ndarray:
    """d_a = sqrt(max_b |h_ab|), 1 on an empty row: h_ab / (d_a d_b) keeps the
    inertia and resolves rows of any magnitude to the same relative accuracy
    (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992)."""
    d = np.sqrt(np.max(np.abs(mat), axis=1, initial=0.0))
    d[d == 0.0] = 1.0
    return d


def _block_spectra(h: HermitianForm, tol_sig: float) -> tuple[float, list[tuple]]:
    """The largest |lambda| over the Jacobi-scaled support blocks of h and, per
    block size, its blocks stacked by smallest row: rows (k, size), scales d
    (:func:`_jacobi_scale`), the scaled blocks' ascending eigenvalues lambda and
    eigenvectors V (a block is diag(d) V diag(lambda) V^H diag(d)), and the lambda
    that count, |lambda| above tol_sig times that largest.  An empty row is a block
    of its own, with lambda 0; no row has an entry outside its block, so these are
    the whole scaled matrix's lambda.  One eigh per size solves each block alone."""
    labels, d = _support_blocks(h.mat != 0), _jacobi_scale(h.mat)
    sizes = np.bincount(labels)[labels]
    spectra = []
    for size in np.unique(sizes):
        at = np.flatnonzero(sizes == size)
        idx = at[np.argsort(labels[at], kind="stable")].reshape(-1, size)
        di = d[idx]
        scaled = h.mat[idx[:, :, None], idx[:, None, :]]
        scaled /= di[:, :, None] * di[:, None, :]
        spectra.append((idx, di, *np.linalg.eigh(scaled)))
    scale = max((float(np.max(np.abs(e))) for _, _, e, _ in spectra), default=0.0)
    return scale, [(*block, np.abs(block[2]) > tol_sig * scale) for block in spectra]


@dataclass(frozen=True)
class Signature:
    """Inertia of a form; ``margin`` and ``dropped`` are the smallest kept and
    the largest dropped |eigenvalue| over the scale (inf and 0.0 if none)."""

    positive: int
    negative: int
    zero: int
    margin: float
    dropped: float

    @property
    def rank(self) -> int:
        return self.positive + self.negative

    def to_dict(self) -> dict:
        return {
            "positive": self.positive,
            "negative": self.negative,
            "zero": self.zero,
            "margin": self.margin,
            "dropped": self.dropped,
        }


def signature(h: HermitianForm, tol_sig: float = TAU_SIG) -> Signature:
    """Inertia of h: the signs of the eigenvalues that count in its block spectra
    (:func:`_block_spectra`), which :func:`ballmaps.realize.factor_form` factors."""
    scale, blocks = _block_spectra(h, tol_sig)
    eigs = np.concatenate([np.zeros(0), *(e.ravel() for _, _, e, _, _ in blocks)])
    keep = np.concatenate([np.zeros(0, dtype=bool), *(k.ravel() for *_, k in blocks)])
    pos, neg = int(np.count_nonzero(eigs[keep] > 0)), int(np.count_nonzero(eigs[keep] < 0))
    mags = np.abs(eigs) / (scale or 1.0)
    margin = float(np.min(mags[keep], initial=math.inf))
    return Signature(pos, neg, h.size - pos - neg, margin, float(np.max(mags[~keep], initial=0.0)))


def hermitian_rank(f: RationalMap, tol_sig: float = TAU_SIG) -> int:
    return signature(form_of(f), tol_sig).rank


def image_rank(f: RationalMap, tol_sig: float = TAU_SIG, check: bool = True) -> int:
    """Smallest affine dimension containing the image (true balls only).

    Computed as the rank of the stacked coefficient matrix of (p, q) minus
    one; when ``check`` is set the result is compared against
    hermitian_rank - 1 and a warning is emitted on mismatch.
    """
    if f.l != 0:
        raise ValueError("image rank is defined for true-ball targets (l = 0)")
    sing = np.linalg.svd(f.coeffs, compute_uv=False)
    scale = float(sing[0]) if len(sing) else 0.0
    rank = int(np.sum(sing > tol_sig * max(1.0, scale)))
    result = rank - 1
    if check:
        hr = hermitian_rank(f, tol_sig)
        if hr != result + 1:
            warnings.warn(
                f"image rank {result} inconsistent with hermitian rank {hr}",
                stacklevel=2,
            )
    return result


# ---------------------------------------------------------------------------
# tensor products of automorphisms
# ---------------------------------------------------------------------------
def _center_factor_forms(
    points: Sequence[Sequence[complex]],
) -> tuple[int, list[float], list[HermitianForm]]:
    if not points:
        raise ValueError("at least one center is required")
    nvars = len(points[0])
    cs, omegas = [], []
    monos = grlex_monomials(nvars, 1)
    for a in points:
        a = np.asarray(a, dtype=complex).reshape(-1)
        if a.shape[0] != nvars:
            raise ValueError("all centers must share the source dimension")
        norm2 = float(np.vdot(a, a).real)
        if norm2 >= 1.0:
            raise ValueError("centers must lie inside the unit ball")
        cs.append(1.0 - norm2)
        # omega = |1 - <z, a>|^2; the degree-1 monomials run from z_n to z_1
        omegas.append(gram_form(nvars, monos, np.concatenate([[1.0], -a[::-1].conj()])[None]))
    return nvars, cs, omegas


def automorphism_tensor_form(points: Sequence[Sequence[complex]]) -> HermitianForm:
    """Form of the tensor product of the ball automorphisms centered at the points.

    Equals prod_j (c_j rho + omega_j) - prod_j omega_j with c_j = 1 - |a_j|^2
    and omega_j = |1 - <z, a_j>|^2; centers at the origin contribute the
    factor (rho + 1).
    """
    nvars, cs, omegas = _center_factor_forms(points)
    rho = sphere_form(nvars)
    prod_mixed = HermitianForm.constant(nvars, 1.0)
    prod_omega = HermitianForm.constant(nvars, 1.0)
    for c, omega in zip(cs, omegas):
        prod_mixed = prod_mixed * (rho.scale(c) + omega)
        prod_omega = prod_omega * omega
    return prod_mixed - prod_omega


def automorphism_tensor_rho_expansion(
    points: Sequence[Sequence[complex]],
) -> list[HermitianForm]:
    """Coefficients B_k of rho^k in the tensor-of-automorphisms form.

    B_0 is identically zero and B_K equals the constant prod_j c_j.
    """
    nvars, cs, omegas = _center_factor_forms(points)
    K = len(points)
    out: list[HermitianForm] = [HermitianForm.zero(nvars)]
    for k in range(1, K + 1):
        acc = HermitianForm.zero(nvars)
        for subset in combinations(range(K), k):
            weight = 1.0
            for j in subset:
                weight *= cs[j]
            term = HermitianForm.constant(nvars, weight)
            for j in range(K):
                if j not in subset:
                    term = term * omegas[j]
            acc = acc + term
        out.append(acc)
    return out
