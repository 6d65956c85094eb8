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
from itertools import combinations
from typing import Iterator, Mapping, Sequence

import numpy as np

from .maps import RationalMap, coefficient_matrix, stacked_coefficients
from .polynomials import (
    MonomialKeys,
    MultiIndex,
    Polynomial,
    TAU_ZERO,
    degree_monomials,
    exponent_array,
    find_sorted,
    grlex_key,
    grlex_monomials,
    monomial_values,
    multinomial,
)

#: Relative tolerance for the sphere-division remainder.
TAU_DIV = 1e-9

#: Relative eigenvalue threshold for signature counting.
TAU_SIG = 1e-8

#: Entry pairs formed at once by a form product.
_PRODUCT_CHUNK = 1 << 20


class HermitianForm:
    """Hermitian matrix over a graded-lex monomial basis.

    ``basis[i]`` is the multi-index of the i-th monomial and ``mat[i, j]`` is
    the coefficient of z^basis[i] * conj(z^basis[j]).  The matrix is kept
    exactly Hermitian (symmetrized on construction).
    """

    __slots__ = ("nvars", "basis", "mat")

    def __init__(self, nvars: int, basis: Sequence[MultiIndex], mat: np.ndarray):
        basis = tuple(tuple(int(e) for e in b) for b in basis)
        mat = np.asarray(mat, dtype=complex)
        if mat.shape != (len(basis), len(basis)):
            raise ValueError("matrix shape does not match basis size")
        if list(basis) != sorted(basis, key=grlex_key):
            order = sorted(range(len(basis)), key=lambda i: grlex_key(basis[i]))
            basis = tuple(basis[i] for i in order)
            mat = mat[np.ix_(order, order)]
        mat = 0.5 * (mat + mat.conj().T)
        mat.setflags(write=False)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("HermitianForm is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "HermitianForm":
        return cls(nvars, [], np.zeros((0, 0), dtype=complex))

    @classmethod
    def from_entries(
        cls, nvars: int, entries: Mapping[tuple[MultiIndex, MultiIndex], complex]
    ) -> "HermitianForm":
        support: set[MultiIndex] = set()
        for a, b in entries:
            support.add(tuple(a))
            support.add(tuple(b))
        basis = sorted(support, key=grlex_key)
        index = {mono: i for i, mono in enumerate(basis)}
        mat = np.zeros((len(basis), len(basis)), dtype=complex)
        for (a, b), c in entries.items():
            if abs(c) > TAU_ZERO:
                mat[index[tuple(a)], index[tuple(b)]] += 0.5 * c
                mat[index[tuple(b)], index[tuple(a)]] += 0.5 * complex(c).conjugate()
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

    def entries(self, tol: float = TAU_ZERO) -> Iterator[tuple[MultiIndex, MultiIndex, complex]]:
        rows, cols = np.nonzero(np.abs(self.mat) > tol)
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

    def compressed(self, tol: float = TAU_ZERO) -> "HermitianForm":
        """Drop basis monomials whose row and column are entirely negligible."""
        if not self.size:
            return self
        keep = np.where(np.max(np.abs(self.mat), axis=0) > tol)[0]
        if len(keep) == self.size:
            return self
        basis = [self.basis[i] for i in keep.tolist()]
        return HermitianForm(self.nvars, basis, self.mat[np.ix_(keep, keep)])

    def __repr__(self) -> str:
        return f"HermitianForm(nvars={self.nvars}, basis_size={self.size})"

    # -- arithmetic ----------------------------------------------------------
    def _aligned(self, other: "HermitianForm") -> tuple[list[MultiIndex], np.ndarray, np.ndarray]:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch between forms")
        basis = sorted(set(self.basis) | set(other.basis), key=grlex_key)
        index = {mono: i for i, mono in enumerate(basis)}

        def embed(h: HermitianForm) -> np.ndarray:
            out = np.zeros((len(basis), len(basis)), dtype=complex)
            if h.size:
                idx = np.array([index[b] for b in h.basis])
                out[np.ix_(idx, idx)] = h.mat
            return out

        return basis, embed(self), embed(other)

    def __add__(self, other: "HermitianForm") -> "HermitianForm":
        basis, a, b = self._aligned(other)
        return HermitianForm(self.nvars, basis, a + b).compressed()

    def __sub__(self, other: "HermitianForm") -> "HermitianForm":
        basis, a, b = self._aligned(other)
        return HermitianForm(self.nvars, basis, a - b).compressed()

    def scale(self, factor: float) -> "HermitianForm":
        return HermitianForm(self.nvars, self.basis, self.mat * float(factor))

    def __mul__(self, other: "HermitianForm") -> "HermitianForm":
        """Product as real polynomials in (z, conj z).

        Monomials are keyed by :class:`MonomialKeys` over the exponent range
        of the product, so the monomial of a product is the sum of keys.
        Every pair of support entries is formed, in chunks of at most
        ``_PRODUCT_CHUNK`` pairs, and accumulated onto the basis of all sums
        of one monomial of each form.
        """
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch between forms")
        n = self.nvars
        r1, c1 = np.nonzero(np.abs(self.mat) > TAU_ZERO)
        r2, c2 = np.nonzero(np.abs(other.mat) > TAU_ZERO)
        if not len(r1) or not len(r2):
            return HermitianForm.zero(n)
        e1 = exponent_array(self.basis, n)
        e2 = exponent_array(other.basis, n)
        monomial_keys = MonomialKeys(n, e1.max(initial=0) + e2.max(initial=0))
        sums = np.add.outer(monomial_keys.keys(e1), monomial_keys.keys(e2))
        keys = np.unique(sums)
        position = np.searchsorted(keys, sums)
        size = len(keys)
        v1, v2 = self.mat[r1, c1], other.mat[r2, c2]
        acc = np.zeros(size * size, dtype=complex)
        step = max(1, _PRODUCT_CHUNK // len(r2))
        for start in range(0, len(r1), step):
            chunk = slice(start, start + step)
            rows = position[r1[chunk, None], r2]
            cols = position[c1[chunk, None], c2]
            np.add.at(acc, (rows * size + cols).ravel(), np.outer(v1[chunk], v2).ravel())
        acc[np.abs(acc) <= TAU_ZERO] = 0.0
        basis = monomial_keys.exponents(keys)
        return HermitianForm(n, basis.tolist(), acc.reshape(size, size)).compressed()

    def max_entry_diff(self, other: "HermitianForm") -> float:
        _, a, b = self._aligned(other)
        if a.size == 0:
            return 0.0
        return float(np.max(np.abs(a - b)))

    # -- serialization --------------------------------------------------------
    def to_dict(self, tol: float = TAU_ZERO) -> dict:
        items = []
        for a, b, c in self.entries(tol):
            if grlex_key(a) <= grlex_key(b):
                items.append(
                    {"alpha": list(a), "beta": list(b), "re": c.real, "im": c.imag}
                )
        items.sort(key=lambda e: (grlex_key(tuple(e["alpha"])), grlex_key(tuple(e["beta"]))))
        return {"nvars": self.nvars, "entries": items}

    @classmethod
    def from_dict(cls, data: Mapping) -> "HermitianForm":
        nvars = int(data["nvars"])
        entries: dict[tuple[MultiIndex, MultiIndex], complex] = {}
        for item in data.get("entries", []):
            a = tuple(int(e) for e in item["alpha"])
            b = tuple(int(e) for e in item["beta"])
            c = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
            entries[(a, b)] = entries.get((a, b), 0.0) + c
            if a != b:
                entries[(b, a)] = entries.get((b, a), 0.0) + c.conjugate()
        return cls.from_entries(nvars, entries)


# ---------------------------------------------------------------------------
# standard forms
# ---------------------------------------------------------------------------
def sphere_form(nvars: int) -> HermitianForm:
    """|z|^2 - 1."""
    zero = (0,) * nvars
    entries: dict[tuple[MultiIndex, MultiIndex], complex] = {(zero, zero): -1.0}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        entries[(tuple(e), tuple(e))] = 1.0
    return HermitianForm.from_entries(nvars, entries)


def norm_power_form(nvars: int, power: int) -> HermitianForm:
    """|z|^(2 power) as a diagonal form with multinomial coefficients."""
    entries = {
        (alpha, alpha): float(multinomial(alpha)) for alpha in degree_monomials(nvars, power)
    }
    return HermitianForm.from_entries(nvars, entries)


def gram_form(polys: Sequence[Polynomial], signs: Sequence[float] | None = None) -> HermitianForm:
    """sum_k signs_k p_k conj(p_k) as a Hermitian form (default all +1).

    Computed as the product A^T S conj(A) of the coefficient matrix A (one
    row per polynomial) with the diagonal sign matrix S.
    """
    if not polys:
        raise ValueError("gram_form needs at least one polynomial")
    monos, A = coefficient_matrix(polys)
    sgn = np.ones(len(polys)) if signs is None else np.asarray(signs, dtype=float)
    if not A.imag.any():
        A = A.real  # a real product takes a quarter of the flops of a complex one
    gram = A.T @ (sgn[:, None] * A.conj())
    return HermitianForm(polys[0].nvars, monos, gram).compressed()


def form_of(f: RationalMap) -> HermitianForm:
    """Hermitian form |p|^2_l - |q|^2 of a normalized rational map."""
    return gram_form(f.numerator + (f.denominator,), [1.0] * f.m + [-1.0] * (f.l + 1))


# ---------------------------------------------------------------------------
# division by the sphere and properness
# ---------------------------------------------------------------------------
def quotient_by_sphere(h: HermitianForm) -> tuple[HermitianForm, HermitianForm]:
    """Divide h by |z|^2 - 1: returns (quotient u, remainder h - u*(|z|^2-1)).

    The quotient entries satisfy the ascending-bidegree recursion
    ``u[a, b] = sum_i u[a - e_i, b - e_i] - h[a, b]`` seeded with
    ``u[0, 0] = -h[0, 0]``; the remainder vanishes (to rounding) exactly when
    h vanishes on the unit sphere.  Both live on the division simplex, all
    monomials of degree <= D = max degree of h, where u has rows and columns
    of degree < D only.  The maps a -> a - e_i are lookups of the keys
    ``key(a) - weights[i]`` (:class:`MonomialKeys`), and the recursion runs
    one total degree at a time: the rows of degree t read only rows of degree
    t - 1, so each degree takes one gather per variable.
    """
    n = h.nvars
    if not h.size:
        return HermitianForm.zero(n), HermitianForm.zero(n)
    D = h.max_degree()
    monos = grlex_monomials(n, D)
    exps = exponent_array(monos, n)
    monomial_keys = MonomialKeys(n, D)
    keys = monomial_keys.keys(exps)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def index_of(k: np.ndarray) -> np.ndarray:
        return order[find_sorted(sorted_keys, k)[0]]

    size = len(monos)
    C = np.zeros((size, size), dtype=complex)
    idx = index_of(monomial_keys.keys(exponent_array(h.basis, n)))
    C[np.ix_(idx, idx)] = h.mat
    # graded-lex order ascends in degree: degree t is rows bounds[t]:bounds[t + 1],
    # and u lives on the first bounds[D] rows and columns
    bounds = np.searchsorted(exps.sum(axis=1), np.arange(D + 1))
    inner = bounds[D]
    # per variable: the monomials containing z_i (dst), those monomials divided
    # by z_i (src), and where each degree starts in dst
    steps = []
    for i in range(n):
        dst = np.flatnonzero(exps[:, i] > 0)
        src = index_of(keys[dst] - monomial_keys.weights[i])
        steps.append((dst, src, np.searchsorted(dst, bounds)))

    U = np.zeros((size, size), dtype=complex)
    for t in range(D):
        lo, hi = bounds[t], bounds[t + 1]
        block = -C[lo:hi, :inner]
        for dst, src, starts in steps:
            rows, cols = slice(starts[t], starts[t + 1]), slice(starts[D])
            block[dst[rows, None] - lo, dst[cols]] += U[src[rows, None], src[cols]]
        U[lo:hi, :inner] = block

    # remainder R = C - (u * (|z|^2 - 1)) over the full simplex
    R = C + U
    for dst, src, _ in steps:
        R[dst[:, None], dst] -= U[src[:, None], src]

    quotient = HermitianForm(n, monos, U).compressed()
    remainder = HermitianForm(n, monos, R).compressed(tol=0.0)
    return quotient, remainder


@dataclass(frozen=True)
class ProperResult:
    proper: bool
    quotient: HermitianForm
    residual: float
    tolerance: float


def is_proper(f: RationalMap, tol_div: float = TAU_DIV) -> ProperResult:
    """Certify properness by exact division of the form by |z|^2 - 1."""
    h = form_of(f)
    quotient, remainder = quotient_by_sphere(h)
    residual = remainder.max_abs()
    threshold = tol_div * (1.0 + h.max_abs())
    proper = residual <= threshold
    if proper:
        # the denominator-degree bound holds for maps fixing the origin; a
        # violation there (or a vanishing form) flags a representation that
        # cannot be in lowest terms
        if h.max_abs() <= TAU_ZERO:
            warnings.warn(
                "form is identically zero; numerator and denominator share "
                "a unimodular factor and cannot be in lowest terms",
                stacklevel=2,
            )
        elif (
            f.degree >= 1
            and f.maps_origin_to_zero()
            and f.denominator.degree > f.degree - 1
        ):
            warnings.warn(
                "origin-fixing proper map with denominator degree exceeding "
                "degree - 1; the representation is unlikely to be in lowest terms",
                stacklevel=2,
            )
    return ProperResult(proper, quotient, residual, threshold)


# ---------------------------------------------------------------------------
# signature and ranks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Signature:
    positive: int
    negative: int
    zero: int
    margin: float

    @property
    def rank(self) -> int:
        return self.positive + self.negative

    def to_dict(self) -> dict:
        return {
            "positive": self.positive,
            "negative": self.negative,
            "zero": self.zero,
            "margin": self.margin,
        }


def signature(h: HermitianForm, tol_sig: float = TAU_SIG) -> Signature:
    """Eigenvalue signature with a relative zero threshold.

    ``margin`` is the smallest |eigenvalue| / spectral norm among eigenvalues
    classified nonzero (infinity when all are zero); callers can compare it
    with ``tol_sig`` to detect borderline classifications.
    """
    if not h.size:
        return Signature(0, 0, 0, math.inf)
    eigs = np.linalg.eigvalsh(h.mat)
    scale = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    if scale == 0.0:
        return Signature(0, 0, len(eigs), math.inf)
    cut = tol_sig * scale
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    zero = len(eigs) - pos - neg
    nonzero = np.abs(eigs)[np.abs(eigs) > cut]
    margin = float(np.min(nonzero) / scale) if len(nonzero) else math.inf
    return Signature(pos, neg, zero, margin)


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
    _, A = stacked_coefficients(f)
    sing = np.linalg.svd(A, compute_uv=False)
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
    points: Sequence[Sequence[complex]], nvars: int
) -> tuple[list[float], list[HermitianForm]]:
    cs: list[float] = []
    omegas: list[HermitianForm] = []
    zero = (0,) * nvars
    for a in points:
        a = np.asarray(a, dtype=complex).reshape(-1)
        if a.shape[0] != nvars:
            raise ValueError("all centers must share the source dimension")
        norm2 = float(np.vdot(a, a).real)
        if norm2 >= 1.0:
            raise ValueError("centers must lie inside the unit ball")
        cs.append(1.0 - norm2)
        entries: dict[tuple[MultiIndex, MultiIndex], complex] = {(zero, zero): 1.0}
        for i in range(nvars):
            ei = [0] * nvars
            ei[i] = 1
            ei = tuple(ei)
            entries[(ei, zero)] = entries.get((ei, zero), 0.0) - a[i].conjugate()
            entries[(zero, ei)] = entries.get((zero, ei), 0.0) - a[i]
            for j in range(nvars):
                ej = [0] * nvars
                ej[j] = 1
                ej = tuple(ej)
                entries[(ei, ej)] = entries.get((ei, ej), 0.0) + a[i].conjugate() * a[j]
        omegas.append(HermitianForm.from_entries(nvars, entries))
    return cs, omegas


def automorphism_tensor_form(points: Sequence[Sequence[complex]]) -> HermitianForm:
    """Form of the tensor product of the ball automorphisms centered at the points.

    Equals prod_j (c_j rho + omega_j) - prod_j omega_j with c_j = 1 - |a_j|^2
    and omega_j = |1 - <z, a_j>|^2; centers at the origin contribute the
    factor (rho + 1).
    """
    if not points:
        raise ValueError("at least one center is required")
    nvars = len(points[0])
    cs, omegas = _center_factor_forms(points, nvars)
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
    if not points:
        raise ValueError("at least one center is required")
    nvars = len(points[0])
    cs, omegas = _center_factor_forms(points, nvars)
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
