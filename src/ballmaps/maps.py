"""Rational maps between balls and generalized balls, and their construction algebra.

A :class:`RationalMap` is one coefficient array: a row per numerator
component and the denominator, normalized to 1 at the origin, last.  The target
carries a signature ``(m, l)``: the first ``m`` components enter squared
norms positively and the remaining ``l`` negatively.

Construction operations (tensor products, weighted juxtapositions, partial
tensors on a target subspace, composition with source and target
automorphisms) all return fresh normalized maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .polynomials import (
    MultiIndex,
    Polynomial,
    TAU_EQ,
    TAU_ZERO,
    degree_monomials,
    exponent_array,
    grlex_union,
    monomial_values,
    multinomial,
    row_products,
    substitute_fractional,
    times,
)


class MapConstructionError(ValueError):
    """Raised when a construction's preconditions fail."""


# ---------------------------------------------------------------------------
# core data model
# ---------------------------------------------------------------------------
class RationalMap:
    """Normalized rational map with target signature (m, l).

    Attributes:
        n: source dimension.
        m, l: positive / negative target signature counts (N = m + l).
        monos: the graded-lex sorted monomials with a coefficient.
        coeffs: read-only complex (N + 1) x len(monos) array, one row per
            numerator component and the denominator, 1 at the origin, last.

    ``numerator`` and ``denominator`` are Polynomial views built on access.
    """

    __slots__ = ("n", "m", "l", "monos", "coeffs", "_form")

    def __init__(
        self,
        numerator: Sequence[Polynomial],
        denominator: Polynomial,
        l: int = 0,
    ):
        numerator = tuple(numerator)
        if not numerator:
            raise MapConstructionError("a rational map needs at least one component")
        n = numerator[0].nvars
        if any(p.nvars != n for p in numerator):
            raise MapConstructionError("components live in different variable counts")
        if denominator.nvars != n:
            raise MapConstructionError("denominator variable count differs from numerator")
        self._hold(n, *coefficient_matrix(numerator + (denominator,)), l)

    @classmethod
    def _of_rows(cls, n: int, monos: Sequence[MultiIndex], coeffs: np.ndarray, l: int = 0):
        """The map with the given coefficient rows, the denominator last."""
        f = object.__new__(cls)
        f._hold(n, monos, coeffs, l)
        return f

    def _hold(self, n: int, monos: Sequence[MultiIndex], coeffs: np.ndarray, l: int) -> None:
        """Hold the rows pruned (:func:`pruned_rows`) and, unless q(0) = 1,
        multiplied by 1 / q(0), each product rounded by :func:`times`, and
        pruned again."""
        if not 0 <= l < len(coeffs):
            raise MapConstructionError(f"invalid negative-signature count l={l}")
        monos, coeffs = pruned_rows(monos, coeffs)
        q0 = complex(coeffs[-1, 0]) if monos and not any(monos[0]) else 0j
        if abs(q0) <= TAU_ZERO:
            raise MapConstructionError("denominator vanishes at the origin")
        if abs(q0 - 1.0) > TAU_ZERO:
            monos, coeffs = pruned_rows(monos, times(coeffs, 1.0 / q0))
        coeffs.setflags(write=False)
        values = (n, len(coeffs) - 1 - l, l, tuple(monos), coeffs, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("RationalMap is immutable")

    @property
    def numerator(self) -> tuple[Polynomial, ...]:
        return tuple(polynomials_of_rows(self.n, self.monos, self.coeffs[:-1]))

    @property
    def denominator(self) -> Polynomial:
        return polynomials_of_rows(self.n, self.monos, self.coeffs[-1:])[0]

    @property
    def target_dim(self) -> int:
        return self.m + self.l

    @property
    def degree(self) -> int:
        return sum(self.monos[-1])

    def is_polynomial(self, tol: float = TAU_EQ) -> bool:
        """Is the denominator 1 up to tol times its largest coefficient?"""
        q = self.coeffs[-1]
        diff = np.abs(q - np.eye(1, len(q)))
        return float(diff.max()) <= tol * max(1.0, float(np.abs(q).max()))

    def value_at(self, point: Sequence[complex]) -> np.ndarray:
        values = self.coeffs @ monomial_values(self.monos, [point])[0]
        return values[:-1] / values[-1]

    def maps_origin_to_zero(self, tol: float = TAU_EQ) -> bool:
        # the first column is the constant monomial: q(0) = 1
        return bool(np.all(np.abs(self.coeffs[:-1, 0]) <= tol))

    def __repr__(self) -> str:
        return (
            f"RationalMap(n={self.n}, target=({self.m},{self.l}), "
            f"degree={self.degree}, components={self.target_dim})"
        )

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        """The ``to_dict`` of the Polynomial views, written from the array."""
        *rows, den = [
            {"nvars": self.n, "terms": [
                {"exp": list(mono), "re": c.real, "im": c.imag}
                for mono, c in zip(self.monos, row)
                if c
            ]}
            for row in self.coeffs.tolist()
        ]
        return {"n": self.n, "m": self.m, "l": self.l, "numerator": rows, "denominator": den}

    @classmethod
    def from_dict(cls, data: Mapping) -> "RationalMap":
        numerator = [Polynomial.from_dict(p) for p in data["numerator"]]
        denominator = Polynomial.from_dict(data["denominator"])
        l = int(data.get("l", 0))
        if "m" in data and int(data["m"]) != len(numerator) - l:
            raise MapConstructionError(
                f"m={data['m']} differs from {len(numerator)} components minus l={l}"
            )
        return cls(numerator, denominator, l=l)


def polynomial_map(components: Sequence[Polynomial], l: int = 0) -> RationalMap:
    """The map with the given components over the denominator 1."""
    if not components:
        raise MapConstructionError("a rational map needs at least one component")
    n = components[0].nvars
    if any(p.nvars != n for p in components):
        raise MapConstructionError("components live in different variable counts")
    return _map_of_terms(n, [p.terms for p in components], l)


def polynomial_map_of_rows(n: int, monos: Sequence[MultiIndex], rows: np.ndarray) -> RationalMap:
    """The map with the given numerator rows over ``monos`` and denominator 1."""
    monos = list(monos)
    if not monos or any(monos[0]):
        monos = [(0,) * n] + monos
        rows = np.hstack([np.zeros((len(rows), 1)), rows])
    return RationalMap._of_rows(n, monos, np.vstack([rows, np.eye(1, len(monos))]))


def coefficient_matrix(
    polys: Sequence[Polynomial],
) -> tuple[list[MultiIndex], np.ndarray]:
    """Dense complex matrix with one row of coefficients per polynomial.

    Columns are indexed by the graded-lex sorted union of all monomial
    supports.  :func:`polynomials_of_rows` is the inverse.
    """
    return _term_rows([p.terms for p in polys])


def _term_rows(
    tables: Sequence[Mapping[MultiIndex, complex]],
) -> tuple[list[MultiIndex], np.ndarray]:
    """One coefficient row per term table (exponent -> coefficient) over the
    graded-lex sorted union of their exponents."""
    monos, positions = grlex_union(*tables)
    mat = np.zeros((len(tables), len(monos)), dtype=complex)
    for row, terms, at in zip(mat, tables, positions):
        row[at] = list(terms.values())
    return monos, mat


def pruned_rows(
    monos: Sequence[MultiIndex], rows: np.ndarray
) -> tuple[list[MultiIndex], np.ndarray]:
    """:func:`coefficient_matrix` of :func:`polynomials_of_rows`: entries at or
    below TAU_ZERO zeroed, -0.0 parts made +0.0 (the ``0j + c`` of
    :class:`Polynomial`) and the monomials without an entry dropped."""
    rows = np.array(rows, dtype=complex)
    rows += 0.0
    rows[np.abs(rows) <= TAU_ZERO] = 0.0
    keep = rows.any(axis=0)
    return list(compress(monos, keep)), rows if keep.all() else rows[:, keep]


def stacked_coefficients(f: RationalMap) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """The map's held coefficient array; the denominator occupies the last row."""
    return f.monos, f.coeffs


def numerator_rows(f: RationalMap) -> tuple[list[MultiIndex], np.ndarray]:
    """The numerator rows over the monomials they use."""
    return pruned_rows(f.monos, f.coeffs[:-1])


def polynomials_of_rows(
    nvars: int, monos: Sequence[MultiIndex], mat: np.ndarray
) -> list[Polynomial]:
    """One polynomial per row of a coefficient array over ``monos``.

    Coefficients at or below ``TAU_ZERO`` are dropped.
    """
    present = np.abs(mat) > TAU_ZERO
    return [
        Polynomial(nvars, dict(zip(compress(monos, keep), row[keep].tolist())))
        for row, keep in zip(mat, present)
    ]


# ---------------------------------------------------------------------------
# ball automorphisms
# ---------------------------------------------------------------------------
#: Centers below this norm are treated as exactly zero: the phi factor is the
#: identity there, so (U, 0) acts as z -> U z.
_ZERO_CENTER = 1e-12


class BallAutomorphism:
    """Automorphism U . phi_a of the unit ball.

    phi_a(z) = (a - L_a z) / (1 - <z, a>) with L_a z = <z, a> a/(s+1) + s z
    and s = sqrt(1 - |a|^2); phi_a swaps a and the origin.  When a = 0 the
    phi factor is dropped (the raw formula would give -z), so (U, 0) is the
    linear map z -> U z and (I, 0) is the identity.
    """

    __slots__ = ("dim", "U", "a")

    def __init__(self, U: np.ndarray, a: Sequence[complex] | None = None):
        U = np.asarray(U, dtype=complex)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise MapConstructionError("U must be a square matrix")
        dim = U.shape[0]
        if a is None:
            a = np.zeros(dim, dtype=complex)
        a = np.asarray(a, dtype=complex).reshape(-1)
        if a.shape[0] != dim:
            raise MapConstructionError("center length differs from matrix size")
        if not (np.isfinite(U).all() and np.isfinite(a).all()):
            raise MapConstructionError("matrix and center must be finite")
        if np.linalg.norm(a) >= 1.0:
            raise MapConstructionError("automorphism center must lie inside the ball")
        if np.max(np.abs(U.conj().T @ U - np.eye(dim))) > 1e-7:
            raise MapConstructionError("matrix is not unitary")
        U = U.copy()
        a = a.copy()
        U.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("BallAutomorphism is immutable")

    @property
    def s(self) -> float:
        return math.sqrt(max(0.0, 1.0 - float(np.vdot(self.a, self.a).real)))

    def moves_origin(self, tol: float = TAU_EQ) -> bool:
        return bool(np.linalg.norm(self.a) > tol)

    def _phi_is_identity(self) -> bool:
        return float(np.linalg.norm(self.a)) <= _ZERO_CENTER

    def linear_part(self) -> np.ndarray:
        """Matrix of L_a: L_a z = <z, a> a / (s + 1) + s z."""
        s = self.s
        return np.outer(self.a, self.a.conj()) / (s + 1.0) + s * np.eye(self.dim)

    def apply(self, z: Sequence[complex]) -> np.ndarray:
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        if self._phi_is_identity():
            return self.U @ z
        denom = 1.0 - complex(np.sum(z * self.a.conj()))
        return self.U @ (self.a - self.linear_part() @ z) / denom

    def _affine_rows(self) -> np.ndarray:
        """Rows (constant, coefficients of z_1, ..., z_n) of the numerator
        components U(a - L_a z) and the denominator 1 - <z, a>; U z over 1
        when a = 0."""
        n = self.dim
        rows = np.zeros((n + 1, n + 1), dtype=complex)
        rows[n, 0] = 1.0
        if self._phi_is_identity():
            rows[:n, 1:] = self.U
        else:
            rows[:n, 0], rows[:n, 1:] = self.U @ self.a, -(self.U @ self.linear_part())
            rows[n, 1:] = -self.a.conj()
        return rows

    def as_rational_map(self) -> RationalMap:
        n = self.dim
        # graded-lex order lists z_n first
        monos = [(0,) * n] + degree_monomials(n, 1)
        return RationalMap._of_rows(n, monos, self._affine_rows()[:, np.r_[0, n:0:-1]])

    def projective_matrix(self) -> np.ndarray:
        """(n+1)x(n+1) matrix M with (z, 1) M proportional to (gamma(z), 1).

        Row-vector convention: homogeneous coordinates act on the right.
        """
        n = self.dim
        return np.ascontiguousarray(self._affine_rows()[:, np.r_[1 : n + 1, 0]].T)

    def __repr__(self) -> str:
        return f"BallAutomorphism(dim={self.dim}, moves_origin={self.moves_origin()})"


def identity_automorphism(n: int) -> BallAutomorphism:
    return BallAutomorphism(np.eye(n))


def unitary_automorphism(U: np.ndarray) -> BallAutomorphism:
    return BallAutomorphism(U)


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """Unitary with (U z)_i = z_perm[i]."""
    n = len(perm)
    U = np.zeros((n, n))
    for i, j in enumerate(perm):
        U[i, j] = 1.0
    return U


def permutation_automorphism(perm: Sequence[int]) -> BallAutomorphism:
    return BallAutomorphism(permutation_matrix(perm))


def _decompose_projective(M: np.ndarray) -> BallAutomorphism:
    """Recover (U, a) from a projective matrix, re-unitarizing against drift."""
    n = M.shape[0] - 1
    Minv = np.linalg.inv(M)
    w = Minv[n, :]
    a = w[:n] / w[n]
    if np.linalg.norm(a) >= 1.0:
        raise MapConstructionError("projective matrix does not fix the ball")
    phi = BallAutomorphism(np.eye(n), a)
    N = np.linalg.inv(phi.projective_matrix()) @ M
    UT = N[:n, :n] / N[n, n]
    U = UT.T
    # project to the closest unitary; products accumulate rounding
    W, _, Vh = np.linalg.svd(U)
    return BallAutomorphism(W @ Vh, a)


def compose_automorphisms(
    first: BallAutomorphism, second: BallAutomorphism
) -> BallAutomorphism:
    """Return first o second (apply ``second`` to the point first)."""
    if first.dim != second.dim:
        raise MapConstructionError("automorphism dimensions differ")
    M = second.projective_matrix() @ first.projective_matrix()
    return _decompose_projective(M)


def inverse_automorphism(gamma: BallAutomorphism) -> BallAutomorphism:
    return _decompose_projective(np.linalg.inv(gamma.projective_matrix()))


# ---------------------------------------------------------------------------
# subspaces of the target
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Subspace:
    """Subspace of the target space with an orthonormal basis (rows)."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[1] != self.ambient_dim:
            raise MapConstructionError("basis shape incompatible with ambient dimension")
        gram = basis @ basis.conj().T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-8:
            raise MapConstructionError("subspace basis is not orthonormal")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence[complex]]) -> "Subspace":
        """Orthonormalized span of the given (possibly dependent) vectors."""
        arr = np.asarray(list(vectors), dtype=complex)
        if arr.size and arr.shape[-1] != ambient_dim:
            raise MapConstructionError(f"vectors have length {arr.shape[-1]}, not {ambient_dim}")
        arr = arr.reshape(-1, ambient_dim)
        if arr.size == 0:
            return cls(ambient_dim, np.zeros((0, ambient_dim), dtype=complex))
        _, s, vh = np.linalg.svd(arr, full_matrices=False)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)))
        return cls(ambient_dim, vh[:rank])

    def orthogonal_complement_basis(self) -> np.ndarray:
        full = np.eye(self.ambient_dim, dtype=complex)
        proj = full - self.basis.conj().T @ self.basis if self.dim else full
        _, s, vh = np.linalg.svd(proj)
        rank = int(np.sum(s > 1e-10))
        return vh[:rank]


# ---------------------------------------------------------------------------
# composition with automorphisms
# ---------------------------------------------------------------------------
def compose_source(f: RationalMap, gamma: BallAutomorphism) -> RationalMap:
    """f o gamma via the cleared-denominator homogenized substitution.

    Every row of the map, the denominator too, is substituted with the
    affine numerators of gamma over the common denominator 1 - <z, a>,
    homogenized to the degree of f (:func:`substitute_fractional`); the
    result is renormalized so its denominator is 1 at the origin.
    """
    if gamma.dim != f.n:
        raise MapConstructionError("automorphism dimension differs from map source")
    monos, rows = substitute_fractional(f.monos, f.coeffs, gamma._affine_rows(), f.degree)
    if any(monos[0]) or abs(rows[-1, 0]) <= TAU_ZERO:
        raise MapConstructionError(
            "composed denominator vanishes at the origin; center outside domain of validity"
        )
    return RationalMap._of_rows(f.n, monos, rows, l=f.l)


def compose_target(f: RationalMap, psi: BallAutomorphism) -> RationalMap:
    """psi o f for a true-ball target (l = 0)."""
    if f.l != 0:
        raise MapConstructionError(
            "target-automorphism composition is supported only for true balls (l = 0)"
        )
    if psi.dim != f.target_dim:
        raise MapConstructionError("target automorphism dimension differs from map target")
    p, q = f.coeffs[:-1], f.coeffs[-1]
    # numerator components U (a q - L p), denominator q - <p, a>
    numerator = np.outer(psi.U @ psi.a, q) - psi.U @ (psi.linear_part() @ p)
    return RationalMap._of_rows(f.n, f.monos, np.vstack([numerator, q - psi.a.conj() @ p]))


# ---------------------------------------------------------------------------
# construction algebra
# ---------------------------------------------------------------------------
def _tensor_pair_order(nf: int, ng: int) -> list[tuple[int, int]]:
    return sorted(
        ((i, j) for i in range(nf) for j in range(ng)),
        key=lambda ij: (ij[0] + ij[1], ij),
    )


def tensor(f: RationalMap, g: RationalMap) -> RationalMap:
    """Tensor product: all pairwise component products, denominators multiplied."""
    if f.n != g.n:
        raise MapConstructionError("tensor factors must share the source dimension")
    if f.l or g.l:
        raise MapConstructionError("tensor product requires true-ball targets")
    pairs = _tensor_pair_order(f.target_dim, g.target_dim) + [(f.target_dim, g.target_dim)]
    exps, rows = row_products(f.n, (f.monos, f.coeffs), (g.monos, g.coeffs), pairs)
    return RationalMap._of_rows(f.n, list(map(tuple, exps.tolist())), rows)


def _juxtapose(maps: Sequence[RationalMap], weights: Sequence[complex]) -> RationalMap:
    """Weighted orthogonal sum over a common denominator: the positive blocks
    of all maps first, then their negative blocks."""
    if any(f.n != maps[0].n for f in maps):
        raise MapConstructionError("orthogonal sum requires a common source dimension")
    monos, positions = grlex_union(*(f.monos for f in maps))
    arrays = [np.zeros((len(f.coeffs), len(monos)), dtype=complex) for f in maps]
    for f, A, at in zip(maps, arrays, positions):
        A[:, at] = f.coeffs
    den = arrays[0][-1]
    if any(
        np.abs(A[-1] - den).max() > TAU_EQ * max(1.0, np.abs(den).max(), np.abs(A[-1]).max())
        for A in arrays
    ):
        raise MapConstructionError(
            "juxtaposition requires a common denominator (or polynomial inputs)"
        )
    pos = [times(A[: f.m], c) for f, A, c in zip(maps, arrays, weights)]
    neg = [times(A[f.m : -1], c) for f, A, c in zip(maps, arrays, weights)]
    rows = np.vstack(pos + neg + [den])
    return RationalMap._of_rows(maps[0].n, monos, rows, l=sum(f.l for f in maps))


def oplus(
    f: RationalMap,
    g: RationalMap,
    weights: tuple[complex, complex] | None = None,
) -> RationalMap:
    """Weighted orthogonal sum; positive blocks first, then negative blocks."""
    return _juxtapose([f, g], weights if weights is not None else (1.0, 1.0))


def juxtapose_theta(f: RationalMap, g: RationalMap, theta: float) -> RationalMap:
    """cos(theta) f (+) sin(theta) g."""
    return oplus(f, g, (math.cos(theta), math.sin(theta)))


def juxtapose_lambda(maps: Sequence[RationalMap], lam: Sequence[complex]) -> RationalMap:
    """Weighted juxtaposition with unit weight vector."""
    if len(maps) != len(lam):
        raise MapConstructionError("one weight per map is required")
    if not maps:
        raise MapConstructionError("nothing to juxtapose")
    norm2 = sum(abs(c) ** 2 for c in lam)
    if abs(norm2 - 1.0) > TAU_EQ:
        raise MapConstructionError(f"weights must have unit norm, got |lambda|^2={norm2}")
    return _juxtapose(maps, lam)


def pad_with_zeros(f: RationalMap, count: int) -> RationalMap:
    """f (+) 0 with the given number of zero components appended to the
    positive block; f may have any denominator."""
    if count < 1:
        raise MapConstructionError("padding needs at least one zero component")
    rows = np.insert(f.coeffs, [f.m] * count, 0.0, axis=0)
    return RationalMap._of_rows(f.n, f.monos, rows, l=f.l)


def descend(f: RationalMap, A: Subspace, g: RationalMap) -> RationalMap:
    """Partial tensor on the target subspace A: ((pi_A f) (x) g) (+) (1 - pi_A) f.

    Both projections are expressed in orthonormal coordinates (of A and of
    its complement), which drops no information and avoids spurious zero
    components; the result is the standard one up to a target unitary.
    """
    if f.l or g.l:
        raise MapConstructionError("descend requires true-ball targets")
    if f.n != g.n:
        raise MapConstructionError("descend requires a common source dimension")
    if A.ambient_dim != f.target_dim:
        raise MapConstructionError("subspace ambient dimension differs from map target")

    _, coeffs = numerator_rows(f)
    inside = A.basis.conj() @ coeffs
    outside = A.orthogonal_complement_basis().conj() @ coeffs
    # the rows pi_A f, (1 - pi_A) f and the denominator of f, over f.monos
    left = np.zeros((len(inside) + len(outside) + 1, len(f.monos)), dtype=complex)
    left[:-1, f.coeffs[:-1].any(axis=0)] = np.vstack([inside, outside])
    left[-1] = f.coeffs[-1]
    k, N = len(inside), g.target_dim
    pairs = _tensor_pair_order(k, N) + [(k + i, N) for i in range(len(outside) + 1)]
    exps, rows = row_products(f.n, pruned_rows(f.monos, left), (g.monos, g.coeffs), pairs)
    return RationalMap._of_rows(f.n, list(map(tuple, exps.tolist())), rows)


def lowest_order_subspace(f: RationalMap) -> Subspace:
    """Span of the coefficient vectors of the lowest-order homogeneous part."""
    if not f.is_polynomial():
        raise MapConstructionError("lowest-order subspace requires a polynomial map")
    monos, coeffs = numerator_rows(f)
    if not monos:
        raise MapConstructionError("zero map has no lowest-order part")
    degrees = exponent_array(monos, f.n).sum(axis=1)
    return Subspace.from_vectors(f.target_dim, coeffs[:, degrees == degrees.min()].T)


def first_descendant(f: RationalMap) -> RationalMap:
    """Tensor the lowest-order target subspace with the identity map."""
    A = lowest_order_subspace(f)
    return descend(f, A, identity_map(f.n))


# ---------------------------------------------------------------------------
# standard maps and the fixture catalog
# ---------------------------------------------------------------------------
def _map_of_terms(
    n: int, tables: Sequence[Mapping[MultiIndex, complex]], l: int = 0
) -> RationalMap:
    """The map whose k-th component has the terms (exponent -> coefficient)
    of ``tables[k]``, over the denominator 1."""
    return RationalMap._of_rows(n, *_term_rows([*tables, {(0,) * n: 1.0}]), l)


def identity_map(n: int) -> RationalMap:
    return tensor_power(n, 1)


def tensor_power(n: int, m: int) -> RationalMap:
    """All degree-m monomials with square-root multinomial weights.

    Components are listed in descending lex order within the degree (z_1^m
    first), matching the usual published presentation: the m = 1 power is
    literally the identity map.
    """
    if n < 1 or m < 0:
        raise MapConstructionError("tensor power requires n >= 1 and m >= 0")
    exps = degree_monomials(n, m)[::-1]
    return _map_of_terms(n, [{alpha: math.sqrt(multinomial(alpha))} for alpha in exps])


def whitney_map(n: int) -> RationalMap:
    """(z_1, ..., z_{n-1}, z_1 z_n, ..., z_{n-1} z_n, z_n^2)."""
    if n < 1:
        raise MapConstructionError("whitney map requires n >= 1")
    units = np.eye(n, dtype=int)
    exps = np.vstack([units[:-1], units[:-1] + units[-1], 2 * units[-1:]])
    return _map_of_terms(n, [{tuple(alpha): 1.0} for alpha in exps.tolist()])


def _whitney_sequence(k: int) -> RationalMap:
    """Planar Whitney sequence: (z1, z1 z2, ..., z1 z2^k, z2^(k+1))."""
    if k < 1:
        raise MapConstructionError("whitney-seq index must be >= 1")
    return _map_of_terms(2, [{(1, j): 1.0} for j in range(k + 1)] + [{(0, k + 1): 1.0}])


def _example_7_4(family: str, theta: float) -> RationalMap:
    """Example 7.4: the inessential family f and the essential family g, one
    monomial per component, mixed by the angle theta."""
    if not math.isfinite(theta):
        raise MapConstructionError(f"theta {theta} is not finite")
    c, s = math.cos(theta), math.sin(theta)
    if family == "f":
        exps = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        weights = [1.0, 1.0, c, s, s, s]
    else:
        exps = [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
        weights = [c, 1.0, s, s, math.sqrt(1.0 + s * s), 1.0, 1.0]
    return _map_of_terms(3, [{alpha: w} for alpha, w in zip(exps, weights)])


#: Example 7.2's weights 1 / sqrt 2 and its square.
_C = 1.0 / math.sqrt(2.0)
_CC = _C * _C

#: Source dimension and term tables of the fixed catalog maps: Faran's four
#: planar maps into B^3 (Invent. Math. 67, 1982); the degree-3 planar map of
#: example 7.2, with trivial invariance structure, (a, c_+, c_- z, c_- w) for
#: a, b = (z +- w^2) / sqrt 2 and c_+- = (b +- z w) / sqrt 2; and the disc map
#: (1/2)(z + z^2, z^2 - z^3) of corollary 6.2, with trivial symmetry.
_TABLES = {
    "faran-1": (2, [{(1, 0): 1.0}, {(0, 1): 1.0}, {}]),
    "faran-2": (2, [{(1, 0): 1.0}, {(1, 1): 1.0}, {(0, 2): 1.0}]),
    "faran-3": (2, [{(2, 0): 1.0}, {(1, 1): math.sqrt(2.0)}, {(0, 2): 1.0}]),
    "faran-4": (2, [{(3, 0): 1.0}, {(1, 1): math.sqrt(3.0)}, {(0, 3): 1.0}]),
    "example-7-2": (2, [
        {(1, 0): _C, (0, 2): _C},
        {(1, 0): _CC, (0, 2): -_CC, (1, 1): _C},
        {(2, 0): _CC, (1, 2): -_CC, (2, 1): -_C},
        {(1, 1): _CC, (0, 3): -_CC, (1, 2): -_C},
    ]),
    "corollary-6-2": (1, [{(1,): 0.5, (2,): 0.5}, {(2,): 0.5, (3,): -0.5}]),
}


CATALOG_NAMES = (
    "faran-1",
    "faran-2",
    "faran-3",
    "faran-4",
    "example-3-1",
    "example-7-2",
    "corollary-6-2",
    "whitney-seq-1",
    "whitney-seq-2",
    "whitney-seq-3",
    "example-7-4-f",
    "example-7-4-g",
)


def catalog(name: str, theta: float = math.pi / 4) -> RationalMap:
    """Named proper-map fixtures with their published component order.

    ``whitney-seq-k`` accepts any positive integer suffix; the two
    ``example-7-4`` families take the mixing angle ``theta``.  Example 3.1 is
    the Whitney map of B^3.
    """
    prefix, _, index = name.rpartition("-")
    if name in _TABLES:
        return _map_of_terms(*_TABLES[name])
    if name == "example-3-1":
        return whitney_map(3)
    if prefix == "whitney-seq" and index.isdecimal():
        return _whitney_sequence(int(index))
    if name in ("example-7-4-f", "example-7-4-g"):
        return _example_7_4(index, theta)
    raise MapConstructionError(f"unknown catalog name {name!r}")
