"""Sparse multivariate polynomials over complex binary64 coefficients.

A polynomial stores its terms in a dict keyed by exponent tuples (one
non-negative integer per variable).  Coefficients whose magnitude is at most
``TAU_ZERO`` are dropped on construction, so cancellations always produce the
canonical zero polynomial.  Iteration, printing and serialization follow
graded lexicographic order of the exponents, which keeps every downstream
matrix indexing and JSON dump deterministic.

Values are immutable by convention: every operation returns a fresh
polynomial and never mutates its operands, so instances are safe to share
between threads.

The module also holds the one monomial kernel every layer indexes and
evaluates monomials with: :class:`MonomialKeys` (exponent vectors as int64
keys, with the one overflow refusal), :func:`find_sorted` (lookup of keys in
a sorted table) and :func:`monomial_values` (monomials evaluated at points).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

MultiIndex = tuple[int, ...]

#: Coefficients at or below this magnitude are pruned from the term map.
TAU_ZERO = 1e-13

#: Default relative tolerance for coefficient comparisons.
TAU_EQ = 1e-9


class CapabilityError(ValueError):
    """Raised when a request exceeds a documented capability cap."""


# ---------------------------------------------------------------------------
# the monomial kernel
# ---------------------------------------------------------------------------
def exponent_array(monos: Sequence[Sequence[int]], nvars: int) -> np.ndarray:
    """Exponent tuples as the rows of an int64 array of shape (len, nvars)."""
    return np.array(monos, dtype=np.int64).reshape(len(monos), nvars)


class MonomialKeys:
    """int64 keys of exponent vectors with every entry in 0..max_exponent.

    An exponent vector is read as a number in base ``max_exponent + 1``, so
    the key of a product of monomials is the sum of their keys and dividing
    a monomial by z_i subtracts ``weights[i]``.  A range whose keys would
    overflow int64 is refused with :class:`CapabilityError`.
    """

    __slots__ = ("base", "weights")

    def __init__(self, nvars: int, max_exponent: int):
        base = int(max_exponent) + 1
        if base**nvars > np.iinfo(np.int64).max:
            raise CapabilityError(
                f"exponents up to {base - 1} in {nvars} variables overflow the monomial keys"
            )
        self.base = base
        self.weights = base ** np.arange(nvars, dtype=np.int64)

    def keys(self, exps: np.ndarray) -> np.ndarray:
        """Key of each row of an exponent array."""
        return exps @ self.weights

    def exponents(self, keys: np.ndarray) -> np.ndarray:
        """Exponent array (one row per key) of the given keys."""
        return (keys[:, None] // self.weights) % self.base


def find_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in ``sorted_keys`` and whether each is present."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def monomial_values(monos: Sequence[Sequence[int]], points: np.ndarray) -> np.ndarray:
    """Values z^alpha of the monomials at the points, shape (points, monomials).

    ``points`` has one row per point.  The values start at 1 and are
    multiplied, one variable at a time, by the power of that coordinate.
    """
    points = np.asarray(points, dtype=complex)
    count, nvars = points.shape
    exps = exponent_array(monos, nvars)
    vals = np.ones((count, len(exps)), dtype=complex)
    for i in range(nvars):
        nz = exps[:, i] > 0
        if np.any(nz):
            vals[:, nz] *= points[:, i : i + 1] ** exps[nz, i][None, :]
    return vals


def grlex_key(alpha: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Sort key realizing ascending graded lexicographic order."""
    return (sum(alpha), tuple(alpha))


def degree_monomials(nvars: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree exactly ``degree``, lex sorted."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        out.append(tuple(exp))
    return sorted(out)


def grlex_monomials(nvars: int, max_degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree <= max_degree, graded-lex sorted."""
    return [a for t in range(max_degree + 1) for a in degree_monomials(nvars, t)]


class Polynomial:
    """Immutable sparse polynomial with complex coefficients.

    Attributes:
        nvars: number of variables; every exponent tuple has this length.
        terms: mapping exponent tuple -> complex coefficient (pruned).
        degree: max total degree over stored terms, -1 for the zero polynomial
            by internal convention exposed as 0 via :attr:`degree`.
    """

    __slots__ = ("nvars", "terms", "_degree")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, complex] | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: dict[MultiIndex, complex] = {}
        if terms:
            for exp, coeff in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != nvars:
                    raise ValueError(
                        f"exponent {exp} has length {len(exp)}, expected {nvars}"
                    )
                if any(e < 0 for e in exp):
                    raise ValueError(f"negative exponent in {exp}")
                c = complex(coeff)
                if abs(c) > TAU_ZERO:
                    clean[exp] = clean.get(exp, 0.0 + 0.0j) + c
            # re-prune after accumulation (duplicate keys cannot occur from a
            # dict, but callers may pass near-cancelling values)
            clean = {e: c for e, c in clean.items() if abs(c) > TAU_ZERO}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_degree", max((sum(e) for e in clean), default=0))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1.0})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: complex = 1.0) -> "Polynomial":
        exp = tuple(int(e) for e in exponent)
        return cls(len(exp), {exp: coeff})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """Max total degree over nonzero terms (0 for the zero polynomial)."""
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponent: Sequence[int]) -> complex:
        return self.terms.get(tuple(exponent), 0.0 + 0.0j)

    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.nvars, 0.0 + 0.0j)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def support(self) -> list[MultiIndex]:
        """Exponent tuples of nonzero terms in graded-lex order."""
        return sorted(self.terms, key=grlex_key)

    def sorted_terms(self) -> list[tuple[MultiIndex, complex]]:
        return [(e, self.terms[e]) for e in self.support()]

    def __iter__(self) -> Iterator[tuple[MultiIndex, complex]]:
        return iter(self.sorted_terms())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return f"Polynomial({self.nvars}, 0)"
        bits = []
        for exp, coeff in self.sorted_terms()[:6]:
            mono = "*".join(
                f"z{i + 1}^{e}" if e > 1 else f"z{i + 1}"
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"({coeff:.6g}){'*' + mono if mono else ''}")
        tail = " + ..." if len(self.terms) > 6 else ""
        return f"Polynomial({self.nvars}, {' + '.join(bits)}{tail})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, 0.0 + 0.0j) + coeff
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            prod: dict[MultiIndex, complex] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    prod[key] = prod.get(key, 0.0 + 0.0j) + c1 * c2
            return Polynomial(self.nvars, prod)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: complex) -> "Polynomial":
        factor = complex(factor)
        return Polynomial(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers require a non-negative integer")
        result = Polynomial.constant(self.nvars, 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # evaluation and substitution
    # ------------------------------------------------------------------
    def evaluate(self, point: Sequence[complex]) -> complex:
        """Evaluate at a point: the coefficient vector dotted with the
        values of the monomials there, from :func:`monomial_values`."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        monos = list(self.terms)
        coeffs = np.array([self.terms[m] for m in monos], dtype=complex)
        return complex(monomial_values(monos, [point])[0] @ coeffs)

    def permute_variables(self, perm: Sequence[int]) -> "Polynomial":
        """Return p(sigma(z)) where sigma(z)_i = z_{perm[i]} for the inverse view.

        Concretely: the monomial z^alpha maps to the monomial whose exponent
        of z_{perm[i]} is alpha_i; this is exactly composition with the
        permutation unitary sending e_i to e_{perm[i]}.
        """
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        terms: dict[MultiIndex, complex] = {}
        for exp, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[perm[i]] = e
            terms[tuple(new)] = terms.get(tuple(new), 0.0 + 0.0j) + coeff
        return Polynomial(self.nvars, terms)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"exp": list(exp), "re": coeff.real, "im": coeff.imag}
                for exp, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Polynomial":
        nvars = int(data["nvars"])
        terms: dict[MultiIndex, complex] = {}
        for item in data.get("terms", []):
            exp = tuple(int(e) for e in item["exp"])
            terms[exp] = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
        return cls(nvars, terms)


def substitute_fractional(
    p: Polynomial,
    numerators: Sequence[Polynomial],
    denominator: Polynomial,
    degree_bound: int,
) -> Polynomial:
    """Cleared-denominator substitution of a linear-fractional argument.

    Returns sum over terms ``coeff(alpha) * prod_i numerators[i]^alpha_i *
    denominator^(degree_bound - |alpha|)``.  With ``numerators[i] = z_i`` and
    ``denominator = 1`` this is the identity.
    """
    if len(numerators) != p.nvars:
        raise ValueError(
            f"got {len(numerators)} numerators for a polynomial in {p.nvars} vars"
        )
    if degree_bound < p.degree:
        raise ValueError(
            f"degree_bound {degree_bound} is below the polynomial degree {p.degree}"
        )
    nvars_out = numerators[0].nvars if numerators else denominator.nvars
    if any(q.nvars != nvars_out for q in numerators):
        raise ValueError("numerators live in different variable counts")
    if denominator.nvars != nvars_out:
        raise ValueError("denominator variable count differs from numerators")

    num_power = functools.cache(lambda i, e: numerators[i] ** e)
    den_power = functools.cache(lambda e: denominator**e)

    result = Polynomial.zero(nvars_out)
    for exp, coeff in p.sorted_terms():
        term = Polynomial.constant(nvars_out, coeff)
        for i, e in enumerate(exp):
            if e:
                term = term * num_power(i, e)
        power = degree_bound - sum(exp)
        if power:
            term = term * den_power(power)
        result = result + term
    return result


def max_coeff_diff(a: Polynomial, b: Polynomial) -> float:
    """Largest coefficient magnitude of a - b (bases need not match)."""
    if a.nvars != b.nvars:
        raise ValueError("variable-count mismatch")
    keys = set(a.terms) | set(b.terms)
    return max(
        (abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys), default=0.0
    )


def polys_close(a: Polynomial, b: Polynomial, tol: float = TAU_EQ) -> bool:
    """Coefficientwise comparison with tolerance scaled by the largest coeff."""
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return max_coeff_diff(a, b) <= tol * scale


def multinomial(alpha: Sequence[int]) -> int:
    """(|alpha|)! / prod(alpha_i!)."""
    total = math.factorial(sum(alpha))
    for e in alpha:
        total //= math.factorial(e)
    return total
