"""Sparse multivariate polynomials over complex binary64 coefficients.

A :class:`Polynomial` is the input and output view of a coefficient row: it
stores its terms in a dict keyed by exponent tuples (one non-negative integer
per variable), drops coefficients whose magnitude is at most ``TAU_ZERO`` on
construction, and refuses non-finite coefficients.  Iteration, printing and
serialization follow graded lexicographic order of the exponents, which
keeps every downstream matrix indexing and JSON dump deterministic.  It has
no arithmetic: every construction works on coefficient rows.

The module also holds the one monomial kernel every layer orders, aligns,
indexes, evaluates and multiplies monomials with: :func:`grlex_order` and
:func:`grlex_union` (graded-lex order of an exponent array, and the sorted
union of exponent-tuple lists with each list's positions in it),
:class:`MonomialKeys` (exponent vectors as int64 keys, with the one overflow
refusal), :class:`KeyIndex` (positions of keys in a table: one gather in a
dense table up to ``MAX_DENSE_KEYS``, a binary search above it),
:func:`monomial_values` (monomials evaluated at points) and
:func:`row_products` (products of coefficient rows, each complex product
rounded by :func:`times`).  :func:`held_array` is the one dtype rule of the
arrays that forms and maps hold: real unless an imaginary part is nonzero;
:func:`check_array_budget` is the one memory refusal of those arrays.
"""

from __future__ import annotations

import cmath
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


#: Bytes that any one dense array sized from the input may take, counted in
#: the dtype it is allocated in (:func:`check_array_budget`).
MAX_ARRAY_BYTES = 2**28


def check_array_budget(shape: Sequence[int], dtype) -> None:
    """Raise :class:`CapabilityError` for a dense array of ``shape`` and
    ``dtype`` above ``MAX_ARRAY_BYTES``, before it is allocated."""
    dtype = np.dtype(dtype)
    size = math.prod(map(int, shape)) * dtype.itemsize
    if size > MAX_ARRAY_BYTES:
        raise CapabilityError(
            f"a {' x '.join(map(str, shape))} {dtype} array needs {size} bytes, "
            f"above the budget MAX_ARRAY_BYTES = {MAX_ARRAY_BYTES}"
        )


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


#: Largest dense table of a :class:`KeyIndex`, in entries (8 MiB of intp).
#: Filling 2^20 entries takes about 0.4 ms, the cost of some 5,000 binary
#: searches in a 5,000-key table; 2^22 entries take 1.6 ms and 2^24 28 ms
#: (2 shared vCPUs, numpy 2.4).
MAX_DENSE_KEYS = 1 << 20


class KeyIndex:
    """Positions of non-negative int64 keys in a table of distinct keys.

    :meth:`lookup` gives each query's position in the table, or
    ``len(keys)`` (``absent``) when it is not there.  When the largest key
    + 2 is at most ``MAX_DENSE_KEYS`` the index is a dense array over
    0..max key + 1 whose slot k holds the position of key k, or ``absent``;
    a lookup is one gather, with queries above the range clipped onto the
    last slot, which is absent.  Above that the index is the sorted table,
    and a lookup is a binary search and an equality test.
    """

    __slots__ = ("absent", "dense", "order", "sorted")

    @staticmethod
    def dense_entries(keys: np.ndarray) -> int:
        """Entries (intp) of the dense table of ``keys``; 0 on the sorted path."""
        size = int(np.max(keys, initial=-1)) + 2
        return size if size <= MAX_DENSE_KEYS else 0

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        self.absent = len(keys)
        size = self.dense_entries(keys)
        if size:
            self.dense = np.full(size, self.absent, dtype=np.intp)
            self.dense[keys] = np.arange(len(keys))
        else:
            self.dense = None
            self.order = np.argsort(keys)
            self.sorted = keys[self.order]

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Position of each non-negative query key, or ``absent``."""
        if self.dense is not None:
            return self.dense.take(queries, mode="clip")
        pos = np.minimum(np.searchsorted(self.sorted, queries), len(self.sorted) - 1)
        return np.where(self.sorted[pos] == queries, self.order[pos], self.absent)


def monomial_values(monos: Sequence[Sequence[int]], points: np.ndarray) -> np.ndarray:
    """Values z^alpha of the monomials at the points, shape (points, monomials).

    ``points`` has one row per point.  The values start at 1 and are
    multiplied, one variable at a time, by the powers of that coordinate,
    tabled once up to its largest exponent, in a (monomials, points) array.
    """
    points = np.asarray(points, dtype=complex)
    count, nvars = points.shape
    exps = exponent_array(monos, nvars)
    vals = np.ones((len(exps), count), dtype=complex)
    for i in range(nvars):
        nz = exps[:, i] > 0
        if np.any(nz):
            powers = points[:, i] ** np.arange(exps[:, i].max() + 1)[:, None]
            vals[nz] *= powers[exps[nz, i]]
    return vals.T


def held_array(a) -> np.ndarray:
    """The one dtype rule of held coefficient arrays: ``a`` as contiguous
    float64 when its imaginary part is exactly zero, else as complex128."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if a.imag.any():
            return np.ascontiguousarray(a, dtype=complex)
        a = a.real
    return np.ascontiguousarray(a, dtype=float)


#: Coefficient products formed at once by :func:`row_products`.
_PRODUCT_CHUNK = 1 << 20


def times(a, b) -> np.ndarray:
    """a * b elementwise, each entry rounded as the Python complex product is
    (numpy's complex multiply may fuse the multiply and add).  Real operands
    give the real product, which is that product's real part."""
    a, b = np.asarray(a), np.asarray(b)
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return np.multiply(a, b, dtype=float)
    a, b = a.astype(complex, copy=False), b.astype(complex, copy=False)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def grlex_order(exps: np.ndarray) -> np.ndarray:
    """The permutation sorting the rows of an exponent array in graded-lex order."""
    return np.lexsort((*exps.T[::-1], exps.sum(axis=1)))


def grlex_union(*lists: Sequence[MultiIndex]) -> tuple[list[MultiIndex], list[np.ndarray]]:
    """The graded-lex sorted union of lists of exponent tuples, and for each
    list the position in the union of each of its monomials."""
    union = sorted(set().union(*lists), key=grlex_key)
    index = {mono: i for i, mono in enumerate(union)}
    return union, [np.array([index[mono] for mono in monos], dtype=np.int64) for monos in lists]


def grlex_sums(nvars: int, left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sums of a row of ``left`` and a row of ``right`` (exponent
    arrays) in graded-lex order, and the position of each sum among them."""
    monomial_keys = MonomialKeys(nvars, left.max(initial=0) + right.max(initial=0))
    sums = np.add.outer(monomial_keys.keys(left), monomial_keys.keys(right))
    keys, inverse = np.unique(sums, return_inverse=True)
    exps = monomial_keys.exponents(keys)
    grlex = grlex_order(exps)
    return exps[grlex], np.argsort(grlex)[inverse.reshape(sums.shape)]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over the starts and counts."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)


def row_products(
    nvars: int,
    left: tuple[Sequence[Sequence[int]], np.ndarray],
    right: tuple[Sequence[Sequence[int]], np.ndarray],
    pairs: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row ``targets[k]`` (default k) of the result sums the products of row
    i of ``left`` and row j of ``right`` over the pairs ``pairs[k] = (i, j)``.

    An operand is (monomials, rows): one polynomial per row over the
    monomials.  Returns the exponents of all sums of a left and a right
    monomial in graded-lex order (:func:`grlex_sums`) and the product rows
    over them.  Each product of two nonzero coefficients is rounded by
    :func:`times` and added in the order (pair, left column, right column),
    as dict arithmetic over the rows' terms in column order adds it; the
    pairs are taken in chunks of at most ``_PRODUCT_CHUNK`` products.  The
    product rows are real when both operands are, and their array is counted
    against :func:`check_array_budget` before it is allocated.
    """
    (left_monos, left), (right_monos, right) = left, right
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    targets = np.arange(len(pairs)) if targets is None else np.asarray(targets)
    exps, position = grlex_sums(
        nvars, exponent_array(left_monos, nvars), exponent_array(right_monos, nvars)
    )
    (lrow, lcol), (rrow, rcol) = np.nonzero(left != 0), np.nonzero(right != 0)
    lvals, rvals = left[lrow, lcol], right[rrow, rcol]
    lstart = np.searchsorted(lrow, np.arange(len(left) + 1))
    rstart = np.searchsorted(rrow, np.arange(len(right) + 1))
    nl, nr = np.diff(lstart), np.diff(rstart)
    dtype = np.result_type(left, right, float)
    shape = (int(targets.max(initial=-1)) + 1, len(exps))
    check_array_budget(shape, dtype)
    acc = np.zeros(shape, dtype=dtype)
    step = max(1, _PRODUCT_CHUNK // max(1, int(nl.max(initial=0) * nr.max(initial=0))))
    for start in range(0, len(pairs), step):
        (i, j), at = pairs[start : start + step].T, targets[start : start + step]
        # one entry per (pair, left entry), then per (pair, left entry, right entry)
        le, j, at = _ranges(lstart[i], nl[i]), np.repeat(j, nl[i]), np.repeat(at, nl[i])
        re, le, at = _ranges(rstart[j], nr[j]), np.repeat(le, nr[j]), np.repeat(at, nr[j])
        at = at * len(exps) + position[lcol[le], rcol[re]]
        np.add.at(acc.reshape(-1), at, times(lvals[le], rvals[re]))
    return exps, acc


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


def checked_exponent(exp: Sequence, nvars: int) -> MultiIndex:
    """``exp`` as an exponent tuple of ``nvars`` non-negative integers
    (integral floats are accepted); anything else raises ``ValueError``."""
    try:
        key = tuple(map(int, exp))
    except OverflowError as exc:
        raise ValueError(f"non-finite exponent in {exp}") from exc
    if key != tuple(exp):
        raise ValueError(f"non-integer exponent in {exp}")
    if len(key) != nvars:
        raise ValueError(f"exponent {key} has length {len(key)}, expected {nvars}")
    if any(e < 0 for e in key):
        raise ValueError(f"negative exponent in {key}")
    return key


def checked_coefficient(coeff, at) -> complex:
    """``coeff`` as a complex number; a non-finite one raises ``ValueError``."""
    c = complex(coeff)
    if not cmath.isfinite(c):
        raise ValueError(f"coefficient {c} of {at} is not finite")
    return c


class Polynomial:
    """Immutable sparse polynomial with complex coefficients: the input and
    output view of coefficient rows.

    Attributes:
        nvars: number of variables; every exponent tuple has this length.
        terms: mapping exponent tuple -> complex coefficient (pruned).

    Exponents must be non-negative integers (integral floats are accepted)
    and coefficients finite; anything else raises ``ValueError``.
    """

    __slots__ = ("nvars", "terms", "_degree")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, complex] | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: dict[MultiIndex, complex] = {}
        for exp, coeff in (terms or {}).items():
            key = checked_exponent(exp, nvars)
            c = checked_coefficient(coeff, key)
            clean[key] = clean.get(key, 0.0 + 0.0j) + c
        clean = {e: c for e, c in clean.items() if abs(c) > TAU_ZERO}
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_degree", max((sum(e) for e in clean), default=0))

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial is immutable")

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
        """The polynomial of a :meth:`to_dict` document; the coefficients of
        repeated exponents are summed."""
        terms: dict[MultiIndex, complex] = {}
        for item in data.get("terms", []):
            exp = tuple(item["exp"])
            c = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
            terms[exp] = terms.get(exp, 0.0 + 0.0j) + c
        return cls(int(data["nvars"]), terms)


def substitute_fractional(
    monos: Sequence[MultiIndex],
    rows: np.ndarray,
    affine: np.ndarray,
    degree_bound: int,
) -> tuple[list[MultiIndex], np.ndarray]:
    """Cleared-denominator substitution of z -> (w_1 / w_0, ..., w_k / w_0).

    ``affine`` holds the rows (constant, coefficient of z_1, ..., z_m) of
    w_1, ..., w_k and then w_0.  Each row p of ``rows``, a polynomial in k
    variables over ``monos``, becomes ``sum_alpha p_alpha w^beta`` with
    beta = (alpha, degree_bound - |alpha|), over the graded-lex monomials
    returned with it: ``rows`` times a table of the w^beta that p uses.
    """
    affine = np.asarray(affine, dtype=complex)
    k, m = affine.shape[0] - 1, affine.shape[1] - 1
    exps = exponent_array(monos, k)
    rows = np.asarray(rows, dtype=complex)
    degrees = exps.sum(axis=1)
    present = np.abs(rows).max(axis=0, initial=0.0) > TAU_ZERO
    if degree_bound < degrees[present].max(initial=0):
        raise ValueError(
            f"degree_bound {degree_bound} is below the polynomial degree {degrees[present].max()}"
        )
    # the w over the monomials 1, z_m, ..., z_1 (graded-lex order)
    units = np.vstack([np.zeros((1, m), dtype=np.int64), np.eye(m, dtype=np.int64)[::-1]])
    w = affine[:, np.r_[0, m:0:-1]]
    # w^beta is the product of its factors w_v in ascending v; the table
    # holds each product of the first t factors of some beta once, keyed by
    # the exponent of those factors, and is built one factor at a time
    betas = np.column_stack([exps, degree_bound - degrees])[present]
    factors = np.repeat(np.tile(np.arange(k + 1), len(betas)), betas.ravel())
    factors = factors.reshape(len(betas), degree_bound)
    keys = np.cumsum(MonomialKeys(k + 1, degree_bound).weights[factors], axis=1)
    keys = np.column_stack([np.zeros(len(betas), dtype=np.int64), keys])
    level, table_exps, table = np.zeros(1, dtype=np.int64), np.zeros((1, m), int), np.ones((1, 1))
    for t in range(degree_bound):
        prefix = np.searchsorted(level, keys[:, t])
        level, first = np.unique(keys[:, t + 1], return_index=True)
        pairs = np.column_stack([prefix[first], factors[first, t]])
        table_exps, table = row_products(m, (table_exps, table), (units, w), pairs)
    index = np.searchsorted(level, keys[:, -1])
    return [tuple(e) for e in table_exps.tolist()], rows[:, present] @ table[index]


def multinomial(alpha: Sequence[int]) -> int:
    """(|alpha|)! / prod(alpha_i!)."""
    total = math.factorial(sum(alpha))
    for e in alpha:
        total //= math.factorial(e)
    return total
