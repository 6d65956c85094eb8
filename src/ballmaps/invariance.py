"""Invariance structure of rational proper maps.

Membership in the Hermitian invariant group is decided through form
proportionality: gamma belongs iff the form of f o gamma is a constant
multiple of the form of f (the constant is 1 for unitary gamma).  On top of
that single predicate the module computes diagonal-torus and permutation
stabilizers, detects full-torus / full-unitary / block-unitary invariance,
bounds the source rank, runs the origin-moving necessary conditions, and
emits the polynomial equation system cutting out the full group inside the
projective automorphism group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import lattice
from .hermitian import HermitianForm, _support_blocks, form_of
from .maps import (
    BallAutomorphism,
    MapConstructionError,
    RationalMap,
    compose_source,
    numerator_rows,
    stacked_coefficients,
)
from .polynomials import (
    CapabilityError,
    MonomialKeys,
    MultiIndex,
    TAU_EQ,
    TAU_ZERO,
    degree_monomials,
    exponent_array,
    find_sorted,
    grlex_union,
    multinomial,
)

#: Tolerance for matrix-equality hashing in group closure.
TAU_GROUP = 1e-7

#: Permutation enumeration and the (n + 1)!-term determinant of the
#: invariance system are capped at this source dimension.
MAX_PERMUTATION_DIM = 8

#: Emission of the invariance system is refused above this many ordered
#: term pairs (E1, E2) on the support of the form.
MAX_SYSTEM_PAIRS = 400_000

#: The schema of the document :func:`emit_invariance_system` returns.
SYSTEM_SCHEMA = "invariance-system/2"


class GroupClosureError(RuntimeError):
    """Raised when closing a generating set exceeds the element cap."""


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MembershipResult:
    member: bool
    c_gamma: float
    deviation: float

    def __bool__(self) -> bool:
        return self.member


def _form_ratio_test(
    hf: HermitianForm, hg: HermitianForm, tol: float
) -> tuple[bool, float, float]:
    """Is hg = c * hf for a constant anchored at hf's largest entry?

    Two Hermitian forms can only be proportional by a real constant, so the
    anchor ratio is projected to its real part before comparing.
    """
    if not hf.size:
        return hg.max_abs() <= tol, 1.0, hg.max_abs()
    flat = int(np.argmax(np.abs(hf.mat)))
    i, j = divmod(flat, hf.size)
    anchor = complex(hf.mat[i, j])
    c = float((hg.entry(hf.basis[i], hf.basis[j]) / anchor).real)
    deviation = hg.max_entry_diff(hf.scale(c))
    scale = max(1.0, hf.max_abs(), hg.max_abs())
    return deviation <= tol * scale, c, deviation


def membership(
    f: RationalMap, gamma: BallAutomorphism, tol: float = TAU_EQ
) -> MembershipResult:
    """Decide Hermitian-invariance membership of a source automorphism.

    gamma belongs when the form of f o gamma is c_gamma times the form of f,
    to ``tol`` times the larger form's largest entry.  An automorphism that
    keeps the origin is a unitary, and for a unitary the constant is forced
    to 1: such a gamma belongs only when also |c_gamma - 1| <= 10 tol.
    Generalized-ball targets (l > 0) support only unitary gamma.
    ``c_gamma`` and ``deviation`` are reported whatever the verdict.
    """
    if gamma.dim != f.n:
        raise MapConstructionError("automorphism dimension differs from map source")
    unitary = not gamma.moves_origin(tol)
    if f.l > 0 and not unitary:
        raise MapConstructionError(
            "membership for generalized-ball targets supports only unitary automorphisms"
        )
    member, c, deviation = _form_ratio_test(form_of(f), form_of(compose_source(f, gamma)), tol)
    member = member and (not unitary or abs(c - 1.0) <= 10.0 * tol)
    return MembershipResult(member, c, deviation)


# ---------------------------------------------------------------------------
# coordinate permutations
# ---------------------------------------------------------------------------
#: Largest number of (candidate, entry) pairs the permutation search gathers
#: at once; it bounds the search's temporary memory whatever the form size.
_GATHER_BUDGET = 1 << 14


class _PermutationSearch:
    """Index tables testing coordinate permutations on one coefficient array.

    The entries of the array A above TAU_ZERO are its support.  Columns are
    indices into ``basis``; with ``permute_rows`` the rows are too (a
    Hermitian form), otherwise they stay fixed (the components of a map).
    sigma sends z^alpha to the monomial carrying alpha_i at position
    sigma(i), and keeps support entry (r, c) when |A[r, c] - A[sigma r,
    sigma c]| <= ``cut`` (one bound, or one per row), where a permuted
    monomial outside the basis reads 0.  A form's matrix is exactly
    Hermitian, so the test at (c, r) is the conjugate of the test at (r, c)
    and only the support entries with r <= c are tested.

    Each monomial is keyed by :class:`MonomialKeys` (its exponent vector read
    in base D + 1, D the largest exponent), so a permuted monomial is found by
    binary search.  A is read through a zero-padded flat copy with one extra
    row and column, where a permuted monomial outside the basis lands, so a
    target is one gather.  The depth of a monomial or entry is 1 + the
    largest variable index it uses: once the images of variables 0..k-1 are
    fixed, so are exactly the monomials and entries of depth <= k.  Both are
    stored sorted by depth, so each level of the search reads one slice.
    """

    def __init__(
        self,
        n: int,
        basis: Sequence[MultiIndex],
        array: np.ndarray,
        cut: float | np.ndarray,
        permute_rows: bool,
    ):
        support = np.abs(array) > TAU_ZERO
        rows, cols = np.nonzero(np.triu(support) if permute_rows else support)
        values, cut = array[rows, cols], np.broadcast_to(cut, len(array))[rows]
        exps = exponent_array(basis, n)
        monomial_keys = MonomialKeys(n, exps.max(initial=0))
        self.n = n
        self.permute_rows = permute_rows
        self.weights = monomial_keys.weights
        keys = monomial_keys.keys(exps)
        self.key_order = np.argsort(keys)
        self.sorted_keys = keys[self.key_order]
        # the padding column (and row) sits at index len(basis)
        self.pad = len(basis)
        self.width = self.pad + 1
        padded = np.zeros((len(array) + 1, self.width), dtype=array.dtype)
        padded[:-1, :-1] = array
        self.flat = padded.ravel()

        levels = np.arange(n + 1)
        mono_depth = np.where(exps > 0, levels[1:], 0).max(axis=1, initial=0)
        by_depth = np.argsort(mono_depth, kind="stable")
        self.exps = exps[by_depth].T
        # monomials of depth <= k are the first mono_count[k] columns of exps
        self.mono_count = np.searchsorted(mono_depth[by_depth], levels, side="right")
        position = np.empty_like(by_depth)
        position[by_depth] = np.arange(len(by_depth))

        depth = mono_depth[cols]
        if permute_rows:
            depth = np.maximum(depth, mono_depth[rows])
            rows = position[rows]
        else:
            rows = rows * self.width  # fixed rows, as offsets into the flat copy
        entry_order = np.argsort(depth, kind="stable")
        # entries of depth k are entry_bounds[k - 1]:entry_bounds[k]; depth 0 always passes
        self.entry_bounds = np.searchsorted(depth[entry_order], levels, side="right")
        self.rows = rows[entry_order]
        self.cols = position[cols][entry_order]
        self.values = values[entry_order]
        self.cut = cut[entry_order]

    def _passes(self, perms: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Which rows of ``perms`` (the images of variables 0..k-1) keep
        entries lo..hi, all of depth <= k; gathered in chunks of the budget."""
        ok = np.ones(len(perms), dtype=bool)
        if hi == lo:
            return ok
        k = perms.shape[1]
        exps = self.exps[:k, : self.mono_count[k]]
        rows, cols = self.rows[lo:hi], self.cols[lo:hi]
        values, cut = self.values[lo:hi], self.cut[lo:hi]
        step = max(1, _GATHER_BUDGET // (hi - lo + exps.shape[1]))
        for start in range(0, len(perms), step):
            keys = self.weights[perms[start : start + step]] @ exps
            pos, found = find_sorted(self.sorted_keys, keys)
            image = np.where(found, self.key_order[pos], self.pad)
            at = image[:, cols] + ((image * self.width)[:, rows] if self.permute_rows else rows)
            ok[start : start + step] = (np.abs(values - self.flat[at]) <= cut).all(axis=1)
        return ok

    def search(self) -> np.ndarray:
        """All permutations keeping every entry, as rows in lexicographic order.

        Prefixes are extended one variable at a time, all together and in
        increasing image order, and pruned as soon as an entry they fix fails.
        The last image is forced, so the last two variables are placed
        together: the two free images in increasing, then decreasing order.
        """
        n = self.n
        perms = np.zeros((1, 0), dtype=np.int64)
        k = 0
        while k < n:
            free = np.ones((len(perms), n), dtype=bool)
            free[np.arange(len(perms))[:, None], perms] = False
            images = np.nonzero(free)[1].reshape(-1, 1)
            if n - k == 2:
                pairs = images.reshape(-1, 2)
                images = np.stack([pairs, pairs[:, ::-1]], axis=1).reshape(-1, 2)
            perms = np.column_stack([np.repeat(perms, n - k, axis=0), images])
            lo, k = k, perms.shape[1]
            perms = perms[self._passes(perms, self.entry_bounds[lo], self.entry_bounds[k])]
        return perms

    def keeps(self, perms: np.ndarray) -> np.ndarray:
        """Mask of the given permutations (rows) that keep every entry."""
        return self._passes(perms, self.entry_bounds[0], self.entry_bounds[-1])


def _form_search(h: HermitianForm, tol: float) -> _PermutationSearch:
    """Permutation search on a form: sigma keeps it when every support entry
    satisfies |h[a, b] - h[sigma a, sigma b]| <= tol * max(1, max|h|)."""
    return _PermutationSearch(
        h.nvars, h.basis, h.mat, tol * max(1.0, h.max_abs()), permute_rows=True
    )


def _as_tuples(perms: np.ndarray) -> list[tuple[int, ...]]:
    return list(map(tuple, perms.tolist()))


# ---------------------------------------------------------------------------
# stabilizer structures
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TorusSubgroup:
    """Subgroup of the diagonal n-torus cut out by integer congruences."""

    n: int
    rows: tuple[MultiIndex, ...]
    torus_dim: int
    finite_orders: tuple[int, ...]
    finite_generators: tuple[tuple[float, ...], ...]
    torus_directions: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], n: int) -> "TorusSubgroup":
        unique = tuple(sorted({tuple(int(x) for x in r) for r in rows if any(r)}))
        dim, orders, gens, dirs = lattice.torus_annihilator(unique, n)
        return cls(
            n,
            unique,
            dim,
            tuple(orders),
            tuple(tuple(g) for g in gens),
            tuple(tuple(d) for d in dirs),
        )

    @property
    def is_full_torus(self) -> bool:
        return self.torus_dim == self.n

    @property
    def is_trivial(self) -> bool:
        return self.torus_dim == 0 and not self.finite_orders

    @property
    def order(self) -> int | None:
        """Number of elements, or None when a positive-dimensional torus remains."""
        if self.torus_dim:
            return None
        out = 1
        for d in self.finite_orders:
            out *= d
        return out

    def element_matrices(self, cap: int = 512) -> list[np.ndarray]:
        """All elements as diagonal unitaries (finite subgroups only)."""
        if self.order is None:
            raise CapabilityError("subgroup is infinite")
        if self.order > cap:
            raise CapabilityError(f"subgroup order {self.order} exceeds cap {cap}")
        ranges = [range(d) for d in self.finite_orders]
        combos = itertools.product(*ranges) if ranges else [()]
        out: list[np.ndarray] = []
        for ks in combos:
            theta = np.zeros(self.n)
            for k, gen in zip(ks, self.finite_generators):
                theta = theta + k * np.array(gen)
            m = np.diag(np.exp(1j * theta))
            if not any(np.max(np.abs(m - x)) < 1e-9 for x in out):
                out.append(m)
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "torus_dim": self.torus_dim,
            "finite_orders": list(self.finite_orders),
            "finite_generators": [list(g) for g in self.finite_generators],
            "torus_directions": [list(d) for d in self.torus_directions],
            "order": self.order,
            "lattice_rows": [list(r) for r in self.rows],
        }


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the source variables into maximal block-invariant groups."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = sorted(i for b in self.blocks for i in b)
        n = len(flat)
        if flat != list(range(n)):
            raise ValueError("blocks must partition the variable indices")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def source_rank_upper(self) -> int:
        """n - sum(block size - 1), the source-rank bound of the blocks."""
        return self.n - sum(len(b) - 1 for b in self.blocks)

    def to_dict(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}


# ---------------------------------------------------------------------------
# stabilizer computations
# ---------------------------------------------------------------------------
def diagonal_stabilizer(f: RationalMap) -> TorusSubgroup:
    """Diagonal unitaries preserving the form: lattice of exponent differences."""
    h = form_of(f)
    exps = exponent_array(h.basis, f.n)
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    # the distinct differences from one lexicographic sort of the rows: keys in
    # base 2D + 1 would overflow int64 on maps that analyze, as identity_map(40)
    diffs = exps[rows] - exps[cols]
    diffs = diffs[np.lexsort(diffs.T[::-1])]
    distinct = np.ones(len(diffs), dtype=bool)
    distinct[1:] = (diffs[1:] != diffs[:-1]).any(axis=1)
    return TorusSubgroup.from_rows(diffs[distinct].tolist(), f.n)


def permutation_stabilizer(f: RationalMap, tol: float = TAU_EQ) -> list[tuple[int, ...]]:
    """All coordinate permutations preserving the form (n <= 8).

    sigma belongs when every support entry of the form satisfies
    |h[a, b] - h[sigma a, sigma b]| <= tol * max(1, max|h|).  The list equals
    full enumeration, in the order of ``itertools.permutations(range(n))``
    (lexicographic); a pruned search only skips prefixes that already fail.
    """
    if f.n > MAX_PERMUTATION_DIM:
        raise CapabilityError(
            f"permutation enumeration is capped at n <= {MAX_PERMUTATION_DIM}"
        )
    return _as_tuples(_form_search(form_of(f), tol).search())


def strict_diagonal_stabilizer(f: RationalMap) -> TorusSubgroup:
    """Diagonal unitaries gamma with f o gamma = f exactly (coefficientwise)."""
    return TorusSubgroup.from_rows(f.monos, f.n)


def strict_permutation_stabilizer(
    f: RationalMap, tol: float = TAU_EQ
) -> list[tuple[int, ...]]:
    """Coordinate permutations with f o sigma = f componentwise (n <= 8).

    For each numerator component and the denominator p, every coefficient
    of p o sigma - p, over the union of the supports of p and p o sigma, is
    at most tol * max(1, max|p|) in magnitude.  The list equals full
    enumeration, in the order of ``itertools.permutations(range(n))``
    (lexicographic).
    """
    if f.n > MAX_PERMUTATION_DIM:
        raise CapabilityError(
            f"permutation enumeration is capped at n <= {MAX_PERMUTATION_DIM}"
        )
    monos, A = stacked_coefficients(f)
    scale = np.maximum(1.0, np.abs(A).max(axis=1, initial=0.0))
    search = _PermutationSearch(f.n, monos, A, tol * scale, permute_rows=False)
    # the union of supp(p) and sigma(supp(p)) holds, at sigma(a), the entry
    # |p[sigma a] - p[a]| the search checks and, at a, |p[a] - p[sigma^-1 a]|,
    # the same check for the inverse permutation
    perms = search.search()
    return _as_tuples(perms[search.keeps(np.argsort(perms, axis=1))])


@dataclass(frozen=True)
class StrictStabilizer:
    diagonal: TorusSubgroup
    permutations: tuple[tuple[int, ...], ...] | None  # None when enumeration skipped

    def to_dict(self) -> dict:
        return {
            "diagonal": self.diagonal.to_dict(),
            "permutations": None
            if self.permutations is None
            else [list(p) for p in self.permutations],
        }


def strict_stabilizer(f: RationalMap, tol: float = TAU_EQ) -> StrictStabilizer:
    """Diagonal and permutation parts of the exact invariance group f o g = f.

    The permutations are None above the n <= MAX_PERMUTATION_DIM cap.
    """
    perms = None
    if f.n <= MAX_PERMUTATION_DIM:
        perms = tuple(strict_permutation_stabilizer(f, tol))
    return StrictStabilizer(strict_diagonal_stabilizer(f), perms)


# ---------------------------------------------------------------------------
# structural tests
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TorusTestResult:
    is_torus_invariant: bool
    monomials: tuple[tuple[float, MultiIndex], ...] | None

    def to_dict(self) -> dict:
        return {
            "is_torus_invariant": self.is_torus_invariant,
            "monomials": None
            if self.monomials is None
            else [{"weight": w, "exponent": list(a)} for w, a in self.monomials],
        }


def torus_test(f: RationalMap, tol: float = TAU_EQ) -> TorusTestResult:
    """Full-torus invariance: the form is diagonal over the monomial basis.

    When the map is polynomial with f(0) = 0 the equivalent monomial-map data
    (weights and exponents) is read off the diagonal.
    """
    h = form_of(f)
    diagonal = h.is_diagonal(tol * max(1.0, h.max_abs()))
    monomials = None
    if diagonal and f.is_polynomial(tol) and f.maps_origin_to_zero(tol):
        weights = zip(h.basis, np.diag(h.mat).real.tolist())
        monomials = tuple((math.sqrt(v), a) for a, v in weights if any(a) and v > tol)
    return TorusTestResult(diagonal, monomials)


@dataclass(frozen=True)
class FullUnitaryTestResult:
    is_unitary_invariant: bool
    powers: tuple[tuple[float, int], ...] | None

    def to_dict(self) -> dict:
        return {
            "is_unitary_invariant": self.is_unitary_invariant,
            "powers": None
            if self.powers is None
            else [{"weight": w, "power": m} for w, m in self.powers],
        }


def full_unitary_test(f: RationalMap, tol: float = TAU_EQ) -> FullUnitaryTestResult:
    """Full-unitary invariance: the form is a polynomial in |z|^2.

    Requires every off-diagonal entry to vanish and each total degree to
    carry diagonal entries proportional to the multinomial pattern.  The
    returned powers are the weights of the equivalent orthogonal sum of
    tensor powers.  A true-ball map not fixing the origin is re-centered by
    the target automorphism psi_b with b = f(0).  That only rescales the
    form: |psi_b(w)|^2 - 1 = (1 - |b|^2)(|w|^2 - 1) / |1 - <w, b>|^2, so after
    normalizing the denominator form(psi_b o f) = form(f) / (1 - |b|^2).
    """
    h = form_of(f)
    if f.l == 0 and not f.maps_origin_to_zero(tol):
        f0 = f.coeffs[:-1, 0]  # the first column is the constant monomial
        b2 = float(np.vdot(f0, f0).real) / abs(complex(f.coeffs[-1, 0])) ** 2
        if b2 < 1.0:
            h = h.scale(1.0 / (1.0 - b2))
    scale = max(1.0, h.max_abs())
    if not h.is_diagonal(tol * scale):
        return FullUnitaryTestResult(False, None)
    diagonal = dict(zip(h.basis, np.diag(h.mat).real.tolist()))
    powers: list[tuple[float, int]] = []
    for t in range(h.max_degree() + 1):
        monos = degree_monomials(f.n, t)
        values = [diagonal.get(alpha, 0.0) / multinomial(alpha) for alpha in monos]
        lam = values[0]
        if any(abs(v - lam) > tol * scale for v in values):
            return FullUnitaryTestResult(False, None)
        if t == 0:
            continue  # the constant slot carries -|q(0)|^2, not a tensor power
        if lam > tol * scale:
            powers.append((math.sqrt(lam), t))
    return FullUnitaryTestResult(True, tuple(powers))


def block_partition(f: RationalMap, tol: float = TAU_EQ) -> BlockPartition:
    """Maximal variable blocks on which the form is block-unitary invariant.

    Two variables merge when both infinitesimal rotations mixing them and
    both individual phase rotations annihilate the form; merged pairs close
    up into blocks (invariance under the connected block-unitary group is
    exactly infinitesimal invariance).  The form is read as its support
    entries c at the exponent pairs (a, b): the phase rotation of z_i kills
    it when no entry above the cut has a_i != b_i, and the rotation
    z_i d/dz_j - conj(z_j) d/dconj(z_i) sends entry (a, b, c) to
    c a_j at (a + e_i - e_j, b) and -c b_i at (a, b - e_i + e_j), summed
    over the distinct pairs in entry order.
    """
    h = form_of(f)
    cut = tol * max(1.0, h.max_abs())
    rows, cols = np.nonzero(np.abs(h.mat) > TAU_ZERO)
    exps = exponent_array(h.basis, f.n)
    a, b, c = exps[rows], exps[cols], h.mat[rows, cols]
    phase = ~((a != b) & (np.abs(c) > cut)[:, None]).any(axis=0)

    def rotation_vanishes(i: int, j: int) -> bool:
        step = np.eye(1, f.n, i, dtype=np.int64) - np.eye(1, f.n, j, dtype=np.int64)
        terms = np.stack([np.hstack([a + step, b]), np.hstack([a, b - step])], axis=1)
        pairs, (at,) = grlex_union(list(map(tuple, terms.reshape(-1, 2 * f.n).tolist())))
        acc = np.zeros(len(pairs), dtype=complex)
        np.add.at(acc, at, np.stack([c * a[:, j], -c * b[:, i]], axis=1).ravel())
        return np.abs(acc).max(initial=0.0) <= cut

    merged = np.zeros((f.n, f.n), dtype=bool)
    for i, j in itertools.combinations(np.flatnonzero(phase).tolist(), 2):
        merged[i, j] = merged[j, i] = rotation_vanishes(i, j) and rotation_vanishes(j, i)
    labels = _support_blocks(merged)  # the first variable of each block
    blocks = [np.flatnonzero(labels == r).tolist() for r in np.unique(labels)]
    return BlockPartition(tuple(map(tuple, blocks)))


def source_rank_upper(f: RationalMap, tol: float = TAU_EQ) -> int:
    """Upper bound n - sum(block size - 1) from detected block invariance.

    The blocks are read in the given coordinates; no conjugating
    automorphism is searched for.
    """
    return block_partition(f, tol).source_rank_upper


def power_chain_check(f: RationalMap, tol: float = TAU_EQ) -> set[int]:
    """Coordinates j whose pure powers z_j, z_j^2, ..., z_j^d all appear in f.

    An empty result for a polynomial map certifies that no automorphism
    moving the origin can belong to the Hermitian invariant group.
    """
    if not f.is_polynomial(tol):
        raise MapConstructionError("power-chain check requires a polynomial map")
    support = set(numerator_rows(f)[0])
    return {
        j
        for j in range(f.n)
        if all(
            tuple(k if i == j else 0 for i in range(f.n)) in support
            for k in range(1, f.degree + 1)
        )
    }


def origin_move_residual(f: RationalMap, gamma: BallAutomorphism) -> float:
    """Origin-moving necessary condition residual.

    For gamma = U phi_a in the invariant group of a degree-d map with
    p(0) = 0, the product of the form values at a and at U a must equal
    (1 - |a|^2)^(2 d); the absolute defect is returned, so a nonzero value
    certifies non-membership.
    """
    if f.l != 0:
        raise MapConstructionError("the residual test applies to true-ball targets")
    if not f.maps_origin_to_zero():
        raise MapConstructionError("map must send the origin to zero")
    a = gamma.a
    h = form_of(f)
    lhs = h.evaluate(a) * h.evaluate(gamma.U @ a)
    rhs = (1.0 - float(np.vdot(a, a).real)) ** (2 * f.degree)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# finite group closure
# ---------------------------------------------------------------------------
def group_closure(
    generators: Sequence[np.ndarray], cap: int = 4096, tol: float = TAU_GROUP
) -> list[np.ndarray]:
    """Close unitary generators under products (breadth-first).

    Elements are bucketed by rounded entries and verified at tolerance
    ``tol``; exceeding ``cap`` raises, signalling an infinite or large group.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    dim = np.asarray(generators[0]).shape[0]
    gens = []
    for g in generators:
        g = np.asarray(g, dtype=complex)
        if g.shape != (dim, dim):
            raise ValueError("generators must share one square shape")
        if np.max(np.abs(g.conj().T @ g - np.eye(dim))) > tol:
            raise ValueError("generators must be unitary")
        gens.append(g)

    decimals = max(1, int(-math.log10(tol)))
    elements: list[np.ndarray] = []
    buckets: dict[bytes, list[int]] = {}

    def key(m: np.ndarray) -> bytes:
        return (np.round(m, decimals) + 0.0).tobytes()  # +0.0 folds -0.0 into +0.0

    def lookup(m: np.ndarray) -> bool:
        for idx in buckets.get(key(m), []):
            if np.max(np.abs(elements[idx] - m)) <= tol:
                return True
        return False

    def insert(m: np.ndarray) -> None:
        buckets.setdefault(key(m), []).append(len(elements))
        elements.append(m)

    insert(np.eye(dim, dtype=complex))
    frontier = [np.eye(dim, dtype=complex)]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gens:
                prod = m @ g
                if not lookup(prod):
                    if len(elements) >= cap:
                        raise GroupClosureError(
                            f"group closure exceeded cap {cap}; group may be infinite"
                        )
                    insert(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return elements


# ---------------------------------------------------------------------------
# group report
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GroupReport:
    n: int
    torus_invariant: bool
    full_unitary_invariant: bool
    block_partition: BlockPartition
    diagonal_stabilizer: TorusSubgroup
    permutation_stabilizer: tuple[tuple[int, ...], ...] | None
    source_rank_upper: int
    origin_moving_excluded: bool
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "torus_invariant": self.torus_invariant,
            "full_unitary_invariant": self.full_unitary_invariant,
            "block_partition": self.block_partition.to_dict(),
            "diagonal_stabilizer": self.diagonal_stabilizer.to_dict(),
            "permutation_stabilizer": None
            if self.permutation_stabilizer is None
            else [list(p) for p in self.permutation_stabilizer],
            "source_rank_upper": self.source_rank_upper,
            "origin_moving_excluded": self.origin_moving_excluded,
            "notes": list(self.notes),
        }


def group_report(f: RationalMap, tol: float = TAU_EQ) -> GroupReport:
    """Run the structural detection pipeline and collect the results."""
    notes: list[str] = []
    torus = torus_test(f, tol)
    unitary = full_unitary_test(f, tol)
    blocks = block_partition(f, tol)
    diag = diagonal_stabilizer(f)
    perms: tuple[tuple[int, ...], ...] | None
    if f.n <= MAX_PERMUTATION_DIM:
        perms = tuple(permutation_stabilizer(f, tol))
    else:
        perms = None
        notes.append(
            f"permutation stabilizer skipped: n={f.n} exceeds cap {MAX_PERMUTATION_DIM}"
        )
    excluded = False
    if f.is_polynomial(tol):
        if f.degree >= 2 and f.maps_origin_to_zero(tol) and not power_chain_check(f, tol):
            excluded = True
    else:
        notes.append("origin-moving exclusion not determined for rational maps")
    return GroupReport(
        f.n,
        torus.is_torus_invariant,
        unitary.is_unitary_invariant,
        blocks,
        diag,
        perms,
        blocks.source_rank_upper,
        excluded,
        tuple(notes),
    )


# ---------------------------------------------------------------------------
# invariance equation system
# ---------------------------------------------------------------------------
def _expansions(a: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrices E with column sums a, and their weights w(E).

    The row action w_j = sum_i v_i u_ij turns w^a into
    sum_E w(E) v^(row sums of E) u^E with w(E) = prod_j multinomial(E[:, j]),
    the sum running over the square matrices E whose column sums are a.
    Returns E flattened row-major (one row per matrix, u_ij at i * n1 + j)
    and w(E).  There are prod_j C(a_j + n, n) of them, n1 = n + 1 = len(a).
    """
    n1 = len(a)
    columns = [degree_monomials(n1, aj) for aj in a]
    picks = np.array(list(itertools.product(*columns)), dtype=np.int64)
    E = picks.transpose(0, 2, 1).reshape(len(picks), n1 * n1)
    weights = [[multinomial(c) for c in col] for col in columns]
    w = np.array([math.prod(ws) for ws in itertools.product(*weights)], dtype=float)
    return E, w


def emit_invariance_system(f: RationalMap) -> dict:
    """Polynomial equations cutting out the invariant group in matrix entries.

    Equates the coefficients of z^alpha s^mu conj(z)^beta conj(s)^nu in
    |p((z,s)U)|^2_l - |q((z,s)U)|^2 = (lambda(U) / h00) (|p(z,s)|^2_l - |q(z,s)|^2),
    each component made homogeneous of the degree d of f.  Both sides are
    read off the form h = form_of(f).  Under (z, s) -> (z, s)U a homogeneous
    monomial a = (alpha, d - |alpha|) becomes sum_E w(E) v^(row sums of E) u^E
    (:func:`_expansions`), so in the equation of v1 = (alpha, mu) and
    v2 = (beta, nu) the coefficient of u^E1 conj(u)^E2 is
    w(E1) w(E2) h[col sums E1, col sums E2], over the E1 with row sums v1 and
    the E2 with row sums v2.  lambda(U) is that block on the origin row
    v1 = v2 = (0, d), where every E takes its whole column sums from the last
    row: lambda(U) = sum h[a, b] u^(last row a) conj(u)^(last row b), and
    h00 = h[0, 0] = |p(0)|^2_l - |q(0)|^2 (-1 when f(0) = 0).  Each equation
    is a sesquilinear polynomial in the entries of U, its terms pruned at
    TAU_ZERO and kept in the lexicographic order of their dense exponent
    vectors (u, ubar); metric and determinant constraints on U are emitted
    alongside.  In the document (schema SYSTEM_SCHEMA) a term's ``u`` and
    ``ubar`` list the flat indices i * (n + 1) + j of its factors U_ij,
    ascending, one entry per factor (u_0^2 u_4 is [0, 0, 4]): d in each list
    of an equation term, 1 and 1 in a metric term, n + 1 and none in a
    determinant term.  Terms with the same expansion share one index list.

    Raises, before building any term: CapabilityError for n >
    MAX_PERMUTATION_DIM (the determinant constraint has (n + 1)! terms);
    MapConstructionError when |h00| <= TAU_ZERO, where the origin row cannot
    fix the constant; and CapabilityError when the ordered pairs (E1, E2) on
    the support of h, sum over |h[a, b]| > TAU_ZERO of
    prod_j C(a_j + n, n) C(b_j + n, n), exceed MAX_SYSTEM_PAIRS.
    """
    if f.n > MAX_PERMUTATION_DIM:
        raise CapabilityError(
            f"the determinant constraint has (n + 1)! terms; emission is capped at "
            f"n <= {MAX_PERMUTATION_DIM}"
        )
    h = form_of(f)
    n, d, n1 = f.n, f.degree, f.n + 1
    h00 = h.entry((0,) * n, (0,) * n).real
    if abs(h00) <= TAU_ZERO:
        raise MapConstructionError(
            "the form vanishes at the origin row; the invariance system is undefined"
        )
    homogeneous = [alpha + (d - sum(alpha),) for alpha in h.basis]
    counts = np.array([math.prod(math.comb(aj + n, n) for aj in a) for a in homogeneous], float)
    pairs = counts @ (np.abs(h.mat) > TAU_ZERO) @ counts
    if pairs > MAX_SYSTEM_PAIRS:
        raise CapabilityError(
            f"the invariance system has {pairs:.3g} term pairs; emission is capped at "
            f"{MAX_SYSTEM_PAIRS}"
        )

    # every expansion of every basis monomial, sorted lexicographically in E,
    # so a pair of positions orders terms as (u, ubar) does
    parts = [_expansions(a) for a in homogeneous]
    E = np.concatenate([p[0] for p in parts])
    w = np.concatenate([p[1] for p in parts])
    col = np.repeat(np.arange(h.size), [len(p[1]) for p in parts])
    order = np.lexsort(E.T[::-1])
    E, w, col = E[order], w[order], col[order]
    K = len(E)
    vs, group_of = np.unique(E.reshape(K, n1, n1).sum(axis=2), axis=0, return_inverse=True)
    groups = [np.flatnonzero(group_of.ravel() == g) for g in range(len(vs))]
    vs = [tuple(v) for v in vs.tolist()]
    origin = groups[vs.index((0,) * n + (d,))]
    lam_keys = np.add.outer(origin * K, origin).ravel()
    lam = h.mat[np.ix_(col[origin], col[origin])].ravel()
    # the basis row of the alpha part of each v, where it is in the basis
    _, (of_basis, of_v) = grlex_union(h.basis, [v[:n] for v in vs])
    row_of, in_basis = find_sorted(of_basis, of_v)
    # each expansion as its d flat unknown indices, ascending, one per factor
    u_of = np.repeat(np.tile(np.arange(n1 * n1), K), E.ravel()).reshape(K, d).tolist()

    equations = []
    for i1, (v1, g1) in enumerate(zip(vs, groups)):
        for i2 in range(i1, len(vs)):
            v2, g2 = vs[i2], groups[i2]
            keys = np.add.outer(g1 * K, g2).ravel()
            values = (np.outer(w[g1], w[g2]) * h.mat[np.ix_(col[g1], col[g2])]).ravel()
            h_value = h.mat[row_of[i1], row_of[i2]] if in_basis[i1] and in_basis[i2] else 0.0
            if abs(h_value) > TAU_ZERO:
                keys, at = np.unique(np.concatenate([keys, lam_keys]), return_inverse=True)
                total = np.zeros(len(keys), dtype=complex)
                np.add.at(total, at, np.concatenate([values, h_value * (-1.0 / h00) * lam]))
                values = total
            keep = np.abs(values) > TAU_ZERO
            if not keep.any():
                continue
            keys, values = keys[keep], values[keep]
            columns = (keys // K, keys % K, values.real, values.imag)
            equations.append(
                {
                    "alpha": list(v1[:n]),
                    "mu": v1[n],
                    "beta": list(v2[:n]),
                    "nu": v2[n],
                    "terms": [
                        {"u": u_of[k1], "ubar": u_of[k2], "re": re, "im": im}
                        for k1, k2, re, im in zip(*(c.tolist() for c in columns))
                    ],
                }
            )

    # metric constraints: U J U^dagger = J with J = diag(1..1, -1)
    metric = [
        {
            "row": k,
            "col": m,
            "constant": (-1.0 if k < n1 - 1 else 1.0) if k == m else 0.0,
            "terms": [
                {"u": [k * n1 + j], "ubar": [m * n1 + j], "re": sign, "im": 0.0}
                for j, sign in enumerate([1.0] * n + [-1.0])
            ],
        }
        for k in range(n1)
        for m in range(k, n1)
    ]

    det_terms = [
        {
            "u": [i * n1 + j for i, j in enumerate(perm)],
            "ubar": [],
            "re": (-1.0) ** sum(a > b for a, b in itertools.combinations(perm, 2)),
            "im": 0.0,
        }
        for perm in itertools.permutations(range(n1))
    ]

    return {
        "schema": SYSTEM_SCHEMA,
        "n": f.n,
        "degree": d,
        "target_signature": [f.m, f.l],
        "unknowns": {"shape": [n1, n1], "order": "row-major"},
        "equations": equations,
        "metric_constraints": metric,
        "determinant_constraint": {"constant": -1.0, "terms": det_terms},
    }


def evaluate_invariance_system(system: Mapping, matrix: np.ndarray) -> float:
    """Max residual of the main equations at a concrete matrix.

    The system is scale-covariant, so any nonzero multiple of a projective
    automorphism matrix can be substituted directly.  Every equation term
    lists d factors in ``u`` and d in ``ubar``: their indices into the flat
    entries of U and conj(U) form one (terms, 2d) array, each term is its
    coefficient times the product along its row, taken one factor position
    at a time, and the terms are summed into their equations in order.
    Raises ValueError for a document of any other schema than SYSTEM_SCHEMA
    and for index lists outside the matrix or of unequal lengths.
    """
    if system.get("schema") != SYSTEM_SCHEMA:
        raise ValueError(f"expected schema {SYSTEM_SCHEMA}, got {system.get('schema')!r}")
    size = system["unknowns"]["shape"][0] ** 2
    u = np.asarray(matrix, dtype=complex).reshape(-1)
    if u.shape[0] != size:
        raise ValueError("matrix shape does not match the system unknowns")
    equations = system["equations"]
    terms = [term for eq in equations for term in eq["terms"]]
    # each term's factors as one row of indices into (u, conj u)
    factors = []
    for key, shift in (("u", 0), ("ubar", size)):
        lists = [term[key] for term in terms]
        index = np.fromiter(itertools.chain.from_iterable(lists), np.int64)
        if index.size and not 0 <= index.min() <= index.max() < size:
            raise ValueError(f"a {key} index is outside 0..{size - 1}")
        lengths = set(map(len, lists))
        if len(lengths) > 1:
            raise ValueError(f"the terms' {key} lists have unequal lengths {sorted(lengths)}")
        factors.append(shift + index.reshape(len(lists), lengths.pop() if lengths else 0))
    values = np.array([t["re"] for t in terms]) + 1j * np.array([t["im"] for t in terms])
    entries = np.concatenate([u, u.conj()])
    for position in np.hstack(factors).T:
        values *= entries[position]
    eq = np.repeat(np.arange(len(equations)), [len(e["terms"]) for e in equations])
    totals = np.bincount(eq, values.real, len(equations)) + 1j * np.bincount(
        eq, values.imag, len(equations)
    )
    return float(np.max(np.abs(totals), initial=0.0))
