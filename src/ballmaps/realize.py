"""Constructions of proper maps with prescribed finite invariance groups.

The workhorse is padding: given any polynomial map p, choose a positive
combination of norm powers R = sum lambda_j^2 |z|^(2 m_j) and take epsilon
at half the largest value for which R - epsilon^2 |p|^2 stays positive
semidefinite, read in closed form off one eigenvalue because R is diagonal;
factoring the remainder yields components q with epsilon p (+) q proper.
Stacked tensor powers then separate degrees so that the only surviving
symmetries are the requested ones.

The realizations are built form first.  Properness, the invariance group
and both ranks depend only on the form |f|^2 - 1, and two polynomial maps
with the same |f|^2 differ by a target isometry, so each construction
assembles its positive form |f|^2 from Gram forms: a juxtaposition is a
weighted sum and a tensor product with the power z^(x)k is a product with
the norm power |z|^(2k).  :func:`factor_form` then splits that form once
into rank-many sparse components.  :func:`symmetric_group_map` keeps its
component construction: its components, and with them its strict
(component-level) stabilizer, are analysed as they are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .hermitian import (
    HermitianForm,
    TAU_SIG,
    _support_blocks,
    form_of,
    gram_form,
    norm_power_form,
)
from .invariance import MAX_PERMUTATION_DIM, CapabilityError, membership, _form_search
from .maps import (
    MapConstructionError,
    RationalMap,
    catalog,
    coefficient_matrix,
    juxtapose_theta,
    numerator_rows,
    oplus,
    polynomial_map,
    polynomial_map_of_rows,
    polynomials_of_rows,
    pruned_rows,
    tensor,
    tensor_power,
    unitary_automorphism,
)
from .polynomials import MultiIndex, Polynomial, TAU_ZERO, degree_monomials, grlex_union


class RealizationError(RuntimeError):
    """Raised when a constructed map fails its built-in verification."""


# ---------------------------------------------------------------------------
# factorization of Hermitian forms
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FactorizationResult:
    """Holomorphic decomposition h = sum |f_i|^2 - sum |g_j|^2.

    ``positives`` and ``negatives`` hold one coefficient row per component
    over the monomials ``monos`` (the basis of h).
    """

    monos: tuple[MultiIndex, ...]
    positives: np.ndarray
    negatives: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactorizationResult):
            return NotImplemented
        rows = ("positives", "negatives")
        same_rows = all(np.array_equal(getattr(self, k), getattr(other, k)) for k in rows)
        return self.monos == other.monos and same_rows

    def reconstruct(self, nvars: int) -> HermitianForm:
        signs = [1.0] * len(self.positives) + [-1.0] * len(self.negatives)
        return gram_form(nvars, self.monos, np.vstack([self.positives, self.negatives]), signs)


def factor_form(h: HermitianForm, tol_sig: float = TAU_SIG) -> FactorizationResult:
    """Eigendecompose the coefficient matrix into sparse holomorphic components,
    returned as coefficient rows over the basis of h.

    The support graph (|h_ab| > TAU_ZERO) splits the matrix into connected
    blocks, which are factored separately.  Each block is scaled by
    d_a = sqrt(max_b |h_ab|) on both sides, a congruence that keeps its
    inertia and brings every entry to at most 1, so rows of very different
    magnitude are resolved to the same relative accuracy.  An eigenpair
    (lambda, v) of the scaled block gives the component d o v sqrt|lambda|,
    split by the sign of lambda; eigenvalues within the relative threshold
    of the block's largest are dropped.  The components of a block are
    linearly independent because its eigenvectors are.
    """
    support = np.abs(h.mat) > TAU_ZERO
    pos, neg = [np.zeros((0, h.size), dtype=complex)], [np.zeros((0, h.size), dtype=complex)]
    labels = _support_blocks(support)
    for label in np.unique(labels[support.any(axis=1)]):
        idx = np.flatnonzero(labels == label)
        block = h.mat[np.ix_(idx, idx)]
        d = np.sqrt(np.max(np.abs(block), axis=1))
        eigvals, eigvecs = np.linalg.eigh(block / np.outer(d, d))
        keep = np.abs(eigvals) > tol_sig * np.max(np.abs(eigvals))
        comps = np.zeros((np.count_nonzero(keep), h.size), dtype=complex)
        comps[:, idx] = (d[:, None] * eigvecs[:, keep] * np.sqrt(np.abs(eigvals[keep]))).T
        pos.append(comps[eigvals[keep] > 0])
        neg.append(comps[eigvals[keep] < 0])
    return FactorizationResult(h.basis, np.vstack(pos), np.vstack(neg))


# ---------------------------------------------------------------------------
# padding to a proper map
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PadResult:
    """Certificate epsilon^2 |p|^2 + |q|^2 = sum lambda_j^2 |z|^(2 m_j).

    The padding q is held as one coefficient row per component over the
    graded-lex ``monos``; ``components`` views the rows as polynomials.
    """

    epsilon: float
    monos: tuple[MultiIndex, ...]
    rows: np.ndarray
    lambdas: tuple[float, ...]
    powers: tuple[int, ...]

    @property
    def components(self) -> tuple[Polynomial, ...]:
        nvars = len(self.monos[0]) if self.monos else 0
        return tuple(polynomials_of_rows(nvars, self.monos, self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadResult):
            return NotImplemented
        same = ("epsilon", "monos", "lambdas", "powers")
        same_values = all(getattr(self, k) == getattr(other, k) for k in same)
        return same_values and np.array_equal(self.rows, other.rows)

    def target_form(self, nvars: int) -> HermitianForm:
        return _norm_power_sum(nvars, self.lambdas, self.powers)


def _norm_power_sum(nvars: int, lambdas: Sequence[float], powers: Sequence[int]) -> HermitianForm:
    """sum_j lambda_j^2 |z|^(2 m_j)."""
    acc = HermitianForm.zero(nvars)
    for lam, m in zip(lambdas, powers):
        acc = acc + norm_power_form(nvars, m).scale(lam * lam)
    return acc


def _min_eig(h: HermitianForm) -> float:
    if not h.size:
        return 0.0
    return float(np.min(np.linalg.eigvalsh(h.mat)))


def pad_to_proper(
    p: Sequence[Polynomial],
    epsilon: float | None = None,
    omit_empty_degrees: bool = False,
) -> PadResult:
    """Pad a polynomial map to a proper map via norm-power targets.

    The target form R uses powers 0..deg(p) with equal weights;
    ``omit_empty_degrees`` drops powers where p has no monomials of that
    degree (the remainder then stays positive semidefinite on its support).
    When epsilon is not supplied it is half the supremum eps_sup of the
    feasible values, which has a closed form: R is diagonal and positive on
    the support of b = |p|^2, so with D the diagonal of R there and B the
    matrix of b, R - e^2 b is positive semidefinite exactly when
    e^2 <= 1 / lambda_max(D^(-1/2) B D^(-1/2)).  At eps_sup / 2 the scaled
    remainder D^(-1/2) (R - eps^2 b) D^(-1/2) has eigenvalues in [3/4, 1].
    A supplied epsilon must be finite and leave the remainder positive
    semidefinite.
    """
    p = list(p)
    nvars = p[0].nvars if p else 0
    if any(q.nvars != nvars for q in p):
        raise MapConstructionError("padding requires a common variable count")
    degree = max((q.degree for q in p), default=0)
    nonzero = [q for q in p if not q.is_zero()]

    powers = list(range(degree + 1))
    if omit_empty_degrees:
        present = {sum(exp) for q in nonzero for exp in q.terms}
        powers = [j for j in powers if j in present] or [0]
    weights = [1.0 / math.sqrt(len(powers))] * len(powers)

    target = _norm_power_sum(nvars, weights, powers)
    b = gram_form(nvars, *coefficient_matrix(nonzero))

    eps = 1.0 if epsilon is None else float(epsilon)
    if not math.isfinite(eps):
        raise MapConstructionError(f"supplied epsilon {eps} is not finite")
    if epsilon is None and b.size:
        _, (_, at) = grlex_union(target.basis, b.basis)
        s = 1.0 / np.sqrt(target.mat.real.diagonal()[at])
        eps = 0.5 / math.sqrt(np.linalg.eigvalsh(s[:, None] * b.mat * s)[-1])
    remainder = target - b.scale(eps * eps)
    if epsilon is not None and _min_eig(remainder) < -1e-8 * max(1.0, target.max_abs()):
        raise MapConstructionError(f"supplied epsilon {eps} is too large: remainder is not PSD")

    factored = factor_form(remainder, tol_sig=1e-12)
    if np.abs(factored.negatives).max(initial=0.0) > 1e-6:
        raise MapConstructionError(
            "padding remainder has a significantly negative part; epsilon too large"
        )
    monos, rows = pruned_rows(factored.monos, factored.positives)
    rows.setflags(write=False)
    return PadResult(eps, tuple(monos), rows, tuple(weights), tuple(powers))


def padded_map(p: Sequence[Polynomial], pad: PadResult) -> RationalMap:
    """The proper map epsilon p (+) q from a padding certificate."""
    nvars = p[0].nvars if p else 0
    f = polynomial_map_of_rows(nvars, *coefficient_matrix(p))
    return oplus(f, polynomial_map_of_rows(nvars, pad.monos, pad.rows), (pad.epsilon, 1.0))


# ---------------------------------------------------------------------------
# permutation utilities
# ---------------------------------------------------------------------------
def _compose_perms(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a o b)(i) = a[b[i]]."""
    return tuple(a[b[i]] for i in range(len(a)))


def close_permutation_group(
    generators: Iterable[Sequence[int]], n: int
) -> list[tuple[int, ...]]:
    """Exact closure of permutation generators inside S_n."""
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(n)):
            raise MapConstructionError(f"{g} is not a permutation of 0..{n - 1}")
        gens.append(g)
    identity = tuple(range(n))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = _compose_perms(g, e)
                if prod not in elements:
                    elements.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(elements)


# ---------------------------------------------------------------------------
# symmetric group realizations
# ---------------------------------------------------------------------------
def symmetric_group_map(n: int) -> RationalMap:
    """Degree-3 polynomial proper map whose invariance group is S_n.

    Built from the quadratic monomial block (all z_j z_k with j < k, tensored
    with z after a sqrt(2) weight), the squares block (z_1^2, ..., z_n^2),
    and a padded copy of 1 + sum z_i that kills the diagonal torus.
    """
    if n < 1:
        raise MapConstructionError("n must be positive")
    if n == 1:
        return catalog("corollary-6-2")
    zs = [Polynomial.variable(n, i) for i in range(n)]
    pair_block = [zs[j] * zs[k] for j in range(n) for k in range(j + 1, n)]
    squares = [z * z for z in zs]
    z_map = polynomial_map(zs)
    pair_map = polynomial_map([q.scale(math.sqrt(2.0)) for q in pair_block])
    g = oplus(tensor(pair_map, z_map), polynomial_map(squares))

    affine = Polynomial.constant(n, 1.0)
    for z in zs:
        affine = affine + z
    pad = pad_to_proper([affine])
    h = oplus(
        polynomial_map([affine.scale(pad.epsilon)]),
        tensor(polynomial_map_of_rows(n, pad.monos, pad.rows), z_map),
    )
    return juxtapose_theta(g, h, math.pi / 4.0)


def symmetric_group_map_v2(n: int) -> RationalMap:
    """Higher-degree alternative realization of S_n from prod (1 + z_j).

    The positive form is eps^2 |prod|^2 |z|^2 + |q|^2 |z|^(2(n + 2)) for the
    padding q of prod, factored once into the components of the map.
    """
    if n < 1:
        raise MapConstructionError("n must be positive")
    zs = [Polynomial.variable(n, i) for i in range(n)]
    prod = Polynomial.constant(n, 1.0)
    for z in zs:
        prod = prod * (Polynomial.constant(n, 1.0) + z)
    pad = pad_to_proper([prod])
    m = n + 2
    positive = gram_form(n, *coefficient_matrix([prod])).scale(pad.epsilon**2)
    positive = positive * norm_power_form(n, 1)
    positive = positive + gram_form(n, pad.monos, pad.rows) * norm_power_form(n, m)
    return _map_of_positive_form(positive)


def _map_of_positive_form(h: HermitianForm) -> RationalMap:
    """The polynomial map whose components factor a positive semidefinite form."""
    factored = factor_form(h)
    if len(factored.negatives):
        raise RealizationError("the positive form of the construction has a negative part")
    return polynomial_map_of_rows(h.nvars, factored.monos, factored.positives)


def _verify_permutation_group(
    f: RationalMap, perms: Sequence[tuple[int, ...]]
) -> None:
    keep = _form_search(form_of(f), 1e-8).keeps(np.array(perms).reshape(len(perms), f.n))
    lost = np.flatnonzero(~keep)
    if lost.size:
        raise RealizationError(f"constructed map lost the symmetry {perms[lost[0]]}")


def realize_subgroup(generators: Iterable[Sequence[int]], n: int) -> RationalMap:
    """Proper polynomial map whose permutation symmetries are exactly the group.

    The group is closed from the generators; the full symmetric group
    delegates to :func:`symmetric_group_map`.  Otherwise a group-averaged
    monomial with strictly increasing exponents (1, 2, ..., n) is padded and
    juxtaposed against the symmetric-group map behind degree-separating
    tensor powers, so unitary symmetries must preserve both blocks.  The
    positive form 1/2 |f_sym|^2 + 1/2 (eps^2 |tau|^2 + |q|^2 |z|^(2 k3))
    |z|^(2 k4) is factored into the components of the returned map.
    """
    if n > MAX_PERMUTATION_DIM:
        raise CapabilityError(f"subgroup realization is capped at n <= {MAX_PERMUTATION_DIM}")
    group = close_permutation_group(generators, n)
    if len(group) == math.factorial(n):
        return symmetric_group_map(n)

    mu = list(range(1, n + 1))
    tau = Polynomial.constant(n, 1.0)
    for perm in group:
        exp = [0] * n
        for j in range(n):
            exp[perm[j]] = mu[j]
        tau = tau + Polynomial.monomial(exp, 1.0)
    pad = pad_to_proper([tau], omit_empty_degrees=True)
    k3 = sum(mu) + 1
    f_sym = symmetric_group_map(n)
    k4 = f_sym.degree + 1
    padded = gram_form(n, *coefficient_matrix([tau])).scale(pad.epsilon**2)
    padded = padded + gram_form(n, pad.monos, pad.rows) * norm_power_form(n, k3)
    positive = gram_form(n, *numerator_rows(f_sym)) + padded * norm_power_form(n, k4)
    positive = positive.scale(0.5)
    result = _map_of_positive_form(positive)
    _verify_permutation_group(result, group)
    return result


# ---------------------------------------------------------------------------
# realization from a supplied invariant basis
# ---------------------------------------------------------------------------
def _support_of_summand(h: Polynomial, m: int) -> set[MultiIndex]:
    base = set(h.terms) | {(0,) * h.nvars}
    out = set()
    for beta in degree_monomials(h.nvars, m):
        for alpha in base:
            out.add(tuple(a + b for a, b in zip(alpha, beta)))
    return out


def realize_from_invariants(
    invariants: Sequence[Polynomial],
    group: Sequence[np.ndarray],
) -> RationalMap:
    """Proper polynomial map invariant exactly under the supplied unitary group.

    The caller provides a generating set of the group-invariant polynomial
    algebra (each vanishing at the origin); a Noether basis is not computed
    here.  Each 1 + h_i is tensored with a power of the identity chosen so
    the summands' monomial supports are pairwise disjoint, then the whole
    block is padded to a proper map and separated by one more tensor power;
    the positive form of that map is factored into its components.
    """
    invariants = list(invariants)
    if not invariants:
        raise MapConstructionError("at least one invariant is required")
    n = invariants[0].nvars
    for h in invariants:
        if h.nvars != n:
            raise MapConstructionError("invariants live in different variable counts")
        if abs(h.constant_term()) > TAU_ZERO:
            raise MapConstructionError("invariants must vanish at the origin")

    # each invariant takes the first power whose support misses the earlier
    # ones; a power a band above the previous one always does
    band = max(h.degree for h in invariants) + 1
    exponents: list[int] = []
    supports: list[set[MultiIndex]] = []
    for h in invariants:
        start = exponents[-1] + 1 if exponents else 1
        for m in range(start, start + band):
            support = _support_of_summand(h, m)
            if not any(support & s for s in supports):
                break
        exponents.append(m)
        supports.append(support)

    one = Polynomial.constant(n, 1.0)
    summands: list[Polynomial] = []
    for h, m in zip(invariants, exponents):
        block = tensor(
            polynomial_map([one + h]), tensor_power(n, m)
        )
        summands.extend(block.numerator)
    pad = pad_to_proper(summands, omit_empty_degrees=True)
    m_final = max(q.degree for q in summands) + 1
    padding = gram_form(n, pad.monos, pad.rows) * norm_power_form(n, m_final)
    positive = gram_form(n, *coefficient_matrix(summands)).scale(pad.epsilon**2) + padding
    result = _map_of_positive_form(positive)
    for gmat in group:
        res = membership(result, unitary_automorphism(np.asarray(gmat, dtype=complex)))
        if not res.member:
            raise RealizationError(
                "constructed map is not invariant under a supplied group element"
            )
    return result
