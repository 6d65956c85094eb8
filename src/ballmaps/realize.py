"""Constructions of proper maps with prescribed finite invariance groups.

The workhorse is padding: given any polynomial map p, choose a positive
combination of norm powers R = sum lambda_j^2 |z|^(2 m_j) and take epsilon
at half the largest value for which R - epsilon^2 |p|^2 stays positive
semidefinite, read in closed form off one eigenvalue because R is diagonal;
the remainder is |q|^2 for components q with epsilon p (+) q proper.
Stacked tensor powers then separate degrees so that the only surviving
symmetries are the requested ones; a subgroup G of S_n is read off the
G-average of the monomial z^mu with mu = (0, 1, ..., n - 1).

The realizations are built form first.  Properness, the invariance group
and both ranks depend only on the form |f|^2 - 1, and two polynomial maps
with the same |f|^2 differ by a target isometry, so each construction
assembles its positive form |f|^2 from coefficient rows: a juxtaposition is
a weighted sum, a padding enters as its remainder form, and a tensor product
with z^(x)k is a product with |z|^(2k).  :func:`factor_form` then splits that
form once into rank-many sparse components.  Only :func:`pad_to_proper` and
:func:`symmetric_group_map` factor a padding: the latter keeps its
components, and with them its strict stabilizer, as they are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .hermitian import (
    HermitianForm,
    TAU_SIG,
    _jacobi_scale,
    _kept,
    _norm_power_sum,
    _support_blocks,
    form_of,
    gram_form,
    norm_power_form,
)
from .invariance import MAX_PERMUTATION_DIM, CapabilityError, membership, _form_search
from .maps import (
    MapConstructionError,
    RationalMap,
    _map_of_terms,
    catalog,
    coefficient_matrix,
    identity_map,
    juxtapose_theta,
    numerator_rows,
    oplus,
    polynomial_map_of_rows,
    polynomials_of_rows,
    pruned_rows,
    tensor,
    tensor_power,
    unitary_automorphism,
)
from .polynomials import (
    MultiIndex,
    Polynomial,
    TAU_EQ,
    TAU_ZERO,
    degree_monomials,
    grlex_monomials,
    grlex_union,
)


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
    blocks, factored separately with the Jacobi scaling and the cut of
    :func:`ballmaps.hermitian.signature` (no row has a larger entry outside
    its block, and the cut is against the largest |lambda| of all blocks),
    so the component counts are the signature's.  An eigenpair (lambda, v)
    of a scaled block gives the component d o v sqrt|lambda|, split by the
    sign of lambda; a block's components are independent as its eigenvectors are.
    """
    support = np.abs(h.mat) > TAU_ZERO
    labels, d = _support_blocks(support), _jacobi_scale(h.mat)
    blocks = [np.flatnonzero(labels == label) for label in np.unique(labels[support.any(axis=1)])]
    # complex on purpose: a real eigh picks other bases inside degenerate
    # eigenspaces, which gives unitarily equivalent but different components
    spectra = [
        np.linalg.eigh(h.mat[np.ix_(i, i)].astype(complex) / np.outer(d[i], d[i])) for i in blocks
    ]
    scale = max((np.max(np.abs(eigvals)) for eigvals, _ in spectra), default=0.0)
    pos, neg = [np.zeros((0, h.size), dtype=complex)], [np.zeros((0, h.size), dtype=complex)]
    for idx, (eigvals, eigvecs) in zip(blocks, spectra):
        keep = _kept(eigvals, scale, tol_sig)
        comps = np.zeros((np.count_nonzero(keep), h.size), dtype=complex)
        comps[:, idx] = (d[idx, None] * eigvecs[:, keep] * np.sqrt(np.abs(eigvals[keep]))).T
        pos.append(comps[eigvals[keep] > 0])
        neg.append(comps[eigvals[keep] < 0])
    return FactorizationResult(h.basis, np.vstack(pos), np.vstack(neg))


def _positive_factors(
    h: HermitianForm, refusal: Exception | None = None
) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """Read-only rows, over the monomials they use, of components q with
    sum |q|^2 = h; refused with ``refusal`` (else :class:`RealizationError`)
    exactly when the factorization of h has a negative part."""
    factored = factor_form(h)
    if len(factored.negatives):
        raise refusal or RealizationError("the form of the construction has a negative part")
    monos, rows = pruned_rows(factored.monos, factored.positives)
    rows.setflags(write=False)
    return tuple(monos), rows


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


def _padding(
    nvars: int,
    monos: Sequence[MultiIndex],
    rows: np.ndarray,
    epsilon: float | None = None,
    omit_empty_degrees: bool = False,
) -> tuple[float, tuple[float, ...], tuple[int, ...], HermitianForm, HermitianForm]:
    """The padding of the polynomials with coefficient rows ``rows`` over the
    monomials ``monos`` they use: epsilon, the weights lambda_j and powers
    m_j of the target R, eps^2 |p|^2, and the remainder R - eps^2 |p|^2.

    When epsilon is not supplied it is half the supremum eps_sup of the
    feasible values, which has a closed form: R is diagonal and positive on
    the support of b = |p|^2, so with D the diagonal of R there and B the
    matrix of b, R - e^2 b is positive semidefinite exactly when
    e^2 <= 1 / lambda_max(D^(-1/2) B D^(-1/2)).  At eps_sup / 2 the scaled
    remainder D^(-1/2) (R - eps^2 b) D^(-1/2) has eigenvalues in [3/4, 1].
    """
    degrees = {sum(alpha) for alpha in monos}
    powers = tuple(range(max(degrees, default=0) + 1))
    if omit_empty_degrees:
        powers = tuple(j for j in powers if j in degrees) or (0,)
    weights = (1.0 / math.sqrt(len(powers)),) * len(powers)

    target = _norm_power_sum(nvars, weights, powers)
    b = gram_form(nvars, monos, rows[rows.any(axis=1)])

    eps = 1.0 if epsilon is None else float(epsilon)
    if not math.isfinite(eps):
        raise MapConstructionError(f"supplied epsilon {eps} is not finite")
    if epsilon is None and b.size:
        _, (_, at) = grlex_union(target.basis, b.basis)
        s = 1.0 / np.sqrt(target.mat.diagonal()[at])
        # complex on purpose: a real eigvalsh rounds eps differently, which
        # moves every padded construction
        eps = 0.5 / math.sqrt(np.linalg.eigvalsh(s[:, None] * b.mat.astype(complex) * s)[-1])
    scaled = b.scale(eps * eps)
    return eps, weights, powers, scaled, target - scaled


def pad_to_proper(
    p: Sequence[Polynomial],
    epsilon: float | None = None,
    omit_empty_degrees: bool = False,
) -> PadResult:
    """Pad a polynomial map, of at least one component, to a proper map.

    The target R has equal weights on the powers 0..deg(p), or with
    ``omit_empty_degrees`` on the degrees of p's monomials only; epsilon is
    that of :func:`_padding` unless supplied; a supplied one must be finite,
    and is refused when R - epsilon^2 |p|^2 factors with a negative part.
    """
    p = list(p)
    if not p:
        raise MapConstructionError("padding requires at least one component")
    nvars = p[0].nvars
    if any(q.nvars != nvars for q in p):
        raise MapConstructionError("padding requires a common variable count")
    monos, rows = coefficient_matrix(p)
    eps, weights, powers, _, remainder = _padding(nvars, monos, rows, epsilon, omit_empty_degrees)
    too_large = MapConstructionError(f"epsilon {eps} is too large: the remainder is not PSD")
    return PadResult(eps, *_positive_factors(remainder, too_large), weights, powers)


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
    # descending lex order lists z_j z_k by (j, k), and z_1^2 first
    quadratic = degree_monomials(n, 2)[::-1]
    pairs = [alpha for alpha in quadratic if max(alpha) == 1]
    squares = [alpha for alpha in quadratic if max(alpha) == 2]
    z_map = identity_map(n)
    pair_map = _map_of_terms(n, [{alpha: math.sqrt(2.0)} for alpha in pairs])
    g = oplus(tensor(pair_map, z_map), _map_of_terms(n, [{alpha: 1.0} for alpha in squares]))

    affine = grlex_monomials(n, 1)
    eps, _, _, _, remainder = _padding(n, affine, np.ones((1, n + 1)))
    h = oplus(
        polynomial_map_of_rows(n, affine, np.full((1, n + 1), eps)),
        tensor(polynomial_map_of_rows(n, *_positive_factors(remainder)), z_map),
    )
    return juxtapose_theta(g, h, math.pi / 4.0)


def symmetric_group_map_v2(n: int) -> RationalMap:
    """Higher-degree alternative realization of S_n from prod (1 + z_j).

    The positive form eps^2 |prod|^2 |z|^2 + (R - eps^2 |prod|^2) |z|^(2(n + 2)),
    R the padding target of prod, is factored into the components of the map.
    """
    if n < 1:
        raise MapConstructionError("n must be positive")
    # prod (1 + z_j) is the sum of the 2^n monomials with exponents 0 or 1
    prod = grlex_union([tuple((k >> j) & 1 for j in range(n)) for k in range(2**n)])[0]
    _, _, _, scaled, remainder = _padding(n, prod, np.ones((1, len(prod))))
    positive = scaled * norm_power_form(n, 1) + remainder * norm_power_form(n, n + 2)
    return polynomial_map_of_rows(n, *_positive_factors(positive))


def realize_subgroup(generators: Iterable[Sequence[int]], n: int) -> RationalMap:
    """Proper polynomial map whose permutation symmetries are exactly the group.

    The group is closed from the generators; the full symmetric group
    delegates to :func:`symmetric_group_map`.  Otherwise the group-averaged
    monomial tau = 1 + sum_{g in G} z^(g mu), with mu = (0, 1, ..., n - 1),
    is padded and juxtaposed against the symmetric-group map behind
    degree-separating tensor powers, so unitary symmetries must preserve
    both blocks.  The entries of mu are distinct, so distinct elements of G
    give distinct monomials and a permutation keeps tau exactly when it lies
    in G; the smallest such mu keeps the degree low.  The positive form
    1/2 |f_sym|^2 + 1/2 (eps^2 |tau|^2 + (R - eps^2 |tau|^2) |z|^(2 k3))
    |z|^(2 k4), R the padding target of tau, is factored into the map.
    """
    if n > MAX_PERMUTATION_DIM:
        raise CapabilityError(f"subgroup realization is capped at n <= {MAX_PERMUTATION_DIM}")
    group = close_permutation_group(generators, n)
    if len(group) == math.factorial(n):
        return symmetric_group_map(n)

    # z^(g mu) has the exponent g^-1, as mu_j = j, and G holds the inverses
    tau = grlex_union([(0,) * n] + group)[0]
    _, _, _, scaled, remainder = _padding(n, tau, np.ones((1, len(tau))), omit_empty_degrees=True)
    k3 = n * (n - 1) // 2 + 1
    f_sym = symmetric_group_map(n)
    k4 = f_sym.degree + 1
    padded = scaled + remainder * norm_power_form(n, k3)
    positive = gram_form(n, *numerator_rows(f_sym)) + padded * norm_power_form(n, k4)
    result = polynomial_map_of_rows(n, *_positive_factors(positive.scale(0.5)))
    keep = _form_search(form_of(result), TAU_EQ).keeps(np.array(group))
    if not keep.all():
        lost = group[np.flatnonzero(~keep)[0]]
        raise RealizationError(f"constructed map lost the symmetry {lost}")
    return result


# ---------------------------------------------------------------------------
# realization from a supplied invariant basis
# ---------------------------------------------------------------------------
def realize_from_invariants(
    invariants: Sequence[Polynomial],
    group: Sequence[np.ndarray],
) -> RationalMap:
    """Proper polynomial map invariant exactly under the supplied unitary group.

    The caller provides a generating set of the group-invariant polynomial
    algebra (each vanishing at the origin); a Noether basis is not computed
    here.  Each 1 + h_i is tensored with a power of the identity chosen so
    the summands' monomial supports are pairwise disjoint.  The positive form
    eps^2 |s|^2 + (R - eps^2 |s|^2) |z|^(2 m) of the padding of the summands
    s, R its target, is factored into the components of the map.
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

    # the rows of 1 + h_i: the invariants vanish at the origin, so no
    # monomial of theirs is the constant one
    monos, rows = coefficient_matrix(invariants)
    rows = np.hstack([np.ones((len(rows), 1)), rows])
    # each block (1 + h_i) z^(x)m takes the first power m above the previous
    # one whose support misses the earlier blocks'; a band above always does
    band = max(h.degree for h in invariants) + 1
    blocks, supports, m = [], set(), 0
    for row in rows:
        one_plus_h = polynomial_map_of_rows(n, [(0,) * n] + monos, row[None])
        for m in range(m + 1, m + 1 + band):
            block = tensor(one_plus_h, tensor_power(n, m))
            support = set(numerator_rows(block)[0])
            if not support & supports:
                break
        blocks.append(block)
        supports |= support
    monos, summands = numerator_rows(reduce(oplus, blocks))
    _, _, _, scaled, remainder = _padding(n, monos, summands, omit_empty_degrees=True)
    positive = scaled + remainder * norm_power_form(n, sum(monos[-1]) + 1)
    result = polynomial_map_of_rows(n, *_positive_factors(positive))
    for gmat in group:
        res = membership(result, unitary_automorphism(np.asarray(gmat, dtype=complex)))
        if not res.member:
            raise RealizationError(
                "constructed map is not invariant under a supplied group element"
            )
    return result
