"""Analysis pipeline and the numeric sphere-sampling oracle.

The sampler is the independent check against the algebraic properness
certificate: it draws seeded uniform points on the unit sphere and measures
how far |f(z)|^2_l strays from 1.  The analysis bundle aggregates every
structural detector over one map into a single JSON-friendly report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import (
    ProperResult,
    Signature,
    TAU_DIV,
    TAU_SIG,
    form_of,
    hermitian_rank,
    image_rank,
    is_proper,
    signature,
)
from .invariance import (
    GroupReport,
    StrictStabilizer,
    group_report,
    power_chain_check,
    strict_stabilizer,
)
from .maps import RationalMap, stacked_coefficients
from .polynomials import TAU_EQ, exponent_array, monomial_values


# ---------------------------------------------------------------------------
# sphere sampling
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SphereSampleResult:
    max_residual: float
    passed: bool
    count: int
    tolerance: float
    seed: int
    min_abs_denominator: float

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "pass": self.passed,
            "count": self.count,
            "tolerance": self.tolerance,
            "seed": self.seed,
            "min_abs_denominator": self.min_abs_denominator,
        }


#: Component rows the sampler evaluates at once in each block of points, so
#: no array grows with both the components and the points.
_ROW_BLOCK = 2048

#: (monomial, point) values the sampler evaluates at once: the points go in
#: blocks of _POINT_BLOCK // monomials, a 256 KiB complex array that stays in
#: cache on a large map, while a catalog fixture (at most 8 monomials) takes
#: its 1000 points in one block.
_POINT_BLOCK = 1 << 14


def sphere_sample_check(
    f: RationalMap,
    count: int = 1000,
    tol: float = 1e-9,
    seed: int = 0,
) -> SphereSampleResult:
    """Sample |f|^2_l - 1 on the unit sphere (normalized complex Gaussians).

    The points are evaluated in blocks of ``_POINT_BLOCK // monomials``, and
    each block's |f|^2_l is summed over ``_ROW_BLOCK`` component rows at a
    time; every point's value is the same however the points are blocked.
    """
    if count < 1:
        raise ValueError("at least one sample is required")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, f.n)) + 1j * rng.standard_normal((count, f.n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    monos, A = stacked_coefficients(f)
    exps = exponent_array(monos, f.n)
    A = A.astype(complex)  # the product with the complex values, cast once
    signs = np.array([1.0] * f.m + [-1.0] * f.l)
    num_norm, qabs = np.zeros(count), np.empty(count)
    step = max(1, _POINT_BLOCK // len(monos))
    for lo in range(0, count, step):
        block = slice(lo, lo + step)
        vals = monomial_values(exps, z[block]).T  # the monomials x points array the kernel built
        for start in range(0, f.target_dim, _ROW_BLOCK):
            rows = slice(start, min(start + _ROW_BLOCK, f.target_dim))
            num_norm[block] += (signs[rows, None] * (np.abs(A[rows] @ vals) ** 2)).sum(axis=0)
        qabs[block] = np.abs(A[-1] @ vals)
    min_q = float(np.min(qabs))
    if min_q <= 1e-12:
        return SphereSampleResult(math.inf, False, count, tol, seed, min_q)
    residual = float(np.max(np.abs(num_norm / (qabs**2) - 1.0)))
    return SphereSampleResult(residual, residual <= tol, count, tol, seed, min_q)


# ---------------------------------------------------------------------------
# analysis bundle
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AnalysisBundle:
    map: RationalMap
    proper: ProperResult
    signature: Signature
    hermitian_rank: int
    image_rank: int | None
    report: GroupReport
    strict: StrictStabilizer
    power_chain: list[int] | None
    consistent: bool
    tolerances: dict
    notes: tuple[str, ...]

    @property
    def map_data(self) -> dict:
        """The analyzed map as JSON data, written on each read."""
        return self.map.to_dict()

    def to_dict(self) -> dict:
        return {
            "map": self.map_data,
            "proper": {
                "proper": self.proper.proper,
                "residual": self.proper.residual,
                "tolerance": self.proper.tolerance,
                "quotient": self.proper.quotient.to_dict(),
            },
            "signature": self.signature.to_dict(),
            "hermitian_rank": self.hermitian_rank,
            "image_rank": self.image_rank,
            "group_report": self.report.to_dict(),
            "strict_stabilizer": self.strict.to_dict(),
            "power_chain": self.power_chain,
            "consistent": self.consistent,
            "tolerances": self.tolerances,
            "notes": list(self.notes),
        }


def analyze_map(
    f: RationalMap,
    tol_eq: float = TAU_EQ,
    tol_div: float = TAU_DIV,
    tol_sig: float = TAU_SIG,
) -> AnalysisBundle:
    """Run the full detection pipeline over one map."""
    notes: list[str] = []
    proper = is_proper(f, tol_div)
    sig = signature(form_of(f), tol_sig)
    if sig.margin < 10 * tol_sig or sig.dropped > tol_sig / 10:
        notes.append(
            f"signature decided within 10x of tol_sig = {tol_sig:g}: smallest kept "
            f"eigenvalue {sig.margin:.3g}, largest dropped {sig.dropped:.3g} (relative)"
        )
    h_rank = sig.rank
    i_rank: int | None = None
    consistent = True
    if f.l == 0:
        i_rank = image_rank(f, tol_sig, check=False)
        if proper.proper and h_rank != i_rank + 1:
            consistent = False
            notes.append(
                f"rank consistency violated: hermitian {h_rank} vs image {i_rank}"
            )
    report = group_report(f, tol_eq)
    strict = strict_stabilizer(f, tol_eq)
    if strict.permutations is None:
        notes.append("strict permutation enumeration skipped: dimension above cap")
    chain: list[int] | None = None
    if f.is_polynomial(tol_eq):
        chain = sorted(power_chain_check(f, tol_eq))
    return AnalysisBundle(
        f,
        proper,
        sig,
        h_rank,
        i_rank,
        report,
        strict,
        chain,
        consistent,
        {"tol_eq": tol_eq, "tol_div": tol_div, "tol_sig": tol_sig},
        tuple(notes),
    )
