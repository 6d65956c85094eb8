import json
import os
import subprocess
import sys
from typing import Sequence

import numpy as np
import pytest

import ballmaps
from ballmaps import gram_form
from ballmaps.maps import coefficient_matrix
from ballmaps.polynomials import TAU_EQ, MultiIndex, Polynomial, degree_monomials


# ---------------------------------------------------------------------------
# the dict-arithmetic oracle
# ---------------------------------------------------------------------------
class Poly(Polynomial):
    """A :class:`Polynomial` with dict arithmetic: the reference the array
    constructions are checked against.  The right operand may be any
    Polynomial and the result is a Poly (a library view on the left goes
    through :meth:`of`); the coefficients of a product are summed in the
    order (left term, right term) of the operands' dicts."""

    __slots__ = ()

    @classmethod
    def of(cls, p: Polynomial) -> "Poly":
        return cls(p.nvars, p.terms)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: complex) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} vars")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1.0})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff: complex = 1.0) -> "Poly":
        exp = tuple(int(e) for e in exponent)
        return cls(len(exp), {exp: coeff})

    def _check_compatible(self, other: Polynomial) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, 0.0 + 0.0j) + coeff
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-Poly.of(other))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            prod: dict[MultiIndex, complex] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    prod[key] = prod.get(key, 0.0 + 0.0j) + c1 * c2
            return Poly(self.nvars, prod)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, factor: complex) -> "Poly":
        factor = complex(factor)
        return Poly(self.nvars, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers require a non-negative integer")
        result = Poly.constant(self.nvars, 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def permute_variables(self, perm: Sequence[int]) -> "Poly":
        """p(sigma(z)): the monomial z^alpha maps to the monomial whose
        exponent of z_{perm[i]} is alpha_i, which is composition with the
        permutation unitary sending e_i to e_{perm[i]}."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.nvars - 1}")
        terms: dict[MultiIndex, complex] = {}
        for exp, coeff in self.terms.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[perm[i]] = e
            terms[tuple(new)] = terms.get(tuple(new), 0.0 + 0.0j) + coeff
        return Poly(self.nvars, terms)


def poly_parts(f) -> tuple[list[Poly], Poly]:
    """The numerator components and the denominator of a map as :class:`Poly`."""
    return [Poly.of(p) for p in f.numerator], Poly.of(f.denominator)


def max_coeff_diff(a: Polynomial, b: Polynomial) -> float:
    """Largest coefficient magnitude of a - b (bases need not match)."""
    if a.nvars != b.nvars:
        raise ValueError("variable-count mismatch")
    keys = set(a.terms) | set(b.terms)
    return max((abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys), default=0.0)


def polys_close(a: Polynomial, b: Polynomial, tol: float = TAU_EQ) -> bool:
    """Coefficientwise comparison with tolerance scaled by the largest coeff."""
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return max_coeff_diff(a, b) <= tol * scale

#: Generators (0-based images) of the six subgroups of S_3.
S3_GENERATORS = {
    "trivial": [],
    "transposition-12": [(1, 0, 2)],
    "transposition-23": [(0, 2, 1)],
    "transposition-13": [(2, 1, 0)],
    "alternating": [(1, 2, 0)],
    "full": [(1, 2, 0), (1, 0, 2)],
}


_CAP_3GB = """
import resource, sys
cap = 3 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
"""

_REALIZE = """
from ballmaps.cli import main
sys.exit(main(["realize", "subgroup", "--group", sys.argv[1], "-o", sys.argv[2]]))
"""


def run_capped(code, *args, timeout):
    """Run the Python ``code`` with the command-line ``args`` in a fresh
    process whose address space is capped at 3 GiB, with one BLAS thread;
    returns the finished process."""
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(ballmaps.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", _CAP_3GB + code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def realize_capped(tmp_path, n, generators, timeout):
    """Run ``ballmaps realize subgroup`` on the permutation group of the
    generators under :func:`run_capped`; returns the finished process and
    the path of its output file."""
    spec, out = tmp_path / "group.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"n": n, "generators": generators}))
    return run_capped(_REALIZE, spec, out, timeout=timeout), out


def support_of_summand(h, m):
    """The monomials of (1 + h) times those of degree m."""
    base = set(h.terms) | {(0,) * h.nvars}
    return {
        tuple(a + b for a, b in zip(alpha, beta))
        for beta in degree_monomials(h.nvars, m)
        for alpha in base
    }


def gram_of(polys, signs=None):
    """The Gram form of a list of polynomials, through their coefficient matrix."""
    return gram_form(polys[0].nvars, *coefficient_matrix(polys), signs)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_center(rng: np.random.Generator, n: int, radius: float = 0.6) -> np.ndarray:
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a /= np.linalg.norm(a)
    return a * rng.uniform(0.1, radius)


def random_diagonal_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
