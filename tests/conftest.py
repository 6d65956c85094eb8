import numpy as np
import pytest

from ballmaps import gram_form
from ballmaps.maps import coefficient_matrix

#: Generators (0-based images) of the six subgroups of S_3.
S3_GENERATORS = {
    "trivial": [],
    "transposition-12": [(1, 0, 2)],
    "transposition-23": [(0, 2, 1)],
    "transposition-13": [(2, 1, 0)],
    "alternating": [(1, 2, 0)],
    "full": [(1, 2, 0), (1, 0, 2)],
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
