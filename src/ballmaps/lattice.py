"""Exact integer-lattice computations for torus stabilizers.

The diagonal-unitary stabilizer of a Hermitian form is cut out by congruences
``row . theta = 0 (mod 2*pi)`` over an integer matrix of exponent vectors.
Everything here runs in exact integer arithmetic (Python ints), which is the
one place the package insists on exactness: the lattice rows are small
integers and the resulting group structure must not depend on rounding.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]], with_left: bool = False
) -> tuple[IntMatrix, IntMatrix | None, IntMatrix]:
    """Return (S, U, V) with S = U * matrix * V in Smith normal form.

    S is diagonal with non-negative entries d_1 | d_2 | ... and V is always
    computed (n x n unimodular).  U (k x k) is only tracked when
    ``with_left`` is set, since the row count can be large and the torus
    computation below never needs it.
    """
    A: IntMatrix = [[int(x) for x in row] for row in matrix]
    k = len(A)
    n = len(A[0]) if k else 0
    U: IntMatrix | None = _identity(k) if with_left else None
    V: IntMatrix = _identity(n)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row_dst += factor * row_src
        As, Ad = A[src], A[dst]
        for j in range(n):
            Ad[j] += factor * As[j]
        if U is not None:
            Us, Ud = U[src], U[dst]
            for j in range(k):
                Ud[j] += factor * Us[j]

    def add_col(src, dst, factor):
        for row in A:
            row[dst] += factor * row[src]
        for row in V:
            row[dst] += factor * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        if U is not None:
            U[i] = [-x for x in U[i]]

    t = 0
    while t < min(k, n):
        # locate a nonzero pivot of minimal magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, k):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear column t, then row t; restart if a remainder appears
            dirty = False
            for i in range(t + 1, k):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break

        # enforce the divisibility chain: pivot must divide the trailing block
        d = A[t][t]
        offender = None
        for i in range(t + 1, k):
            for j in range(t + 1, n):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d < 0:
            negate_row(t)
        t += 1

    return A, U, V


def invariant_factors(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero diagonal entries d_1 | d_2 | ... of the Smith form."""
    S, _, _ = smith_normal_form(matrix)
    out = []
    for i in range(min(len(S), len(S[0]) if S else 0)):
        if S[i][i]:
            out.append(S[i][i])
    return out


def torus_annihilator(
    rows: Iterable[Sequence[int]], nvars: int
) -> tuple[int, list[int], list[list[float]], list[list[int]]]:
    """Structure of {theta : row . theta = 0 mod 2*pi for every row}.

    Returns (torus_dim, finite_orders, finite_generators, torus_directions):
    the connected part is a torus of dimension ``torus_dim`` spanned by the
    integer ``torus_directions``, and the component group is the product of
    cyclic groups of the listed orders with the given theta generators.
    Orders equal to 1 are dropped.
    """
    unique_rows = sorted({tuple(int(x) for x in r) for r in rows if any(r)})
    if not unique_rows:
        return nvars, [], [], _identity(nvars)
    S, _, V = smith_normal_form([list(r) for r in unique_rows])
    rank = sum(1 for i in range(min(len(S), nvars)) if S[i][i])
    torus_dim = nvars - rank
    finite_orders: list[int] = []
    finite_generators: list[list[float]] = []
    for i in range(rank):
        d = S[i][i]
        if d > 1:
            finite_orders.append(d)
            finite_generators.append(
                [2.0 * math.pi * V[j][i] / d for j in range(nvars)]
            )
    torus_directions = [[V[j][i] for j in range(nvars)] for i in range(rank, nvars)]
    return torus_dim, finite_orders, finite_generators, torus_directions


def annihilates(rows: Iterable[Sequence[int]], theta: Sequence[float], tol: float = 1e-9) -> bool:
    """Check row . theta = 0 (mod 2*pi) for every lattice row."""
    for row in rows:
        frac = sum(r * t for r, t in zip(row, theta)) / (2.0 * math.pi)
        if abs(frac - round(frac)) > tol:
            return False
    return True
