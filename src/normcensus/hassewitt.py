"""Hasse-Witt invariants of rational quadratic forms and the c_n(a) constant
for the variety of symmetric matrices with fixed determinant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .arith import factorize, hilbert_symbol

Rational = int | Fraction


@dataclass(frozen=True)
class QuadraticSpace:
    n: int
    diagonal: tuple[Fraction, ...]
    source: tuple[tuple[Fraction, ...], ...]


def _as_matrix(M: Sequence[Sequence[Rational]]) -> list[list[Fraction]]:
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("matrix must be square and nonempty")
    for i in range(n):
        for j in range(i):
            if A[i][j] != A[j][i]:
                raise ValueError("matrix must be symmetric")
    return A


def _swap(A: list[list[Fraction]], i: int, j: int) -> None:
    A[i], A[j] = A[j], A[i]
    for row in A:
        row[i], row[j] = row[j], row[i]


def _add_into(A: list[list[Fraction]], i: int, j: int, factor: Fraction) -> None:
    # congruence step: row_i += factor * row_j, then the same on columns
    n = len(A)
    for k in range(n):
        A[i][k] += factor * A[j][k]
    for k in range(n):
        A[k][i] += factor * A[k][j]


def diagonalize(M: Sequence[Sequence[Rational]], order: Sequence[int] | None = None) -> QuadraticSpace:
    """Congruence-diagonalize a nonsingular symmetric rational matrix.

    `order` optionally permutes the basis first, which changes the pivot
    order; the resulting diagonal differs but the Hasse invariant must not.
    """
    src = _as_matrix(M)
    A = [row[:] for row in src]
    n = len(A)
    if order is not None:
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        A = [[A[order[i]][order[j]] for j in range(n)] for i in range(n)]
    for i in range(n):
        if A[i][i] == 0:
            pivot = next((j for j in range(i + 1, n) if A[j][j] != 0), None)
            if pivot is not None:
                _swap(A, i, pivot)
            else:
                off = next((j for j in range(i + 1, n) if A[i][j] != 0), None)
                if off is None:
                    raise ValueError("matrix is singular")
                _add_into(A, i, off, Fraction(1))
        for j in range(i + 1, n):
            if A[i][j] != 0:
                _add_into(A, j, i, -A[i][j] / A[i][i])
    diag = tuple(A[i][i] for i in range(n))
    if any(x == 0 for x in diag):
        raise ValueError("matrix is singular")
    return QuadraticSpace(n=n, diagonal=diag, source=tuple(tuple(row) for row in src))


def hasse_invariant(space: QuadraticSpace, place: int | float) -> int:
    """Product of Hilbert symbols (d_i, d_j) over i < j at the given place."""
    h = 1
    d = space.diagonal
    for i in range(space.n):
        for j in range(i + 1, space.n):
            h *= hilbert_symbol(d[i], d[j], place)
    return h


def arch_h_limit(n: int, sign_a: int) -> int:
    """Limiting value of the Hasse-Witt function on large real symmetric
    matrices of dimension n with determinant of the given sign."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if sign_a not in (1, -1):
        raise ValueError("sign_a must be +1 or -1")
    if sign_a > 0:
        if n % 2 == 1:
            return 1
        return 1 if n % 4 == 0 else 0
    if n % 4 == 3:
        return 1
    if n % 4 == 1:
        return -1
    raise ValueError(f"limit for a < 0, n = {n} even is not defined")


@dataclass(frozen=True)
class CnaReport:
    n: int
    a: int
    ratios: dict[int, Fraction]
    arch_limit: int
    c_value: Fraction


_BUILTIN_RATIOS = {(3, 1): {2: Fraction(-1, 2)}}


def c_n_a(n: int, a: int, ratios: Mapping[int, Rational] | None = None) -> CnaReport:
    """Density constant c_n(a) = 1 + (prod over p | 2a of rho_p) * arch limit.

    The 2-adic ratios rho_p must be supplied for every p | 2a unless the
    archimedean limit vanishes; (n, a) = (3, 1) carries a built-in rho_2 =
    (1 - 3)/(1 + 3) = -1/2 from the known local-density ratio 3.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    limit = arch_h_limit(n, 1 if a > 0 else -1)
    got = {p: Fraction(v) for p, v in (ratios or {}).items()}
    if limit == 0:
        return CnaReport(n=n, a=a, ratios=got, arch_limit=0, c_value=Fraction(1))
    for p, v in _BUILTIN_RATIOS.get((n, a), {}).items():
        got.setdefault(p, v)
    needed = sorted({2} | {p for p, _ in factorize(abs(a)).factors})
    missing = [p for p in needed if p not in got]
    if missing:
        raise ValueError(f"no density ratio supplied for p = {missing}")
    prod = Fraction(1)
    for p in needed:
        prod *= got[p]
    return CnaReport(n=n, a=a, ratios=got, arch_limit=limit, c_value=1 + prod * limit)


def isometry_count_mod8(L: Sequence[Sequence[int]]) -> int:
    """#{X in M_3(Z/8) : X^T L X = L (mod 8)} for a small integral Gram matrix.

    The columns of X are the vectors v_1, v_2, v_3 of (Z/8)^3 with
    v_i^T L v_j = L_ij; the count runs over v_1, then the v_2 and v_3 that
    pair correctly with it, then the pairs (v_2, v_3).
    """
    A = [list(row) for row in L]
    if len(A) != 3 or any(len(row) != 3 for row in A) or any(
        A[i][j] != A[j][i] for i in range(3) for j in range(i)
    ):
        raise ValueError("L must be a symmetric 3x3 integer matrix")
    if max(abs(x) for row in A for x in row) > 8:
        raise ValueError("entries must be small (|entry| <= 8)")
    t = [[x % 8 for x in row] for row in A]
    # each vector with L v, so that u^T L v is one dot product
    pairs = [
        (v, tuple(sum(a * x for a, x in zip(row, v)) for row in A))
        for v in itertools.product(range(8), repeat=3)
    ]

    def dot(u: tuple[int, ...], w: tuple[int, ...]) -> int:
        return (u[0] * w[0] + u[1] * w[1] + u[2] * w[2]) % 8

    norm = [[(v, Lv) for v, Lv in pairs if dot(v, Lv) == t[i][i]] for i in range(3)]
    count = 0
    for _, Lv1 in norm[0]:
        col2 = [Lv for v, Lv in norm[1] if dot(v, Lv1) == t[0][1]]
        col3 = [v for v, _ in norm[2] if dot(v, Lv1) == t[0][2]]
        for Lv2 in col2:
            count += sum(1 for v in col3 if dot(v, Lv2) == t[1][2])
    return count
