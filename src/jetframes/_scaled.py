"""Private integer-scaled kernels behind the exact public operations.

A scaled value is ``(nested int lists, positive int denominator)``: the
rational array equals ints/den entrywise.  Operations contract and combine
in plain integer arithmetic (exact at any size) and results are materialized
back to normalized ``Fraction`` tuples once, at the end of each public
operation.  Nothing here is approximate; this layer exists only to avoid
per-entry rational normalization inside inner loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SingularMatrixError

Mat = tuple[list[list[int]], int]
Bil = tuple[list[list[list[int]]], int]


# ---------------------------------------------------------------------------
# scaling and materialization


def smat(entries) -> Mat:
    den = 1
    for row in entries:
        for e in row:
            den = lcm(den, e.denominator)
    return [[e.numerator * (den // e.denominator) for e in row]
            for row in entries], den


def sbil(coeffs) -> Bil:
    den = 1
    for plane in coeffs:
        for row in plane:
            for e in row:
                den = lcm(den, e.denominator)
    return [[[e.numerator * (den // e.denominator) for e in row]
             for row in plane] for plane in coeffs], den


def seye(n: int) -> Mat:
    return [[1 if i == j else 0 for i in range(n)] for j in range(n)], 1


def mat_entries(m: Mat) -> tuple[tuple[Fraction, ...], ...]:
    ints, den = m
    g = den
    for row in ints:
        for e in row:
            g = gcd(g, e)
            if g == 1:
                break
        if g == 1:
            break
    if g > 1:
        den //= g
        ints = [[e // g for e in row] for row in ints]
    return tuple(tuple(Fraction(e, den) for e in row) for row in ints)


def bil_coeffs(f: Bil) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    ints, den = f
    g = den
    for plane in ints:
        for row in plane:
            for e in row:
                g = gcd(g, e)
                if g == 1:
                    break
            if g == 1:
                break
        if g == 1:
            break
    if g > 1:
        den //= g
        ints = [[[e // g for e in row] for row in plane] for plane in ints]
    return tuple(tuple(tuple(Fraction(e, den) for e in row) for row in plane)
                 for plane in ints)


# ---------------------------------------------------------------------------
# matrix kernels


def s_matmul(a: Mat, b: Mat) -> Mat:
    ai, ad = a
    bi, bd = b
    n = len(ai)
    rng = range(n)
    cols = [[bi[k][j] for k in rng] for j in rng]
    return [[sum(row[k] * col[k] for k in rng) for col in cols]
            for row in ai], ad * bd


def _int_det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for col in range(n - 1):
        if m[col][col] == 0:
            for r in range(col + 1, n):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                m[r][c] = (m[r][c] * pivot - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def s_det(a: Mat) -> Fraction:
    """Determinant of ints/den: det(ints) / den^n."""
    ints, den = a
    return Fraction(_int_det(ints), den ** len(ints))


def s_matinv(a: Mat) -> Mat:
    """Inverse via the adjugate: exact, integer-only until the final scale."""
    ints, den = a
    n = len(ints)
    d = _int_det(ints)
    if d == 0:
        raise SingularMatrixError("matrix is not invertible")
    if n == 1:
        adj = [[1]]
    else:
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = [[ints[r][c] for c in range(n) if c != i]
                         for r in range(n) if r != j]
                adj[i][j] = (-1) ** (i + j) * _int_det(minor)
    # inv(ints/den) = den * adj / det
    if d < 0:
        d = -d
        adj = [[-e for e in row] for row in adj]
    return [[den * e for e in row] for row in adj], d


# ---------------------------------------------------------------------------
# bilinear kernels


def s_post(a: Mat, f: Bil) -> Bil:
    ai, ad = a
    fi, fd = f
    n = len(ai)
    rng = range(n)
    out = [[[sum(arow[k] * fi[k][i][j] for k in rng) for j in rng] for i in rng]
           for arow in ai]
    return out, ad * fd


def s_pre(f: Bil, a: Mat, b: Mat) -> Bil:
    fi, fd = f
    ai, ad = a
    bi, bd = b
    n = len(fi)
    rng = range(n)
    out = []
    for k in rng:
        fk = fi[k]
        tmp = [[sum(fk[p][q] * ai[p][i] for p in rng) for q in rng] for i in rng]
        out.append([[sum(trow[q] * bi[q][j] for q in rng) for j in rng]
                    for trow in tmp])
    return out, fd * ad * bd


def s_pre_left(f: Bil, a: Mat) -> Bil:
    """f(a, I): contract only the first argument slot."""
    fi, fd = f
    ai, ad = a
    n = len(fi)
    rng = range(n)
    out = [[[sum(fk[p][j] * ai[p][i] for p in rng) for j in rng] for i in rng]
           for fk in fi]
    return out, fd * ad


def s_pre_right(f: Bil, b: Mat) -> Bil:
    """f(I, b): contract only the second argument slot."""
    fi, fd = f
    bi, bd = b
    n = len(fi)
    rng = range(n)
    out = [[[sum(frow[q] * bi[q][j] for q in rng) for j in rng] for frow in fk]
           for fk in fi]
    return out, fd * bd


def s_add(*terms: Bil) -> Bil:
    den = 1
    for _, d in terms:
        den = lcm(den, d)
    n = len(terms[0][0])
    rng = range(n)
    scaled = [(ints, den // d) for ints, d in terms]
    out = [[[sum(ints[k][i][j] * m for ints, m in scaled) for j in rng]
            for i in rng] for k in rng]
    return out, den


def s_neg(f: Bil) -> Bil:
    ints, den = f
    return [[[-e for e in row] for row in plane] for plane in ints], den


def s_sym(f: Bil) -> Bil:
    ints, den = f
    n = len(ints)
    rng = range(n)
    out = [[[ints[k][i][j] + ints[k][j][i] for j in rng] for i in rng]
           for k in rng]
    return out, 2 * den


def s_skew(f: Bil) -> Bil:
    ints, den = f
    n = len(ints)
    rng = range(n)
    out = [[[ints[k][i][j] - ints[k][j][i] for j in rng] for i in rng]
           for k in rng]
    return out, 2 * den
