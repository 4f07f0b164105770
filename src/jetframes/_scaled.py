"""Private integer-scaled kernels behind the exact public operations.

A scaled value is ``(nested ints, positive int denominator)``: the rational
array equals ints/den entrywise.  ``SquareMatrix`` and ``Bilinear`` store
their values in this form, canonical (gcd(all ints, den) = 1), so the
public operations hand their stored ints to these kernels and build the
result from the kernel output with ``reduce_mat``/``reduce_bil``, one gcd
pass; no ``Fraction`` is made on the way.  Kernels read nested tuples or
lists and return nested lists.  Nothing here is approximate.

Conversions between ``Fraction`` arrays and the scaled form happen only at
the edges: ``smat``/``sbil`` when a value is built from rationals (the public
constructors, hence the parsers), ``mat_entries``/``bil_coeffs`` when the
``entries``/``coeffs`` views are read (documents, the plain-fraction
cross-checks).

Determinant and inverse share one fraction-free (Bareiss) elimination: the
determinant by forward elimination, the inverse by Gauss-Jordan on
``[ints | I]``, both O(n^3) multiplies on integers whose size stays bounded
by the minors of the input.  Contractions transpose an operand once and take
each inner product as ``sum(map(mul, row, col))``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .errors import SingularMatrixError

# (ints, den); the ints are nested lists or nested tuples
Mat = tuple[Sequence[Sequence[int]], int]
Bil = tuple[Sequence[Sequence[Sequence[int]]], int]


# ---------------------------------------------------------------------------
# scaling and materialization


def smat(entries) -> Mat:
    den = lcm(*{e.denominator for row in entries for e in row})
    return [[e.numerator * (den // e.denominator) for e in row]
            for row in entries], den


def sbil(coeffs) -> Bil:
    den = lcm(*{e.denominator for plane in coeffs for row in plane for e in row})
    return [[[e.numerator * (den // e.denominator) for e in row]
             for row in plane] for plane in coeffs], den


def _common(den: int, rows) -> int:
    """gcd of ``den`` and every int in ``rows``, stopping once it is 1."""
    for row in rows:
        den = gcd(den, *row)
        if den == 1:
            break
    return den


def reduce_mat(m: Mat) -> Mat:
    """Canonical form of a scaled matrix: nested tuples, gcd(ints, den) = 1."""
    ints, den = m
    g = _common(den, ints)
    if g == 1:
        return tuple(map(tuple, ints)), den
    return tuple(tuple(e // g for e in row) for row in ints), den // g


def reduce_bil(f: Bil) -> Bil:
    """Canonical form of a scaled bilinear map, as ``reduce_mat``."""
    ints, den = f
    g = _common(den, (row for plane in ints for row in plane))
    if g == 1:
        return tuple(tuple(map(tuple, plane)) for plane in ints), den
    return (tuple(tuple(tuple(e // g for e in row) for row in plane)
                  for plane in ints), den // g)


def mat_entries(m: Mat) -> tuple[tuple[Fraction, ...], ...]:
    ints, den = reduce_mat(m)
    return tuple(tuple(Fraction(e, den) for e in row) for row in ints)


def bil_coeffs(f: Bil) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    ints, den = reduce_bil(f)
    return tuple(tuple(tuple(Fraction(e, den) for e in row) for row in plane)
                 for plane in ints)


# ---------------------------------------------------------------------------
# matrix kernels


def s_matmul(a: Mat, b: Mat) -> Mat:
    ai, ad = a
    bi, bd = b
    cols = list(zip(*bi))
    return [[sum(map(mul, row, col)) for col in cols] for row in ai], ad * bd


def _eliminate(m: list[list[int]], jordan: bool) -> int:
    """Fraction-free (Bareiss) elimination of the leading n columns of ``m``.

    ``m`` has n rows and is changed in place.  Forward elimination clears
    the entries below each pivot; with ``jordan`` the entries above it are
    cleared too, so the leading n x n block ends as ``p*I`` with ``p`` the
    last pivot, ``m[n-1][n-1]``, and every row operation was applied to the
    trailing columns as well.  Each update divides exactly by the previous
    pivot (Sylvester's identity), so all entries stay integers.  Entries left
    of the pivot column are not updated and must not be read afterwards.

    Returns the determinant of the leading block: 0 when it is singular,
    otherwise the last pivot times the sign of the row swaps.
    """
    n = len(m)
    width = len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = m[k]
        pivot = pivot_row[k]
        cols = range(k + 1, width)
        for r in range(n) if jordan else range(k + 1, n):
            if r == k:
                continue
            row = m[r]
            c = row[k]
            for j in cols:
                row[j] = (row[j] * pivot - c * pivot_row[j]) // prev
        prev = pivot
    return sign * prev


def s_det(a: Mat) -> Fraction:
    """Determinant of ints/den: det(ints) / den^n."""
    ints, den = a
    n = len(ints)
    if n == 1:
        d = ints[0][0]
    elif n == 2:
        d = ints[0][0] * ints[1][1] - ints[0][1] * ints[1][0]
    else:
        d = _eliminate([list(row) for row in ints], jordan=False)
    return Fraction(d, den ** n)


def s_matinv(a: Mat) -> Mat:
    """Inverse by fraction-free Gauss-Jordan on ``[ints | I]``.

    Elimination turns the left block into ``p*I`` and the right block into
    ``p * ints^-1``, so ``inv(ints/den) = den * right / p``.
    """
    ints, den = a
    n = len(ints)
    m = [[*row, *(1 if i == j else 0 for j in range(n))]
         for i, row in enumerate(ints)]
    if _eliminate(m, jordan=True) == 0:
        raise SingularMatrixError("matrix is not invertible")
    p = m[n - 1][n - 1]
    if p < 0:
        p, den = -p, -den
    return [[den * e for e in row[n:]] for row in m], p


# ---------------------------------------------------------------------------
# bilinear kernels


def s_post(a: Mat, f: Bil) -> Bil:
    ai, ad = a
    fi, fd = f
    # fibers[i][j] = (f[0][i][j], ..., f[n-1][i][j]): the slot a contracts
    fibers = [list(zip(*planes)) for planes in zip(*fi)]
    out = [[[sum(map(mul, arow, fib)) for fib in fib_i] for fib_i in fibers]
           for arow in ai]
    return out, ad * fd


def s_pre(f: Bil, a: Mat, b: Mat) -> Bil:
    fi, fd = f
    ai, ad = a
    bi, bd = b
    acols = list(zip(*ai))
    bcols = list(zip(*bi))
    out = []
    for fk in fi:
        fcols = list(zip(*fk))
        tmp = [[sum(map(mul, acol, fcol)) for fcol in fcols] for acol in acols]
        out.append([[sum(map(mul, trow, bcol)) for bcol in bcols]
                    for trow in tmp])
    return out, fd * ad * bd


def s_pre_left(f: Bil, a: Mat) -> Bil:
    """f(a, I): contract only the first argument slot."""
    fi, fd = f
    ai, ad = a
    acols = list(zip(*ai))
    out = []
    for fk in fi:
        fcols = list(zip(*fk))
        out.append([[sum(map(mul, acol, fcol)) for fcol in fcols]
                    for acol in acols])
    return out, fd * ad


def s_pre_right(f: Bil, b: Mat) -> Bil:
    """f(I, b): contract only the second argument slot."""
    fi, fd = f
    bi, bd = b
    bcols = list(zip(*bi))
    out = [[[sum(map(mul, frow, bcol)) for bcol in bcols] for frow in fk]
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
