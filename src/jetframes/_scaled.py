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
by the minors of the input.

Every contraction and sum of bilinear maps is one call of ``s_law``, which
forms sum_t +-c_t o f_t(a_t, b_t) over one common denominator in a single
pass: each group law, inverse and conjugation passes all its terms at once,
and ``s_post``, ``s_pre``, ``s_pre_left``, ``s_pre_right`` and ``s_add``
are the one-term (or plain-sum) cases; ``s_neg``, ``s_sym`` and ``s_skew``
work entrywise, with no contraction to pack.  It packs the last index of
each bilinear map into one integer per row (Kronecker substitution: entry j
is weighted by 2^(k j)), so each of its contractions is O(n^3) multiply-adds
of small ints with packed ints, and the terms are added while packed.  The
field width k comes from an exact bound on the output entries (stated and
proved at ``s_law``), so the final unpack is exact; nothing is approximate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import lshift, mul
from typing import Optional, Sequence

from .errors import SingularMatrixError

# (ints, den); the ints are nested lists or nested tuples
Mat = tuple[Sequence[Sequence[int]], int]
Bil = tuple[Sequence[Sequence[Sequence[int]]], int]
# one term of ``s_law``: (sign, c, f, a, b) for sign * c o f(a, b); None
# stands for the identity matrix
Term = tuple[int, Optional[Mat], Bil, Optional[Mat], Optional[Mat]]

_flat = chain.from_iterable


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
# the contraction kernel


def _bits(ints) -> int:
    """The largest bit length of |x| over the flat ints ``ints``."""
    return max(map(int.bit_length, ints))


def s_law(*terms: Term) -> Bil:
    """sum_t sign_t * c_t o f_t(a_t, b_t) in one exact integer pass.

    Every term is brought to one common denominator L, the lcm of the term
    denominators; its factor L/den_t and its sign are folded into its
    smallest present matrix operand (into the packed rows when it has none).
    The work is then Kronecker-packed over the last index j: a vector
    (v_0, ..., v_{n-1}) is held as the one integer P(v) = sum_j v_j 2^(k j).
    Each row of b becomes P(b[q]) (with b = I the rows of f are packed
    directly), and the f, a and c contractions are inner products of small
    ints with packed ints, n^3 big-int multiply-adds each; the terms are
    added while still packed, and one signed unpack per packed row follows.

    Width.  Let bits(x) be the largest bit length of |entry| of x (a folded
    factor s counts as ceil(log2 |s|) more bits of its operand), r_t the
    number of matrices present in term t (each sums one index over n values)
    and T the number of terms.  Every output entry of a
    term is a sum of n^r_t products of one entry of each operand, so it is
    below 2^(bits(f) + sum_m (bits(m) + ceil(log2 n))) in magnitude, and the
    sum of T terms is below 2^(k - 1) when

        k >= 1 + ceil(log2 T) + max_t [bits(f) + sum_m (bits(m) + ceil(log2 n))].

    k is rounded up to whole bytes.  P is additive and P(v) * m = P(m v), so
    the packed result equals P(out) exactly, whatever the intermediate
    fields hold.  With every |out_j| < 2^(k-1), adding the offset
    sum_j 2^(k-1) 2^(k j) makes each field out_j + 2^(k-1), a value in
    [0, 2^k) that carries into no other field; xor with the same offset
    then flips each field's top bit, which turns it into the k-bit two's
    complement of out_j, read back bytewise.  Nothing is rounded or
    tolerated: the unpack is exact because the bound holds.
    """
    n = len(terms[0][2][0])
    log_n = (n - 1).bit_length()
    dens = []
    for _, c, f, a, b in terms:
        den = f[1]
        for m in (c, a, b):
            if m is not None:
                den *= m[1]
        dens.append(den)
    den = dens[0] if len(terms) == 1 else lcm(*dens)
    prepared = []
    width = 0
    for (sign, c, f, a, b), d in zip(terms, dens):
        mats = [c, a, b]
        fi = f[0]
        bits = _bits(_flat(_flat(fi)))
        least = None
        for slot, m in enumerate(mats):
            if m is not None:
                mats[slot] = m = m[0]
                m_bits = _bits(_flat(m))
                bits += m_bits + log_n
                if least is None or m_bits < least_bits:
                    least, least_bits = slot, m_bits
        scale = sign * (den // d)
        if scale != 1:
            bits += (abs(scale) - 1).bit_length()
            if least is not None:
                mats[least] = [[e * scale for e in row] for row in mats[least]]
                scale = 1
        width = max(width, bits)
        prepared.append((scale, *mats, fi))
    k = (1 + (len(terms) - 1).bit_length() + width + 7) // 8 * 8
    shifts = range(0, k * n, k)

    total = None
    for scale, c, a, b, fi in prepared:
        if b is None:
            rows = [[sum(map(lshift, frow, shifts)) for frow in fk] for fk in fi]
        else:
            packed = [sum(map(lshift, brow, shifts)) for brow in b]
            rows = [[sum(map(mul, frow, packed)) for frow in fk] for fk in fi]
        if a is not None:
            acols = list(zip(*a))
            rows = [[sum(map(mul, acol, rk)) for acol in acols] for rk in rows]
        if c is not None:
            cols = list(zip(*rows))
            rows = [[sum(map(mul, crow, col)) for col in cols] for crow in c]
        if scale != 1:
            rows = [[x * scale for x in row] for row in rows]
        total = rows if total is None else [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, rows)]

    size = k // 8
    nbytes = size * n
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    starts = range(0, nbytes, size)
    from_bytes = int.from_bytes
    out = []
    for row in total:
        plane = []
        for x in row:
            buf = ((x + offset) ^ offset).to_bytes(nbytes, "little")
            plane.append([from_bytes(buf[s:s + size], "little", signed=True)
                          for s in starts])
        out.append(plane)
    return out, den


# ---------------------------------------------------------------------------
# single bilinear operations


def s_post(a: Mat, f: Bil) -> Bil:
    """a o f: contract the output slot."""
    return s_law((1, a, f, None, None))


def s_pre(f: Bil, a: Mat, b: Mat) -> Bil:
    """f(a, b): contract both argument slots."""
    return s_law((1, None, f, a, b))


def s_pre_left(f: Bil, a: Mat) -> Bil:
    """f(a, I): contract only the first argument slot."""
    return s_law((1, None, f, a, None))


def s_pre_right(f: Bil, b: Mat) -> Bil:
    """f(I, b): contract only the second argument slot."""
    return s_law((1, None, f, None, b))


def s_add(*terms: Bil) -> Bil:
    return s_law(*[(1, None, f, None, None) for f in terms])


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
