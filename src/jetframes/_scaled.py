"""Private integer-scaled kernels behind the exact public operations.

A scaled value is ``(ints, den)``, den > 0: the rational array equals
ints/den entrywise.  ``ints`` is n flat int rows, the rows of a matrix or
the planes of a bilinear map in row-major order (``coeffs[k][i][j]`` is
``ints[k][i*n + j]``), so its length is the dimension n.  ``SquareMatrix``
and ``Bilinear`` store their values in this form, canonical (gcd(all ints,
den) = 1), so the public operations hand their stored ints to these kernels
and build the result from the kernel output with ``reduce``, one gcd pass;
no ``Fraction`` is made on the way.  Kernels read rows that are tuples or
lists and return rows that are lists or, from ``s_law``'s plane path,
tuples; ``s_matmul`` and ``s_law``, the kernels that combine operands,
refuse operands of different n.  Nothing here is approximate.

Conversions between ``Fraction`` arrays and the scaled form happen only at
the public edges: ``smat``/``sbil`` when a value is built from rationals by
the public constructors, ``mat_entries``/``bil_coeffs`` when the
``entries``/``coeffs`` views are read (library callers, the plain-fraction
cross-checks).  The views take any scaled form, canonical or not: each
``Fraction`` reduces its own entry.  Documents use neither: ``serialize``
reads and writes the scaled form as text directly.

Determinant and inverse share one fraction-free (Bareiss) elimination: the
determinant by forward elimination, the inverse by Gauss-Jordan on
``[ints | I]``, both O(n^3) multiplies on integers whose size stays bounded
by the minors of the input.

Every contraction and sum of bilinear maps is one call of ``s_law``, which
forms sum_t +-c_t o f_t(a_t, b_t) over one common denominator in a single
pass: each group law and inverse passes all its terms at once (a conjugation
makes two calls), and ``s_post``, ``s_pre``, ``s_pre_left``, ``s_pre_right``
and ``s_add`` are the one-term (or plain-sum) cases; ``s_neg``, ``s_sym`` and
``s_skew`` work entrywise, with no contraction to pack.  ``s_law`` states
how it packs its terms by Kronecker substitution and the exact bound that
sizes the packing: a law whose width k is at most 64 bits packs each output
plane in lanes of 8, 16, 32 or 64 bits, and a wider one packs rows in
fields of exactly k bits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, floordiv, lshift, mul, neg, sub
from struct import Struct
from struct import error as struct_error
from typing import Optional, Sequence

from .errors import SingularMatrixError

# (ints, den); the ints are n rows of n (matrix) or n^2 (bilinear) ints,
# lists or tuples
Mat = Bil = tuple[Sequence[Sequence[int]], int]
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
    return smat([tuple(_flat(plane)) for plane in coeffs])


def reduce(s: Mat) -> Mat:
    """Canonical form of a scaled matrix or bilinear map: a tuple of int
    tuples, gcd(ints, den) = 1.  The gcd pass stops at the first row that
    brings it to 1."""
    ints, den = s
    g = den
    for row in ints:
        g = gcd(g, *row)
        if g == 1:
            return tuple(map(tuple, ints)), den
    gs = repeat(g)
    return tuple(tuple(map(floordiv, row, gs)) for row in ints), den // g


def mat_entries(m: Mat) -> tuple[tuple[Fraction, ...], ...]:
    ints, den = m
    return tuple(tuple(Fraction(e, den) for e in row) for row in ints)


def bil_coeffs(f: Bil) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    ints, den = f
    n = len(ints)
    return tuple(tuple(tuple(Fraction(e, den) for e in plane[r:r + n])
                       for r in range(0, n * n, n)) for plane in ints)


# ---------------------------------------------------------------------------
# matrix kernels


def s_matmul(a: Mat, b: Mat) -> Mat:
    ai, ad = a
    bi, bd = b
    if len(ai) != len(bi):
        raise ValueError(f"dimension mismatch: {len(ai)} vs {len(bi)}")
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
    return Fraction(_eliminate(list(map(list, ints)), jordan=False),
                    den ** len(ints))


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
    denominators: its factor s_t = sign_t * L/den_t multiplies its packed
    values once they are contracted.  The ints of the result are n rows
    (lists or tuples, as the path gives them).

    Width.  Let bits(x) be the largest bit length of |entry| of x, r_t the
    number of matrices present in term t (each sums one index over n values)
    and T the number of terms.  Every output entry of term t is s_t times a
    sum of n^r_t products of one entry of each operand, so it is below
    2^(ceil(log2 |s_t|) + bits(f) + sum_m (bits(m) + ceil(log2 n))) in
    magnitude, and the sum of T terms is below 2^(k - 1) when

        k >= 1 + ceil(log2 T)
               + max_t [ceil(log2 |s_t|) + bits(f) + sum_m (bits(m) + ceil(log2 n))].

    k is exactly this bound; every operand entry is below 2^(k-1) in
    magnitude too, since its bits are one of the bound's summands.  The work
    is Kronecker-packed (P is additive and P(v) * m = P(m v), so a packed
    result equals the packing of the output exactly, whatever the
    intermediate values hold) on one of two paths, chosen by k alone:

    Planes (k <= 64, ``_law_planes``).  Each plane of n^2 entries is one
    integer of w-bit lanes, w the smallest of 8, 16, 32 and 64 with w >= k:
    out[i][j] sits in lane n i + j.  Row q of b is packed over j as P_b(q) =
    sum_j b[q][j] 2^(w j) and row p of a over i as Q_a(p) = sum_i a[p][i]
    2^(w n i) (an identity slot is the plain power of two).  How f(a, b) is
    formed depends on n.  Up to ``_PLANE_N`` the table T[p][q] = Q_a(p)
    P_b(q) makes the contraction of a plane g of f the one sum sum_{p,q}
    g[p][q] T[p][q].  Past it the table's n^2 entries of n^2 lanes cost
    O(n^5) digit work, so f(a, b) is formed as on the rows path, one packed
    row per output index i, in w-bit lanes, and the n rows of a plane are
    shifted into it.  Either way the c contraction is one sum per output
    plane and the terms are added as one integer per plane.  Since k <= w,
    every |out| < 2^(k-1) <= 2^(w-1), so y = x + sum_l 2^(w-1) 2^(w l)
    holds each out + 2^(w-1) in its own lane, in [0, 2^w) and carrying into
    no other; y xor the same offset holds each out as a w-bit two's
    complement lane, which one ``Struct`` unpack reads.

    The operands are packed by ``Struct`` too.  Each entry e is written as a
    w-bit two's complement lane and the bytes read back unsigned, which
    gives x = sum_l (e_l mod 2^w) 2^(s_l) over the lane starts s_l.  As
    |e_l| < 2^(k-1) <= 2^(w-1), a lane's top bit is set exactly when e_l <
    0, and then the lane holds e_l + 2^w; so with S = sum_l 2^(w-1) 2^(s_l)
    the packed value is x - ((x & S) << 1), one borrow correction per
    integer.  An entry that no w-bit lane holds raises ``OverflowError``.

    Rows (k > 64, ``_law_rows``).  The last index j is packed with the
    exact width k: a vector (v_0, ..., v_{n-1}) is held as the one integer
    P(v) = sum_j v_j 2^(k j).  Each row of b becomes P(b[q]) (with b = I the
    rows of f are packed directly), and the f, a and c contractions are
    inner products of small ints with packed ints, n^3 big-int multiply-adds
    each; the terms are added while still packed, and one signed unpack per
    packed row follows.  With every |out_j| < 2^(k-1), y = x + sum_j 2^(k-1)
    2^(k j) holds each out_j + 2^(k-1) in its own k-bit field, so out_j =
    ((y >> k j) & (2^k - 1)) - 2^(k-1).

    On either path 0 <= y < 2^(width of the packed value); a y outside it
    (too large, or negative) breaks the bound and raises ``OverflowError``
    rather than unpack wrong fields.  Nothing is rounded or tolerated.
    """
    n = len(terms[0][2][0])
    k, den, prepared = _prepare(n, terms)
    if k <= 64:
        # the smallest lane width w in (8, 16, 32, 64) with w >= k
        return _law_planes(n, max(8, 1 << (k - 1).bit_length()), prepared), den
    return _law_rows(n, k, prepared), den


def _prepare(n: int, terms: Sequence[Term]) -> tuple[int, int, list]:
    """The width k of ``s_law``, the common denominator and the terms as
    (scale, c, a, b, f) ints; refuses operands whose dimension is not n.
    One pass over each term's operands forms its denominator product and
    its bit lengths."""
    log_n = (n - 1).bit_length()
    den = 1
    parts = []
    for sign, c, f, a, b in terms:
        fi, d = f
        bits = _bits(_flat(fi))
        if c is not None:
            c, e = c
            d *= e
            bits += _bits(_flat(c)) + log_n
        if a is not None:
            a, e = a
            d *= e
            bits += _bits(_flat(a)) + log_n
        if b is not None:
            b, e = b
            d *= e
            bits += _bits(_flat(b)) + log_n
        for m in fi, c, a, b:
            if m is not None and len(m) != n:
                raise ValueError(f"dimension mismatch: {n} vs {len(m)}")
        den = lcm(den, d)
        parts.append((sign, d, bits, c, a, b, fi))
    prepared = []
    width = 0
    for sign, d, bits, c, a, b, fi in parts:
        scale = den // d
        width = max(width, (scale - 1).bit_length() + bits)
        prepared.append((sign * scale, c, a, b, fi))
    return 1 + (len(terms) - 1).bit_length() + width, den, prepared


# the largest n at which the plane path forms f(a, b) from the table of
# packed argument rows, and past which from packed rows.  Timed with both
# forms in one process on the ops-large operations' laws of width k <= 64
# (one core, x86_64, CPython 3.11), packed rows take 1.15-1.42x the
# table's time at n = 1..5, 1.02x (on products of three draws) and 1.15x
# (on single draws) at 6, 0.96x and 1.02x at 7, and 0.68x and 0.89x at 8
_PLANE_N = 6

# the ``struct`` format of one signed lane of each width
_LANE_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}


def _packer(w: int, starts: range):
    """P(v) = sum_l v_l 2^(s_l) over the lane starts s_l of ``starts`` by one
    ``Struct`` pack of w-bit lanes and one borrow correction (``s_law``); an
    entry outside [-2^(w-1), 2^(w-1)) raises ``OverflowError``."""
    lane = _LANE_FORMATS[w]
    gap = f"{(starts.step - w) >> 3}x"
    pack = Struct("<" + (lane + gap) * (len(starts) - 1) + lane).pack
    signs = sum(1 << (s + w - 1) for s in starts)
    from_bytes = int.from_bytes

    def packed(values: Sequence[int]) -> int:
        try:
            data = pack(*values)
        except struct_error:
            raise OverflowError("s_law: an operand exceeds its lane") from None
        x = from_bytes(data, "little")
        return x - ((x & signs) << 1)

    return packed


@cache
def _lanes(n: int, w: int):
    """The plane path's constants for n^2 lanes of w bits, w in (8, 16, 32,
    64): the lane shifts of the first output index, the lane offset sum_l
    2^(w-1) 2^(w l), the plane width in bits, the unpack of one plane, the
    packings of a plane, of a row over the last index (P) and of a row over
    the first (Q), and the packed identity's rows Q_I and P_I.  The offset
    puts every |out| < 2^(w-1) in [0, 2^w), inside its lane."""
    nn = n * n
    outer, inner = range(0, w * nn, w * n), range(0, w * n, w)
    return (outer, sum(1 << s for s in range(w - 1, w * nn, w)), w * nn,
            Struct(f"<{nn}{_LANE_FORMATS[w]}").unpack,
            _packer(w, range(0, w * nn, w)), _packer(w, inner),
            _packer(w, outer), tuple(1 << s for s in outer),
            tuple(1 << s for s in inner))


def _rows(n: int, pack, fi, a, b) -> list[list[int]]:
    """f(a, b) as packed rows: rows[k][i] packs out[k][i][j] over j, with
    ``pack`` packing a row of b (or of f, when b is the identity) the same
    way; n^3 multiply-adds per present matrix."""
    starts = range(0, n * n, n)
    if b is None:
        rows = [[pack(fk[r:r + n]) for r in starts] for fk in fi]
    else:
        packed = list(map(pack, b))
        rows = [[sum(map(mul, fk[r:r + n], packed)) for r in starts]
                for fk in fi]
    if a is not None:
        acols = list(zip(*a))
        rows = [[sum(map(mul, acol, rk)) for acol in acols] for rk in rows]
    return rows


def _law_planes(n: int, w: int, prepared: list) -> list[tuple[int, ...]]:
    """The plane path of ``s_law`` in w-bit lanes: exact when every |out| <
    2^(w-1)."""
    outer, offset, top, unpack, pack, pack_p, pack_q, eye_q, eye_p = _lanes(n, w)
    total = None
    for scale, c, a, b, fi in prepared:
        if a is None and b is None:
            planes = list(map(pack, fi))
        elif n <= _PLANE_N:
            qa = eye_q if a is None else list(map(pack_q, a))
            pb = eye_p if b is None else list(map(pack_p, b))
            table = [x * y for x in qa for y in pb]
            planes = [sum(map(mul, fk, table)) for fk in fi]
        else:
            planes = [sum(map(lshift, rk, outer))
                      for rk in _rows(n, pack_p, fi, a, b)]
        if c is not None:
            planes = [sum(map(mul, crow, planes)) for crow in c]
        if scale != 1:
            planes = [x * scale for x in planes]
        total = planes if total is None else list(map(add, total, planes))

    out = []
    for x in total:
        y = x + offset
        if y < 0 or y >> top:
            raise OverflowError("s_law: a lane exceeds its width")
        out.append(unpack((y ^ offset).to_bytes(top >> 3, "little")))
    return out


def _law_rows(n: int, k: int, prepared: list) -> list[list[int]]:
    """The rows path of ``s_law``: exact when every |out| < 2^(k-1)."""
    shifts = range(0, k * n, k)
    total = None
    for scale, c, a, b, fi in prepared:
        rows = _rows(n, lambda v: sum(map(lshift, v, shifts)), fi, a, b)
        if c is not None:
            cols = list(zip(*rows))
            rows = [[sum(map(mul, crow, col)) for col in cols] for crow in c]
        if scale != 1:
            rows = [[x * scale for x in row] for row in rows]
        total = rows if total is None else [
            [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, rows)]

    half = 1 << (k - 1)
    mask = (1 << k) - 1
    offset = sum(half << s for s in shifts)
    top = k * n
    out = []
    for row in total:
        ys = list(map(offset.__add__, row))
        if min(ys) < 0 or max(ys) >> top:  # some y >> top is nonzero
            raise OverflowError("s_law: a field exceeds its width")
        out.append([((y >> s) & mask) - half for y in ys for s in shifts])
    return out


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
    return [list(map(neg, plane)) for plane in ints], den


@cache
def _columns(n: int) -> tuple[slice, ...]:
    """The slices ``i::n`` that read column i of a flat n x n plane."""
    return tuple(slice(i, None, n) for i in range(n))


def swapped(plane: Sequence[int], n: int) -> tuple[int, ...]:
    """``plane`` with its argument indices swapped: row i is ``plane[i::n]``."""
    return tuple(_flat(map(plane.__getitem__, _columns(n))))


def s_sym(f: Bil) -> Bil:
    ints, den = f
    return [list(map(add, p, swapped(p, len(ints)))) for p in ints], 2 * den


def s_skew(f: Bil) -> Bil:
    ints, den = f
    return [list(map(sub, p, swapped(p, len(ints)))) for p in ints], 2 * den
