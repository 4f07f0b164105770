"""Independent reference implementations used only by the tests.

Everything here is written with plain Fraction loops or symbolic polynomial
expansion, sharing no code with the package's kernels, so agreement between
the two is a genuine two-route check.
"""

from fractions import Fraction
from itertools import permutations

from jetframes import Bilinear, SquareMatrix, T1nL1n, mat_inv, mat_mul
from jetframes.errors import ParseError, SingularMatrixError
from jetframes.rational import rat_from_str, rat_to_str
from jetframes.serialize import MAX_N


# ---------------------------------------------------------------------------
# plain-loop tensor algebra


def ref_transpose(f: Bilinear) -> Bilinear:
    n = f.n
    out = [[[f.coeffs[k][j][i] for j in range(n)] for i in range(n)]
           for k in range(n)]
    return Bilinear.from_coeffs(out)


def ref_sym(f: Bilinear) -> Bilinear:
    n = f.n
    half = Fraction(1, 2)
    out = [[[(f.coeffs[k][i][j] + f.coeffs[k][j][i]) * half
             for j in range(n)] for i in range(n)] for k in range(n)]
    return Bilinear.from_coeffs(out)


def ref_skew(f: Bilinear) -> Bilinear:
    n = f.n
    half = Fraction(1, 2)
    out = [[[(f.coeffs[k][i][j] - f.coeffs[k][j][i]) * half
             for j in range(n)] for i in range(n)] for k in range(n)]
    return Bilinear.from_coeffs(out)


def ref_post(a: SquareMatrix, f: Bilinear) -> Bilinear:
    n = f.n
    out = [[[sum((a.entries[l][k] * f.coeffs[k][i][j] for k in range(n)),
                 Fraction(0))
             for j in range(n)] for i in range(n)] for l in range(n)]
    return Bilinear.from_coeffs(out)


def ref_pre(f: Bilinear, a: SquareMatrix, b: SquareMatrix) -> Bilinear:
    n = f.n
    out = [[[sum((f.coeffs[k][p][q] * a.entries[p][i] * b.entries[q][j]
                  for p in range(n) for q in range(n)), Fraction(0))
             for j in range(n)] for i in range(n)] for k in range(n)]
    return Bilinear.from_coeffs(out)


def ref_add(f: Bilinear, g: Bilinear) -> Bilinear:
    n = f.n
    out = [[[f.coeffs[k][i][j] + g.coeffs[k][i][j] for j in range(n)]
            for i in range(n)] for k in range(n)]
    return Bilinear.from_coeffs(out)


def ref_matmul(a: SquareMatrix, b: SquareMatrix) -> SquareMatrix:
    n = a.n
    out = [[sum((a.entries[i][k] * b.entries[k][j] for k in range(n)),
                Fraction(0))
            for j in range(n)] for i in range(n)]
    return SquareMatrix.from_rows(out)


def ref_det(a: SquareMatrix) -> Fraction:
    """Leibniz permutation expansion; fine for the small n used in tests."""
    n = a.n
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= a.entries[perm[i]][i]
        total += sign * term
    return total


# ---------------------------------------------------------------------------
# reference group laws, straight from the defining formulas


def ref_mul_tilde2(x, y):
    ab = ref_matmul(x.a, y.a), ref_matmul(x.b, y.b)
    return ab[0], ab[1], ref_add(ref_post(x.a, y.f), ref_pre(x.f, y.a, y.b))


def ref_mul_hat2(x, y):
    return ref_matmul(x.a, y.a), ref_add(ref_post(x.a, y.f),
                                         ref_pre(x.f, y.a, y.a))


def ref_mul_tilde21(x, y):
    eye = SquareMatrix.identity(x.n)
    return ref_matmul(x.a, y.a), ref_add(y.f, ref_pre(x.f, eye, y.a))


def ref_mul_t1n_coordinate(x: T1nL1n, y: T1nL1n) -> T1nL1n:
    """The raw coordinate law of ``T1nL1n`` as O(n^5) loops over the
    ``Fraction`` views:

        M[i][j][k] = sum_l F[i][l][k] C[l][j]
                   + sum_{l,m} A[i][l] G[l][j][m] B[m][k]

    with F = x.f, G = y.f, A = x.a, C = y.a and B = A^-1; operands of
    different dimensions raise ``ValueError``.
    """
    n = x.n
    if y.n != n:
        raise ValueError(f"dimension mismatch: {n} vs {y.n}")
    A = x.a.entries
    C = y.a.entries
    B = mat_inv(x.a).entries
    F = x.f.coeffs
    G = y.f.coeffs
    rng = range(n)
    coeffs = tuple(
        tuple(tuple(
            sum(F[i][l][k] * C[l][j] for l in rng)
            + sum(A[i][l] * G[l][j][m] * B[m][k] for l in rng for m in rng)
            for k in rng) for j in rng)
        for i in rng)
    return T1nL1n(mat_mul(x.a, y.a), Bilinear(n, coeffs))


# ---------------------------------------------------------------------------
# exact polynomial maps R^n -> R^n of degree <= 2, for the jet oracle
#
# A component is a dict from sorted variable-index tuples to Fractions:
# {} is the constant term, (i,) linear, (i, j) with i <= j quadratic.


def poly_eval_zero(comp):
    return comp.get((), Fraction(0))


def _poly_mul(p, q, max_degree=2):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(sorted(m1 + m2))
            if len(mono) > max_degree:
                continue
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def _poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c != 0}


def _poly_scale(p, s):
    return {m: c * s for m, c in p.items() if c * s != 0}


def poly_compose_component(comp, inner):
    """Substitute inner[i] (a polynomial) for variable i, truncating at 2."""
    out = {}
    for mono, coeff in comp.items():
        term = {(): coeff}
        for var in mono:
            term = _poly_mul(term, inner[var])
        out = _poly_add(out, term)
    return out


def poly_diff(comp, var):
    out = {}
    for mono, coeff in comp.items():
        for pos, v in enumerate(mono):
            if v == var:
                rest = mono[:pos] + mono[pos + 1:]
                out[rest] = out.get(rest, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c != 0}


def jet_to_polys(j):
    """Polynomials of t -> j(base + t), i.e. Taylor form around the base."""
    n = j.n
    polys = []
    for k in range(n):
        comp = {(): j.value[k]}
        for i in range(n):
            if j.jac.entries[k][i] != 0:
                comp[(i,)] = j.jac.entries[k][i]
        for i in range(n):
            for jj in range(i, n):
                c = j.hess.coeffs[k][i][jj]
                if c == 0:
                    continue
                # 1/2 h(t, t): the (i, i) monomial picks up 1/2, mixed ones 1
                comp[(i, jj)] = c * (Fraction(1, 2) if i == jj else Fraction(1))
        polys.append(comp)
    return polys


def polys_to_jet_data(polys, n):
    """Recover (value, jac, hess) from Taylor-form polynomials."""
    value = tuple(p.get((), Fraction(0)) for p in polys)
    jac = [[polys[k].get((i,), Fraction(0)) for i in range(n)] for k in range(n)]
    hess = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for jj in range(i, n):
                c = polys[k].get((i, jj), Fraction(0))
                if i == jj:
                    hess[k][i][i] = 2 * c
                else:
                    hess[k][i][jj] = c
                    hess[k][jj][i] = c
    return value, jac, hess


def poly_compose_jets(outer, inner):
    """Compose two jets by full polynomial substitution and truncation.

    ``inner`` maps its base to outer's base; the result is in Taylor form
    around inner's base, with the constant terms of the substituted
    variables shifted out (the outer polynomial expects displacements from
    its own base).
    """
    n = inner.n
    inner_polys = jet_to_polys(inner)
    # displacement seen by the outer map: inner(base + t) - inner(base)
    displaced = [_poly_add(p, {(): -p.get((), Fraction(0))})
                 for p in inner_polys]
    outer_polys = jet_to_polys(outer)
    return [poly_compose_component(p, displaced) for p in outer_polys]


# ---------------------------------------------------------------------------
# the array codec through Fraction values: every string read by
# ``rat_from_str`` into a Fraction array for the public constructor, and every
# entry of the Fraction view written by ``rat_to_str``


def _ref_rationals(doc, rank: int, what: str) -> tuple:
    """The rank-``rank`` array of rational strings ``doc`` as nested tuples."""
    if not isinstance(doc, list):
        raise ParseError(f"{what} must be a JSON array at every level")
    if len(doc) > MAX_N:
        raise ParseError(f"{what} is larger than the dimension cap {MAX_N}")
    if rank == 1:
        return tuple(map(rat_from_str, doc))
    return tuple(_ref_rationals(e, rank - 1, what) for e in doc)


def ref_array_from_doc(doc, rank: int):
    """The matrix (rank 2) or bilinear map (rank 3) that the array ``doc``
    holds, with a value the constructor rejects as ``ParseError``.  It has
    no cap on the common denominator."""
    cls, what = {2: (SquareMatrix, "matrix"), 3: (Bilinear, "bilinear")}[rank]
    array = _ref_rationals(doc, rank, what)
    try:
        return cls(len(array), array)
    except (ValueError, SingularMatrixError) as exc:
        raise ParseError(str(exc)) from exc


def ref_array_to_doc(value):
    """The document of a matrix or bilinear array from its Fraction view."""
    if isinstance(value, SquareMatrix):
        return [[rat_to_str(e) for e in row] for row in value.entries]
    return [[[rat_to_str(e) for e in row] for row in plane] for plane in value.coeffs]
