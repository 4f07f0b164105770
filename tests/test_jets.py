from fractions import Fraction
from math import lcm

import pytest

from exact_oracles import (
    poly_compose_component,
    poly_compose_jets,
    poly_diff,
    polys_to_jet_data,
    ref_add,
    ref_post,
    ref_pre,
)
from jetframes import (
    Bilinear,
    CompositionDomainError,
    FMJetData,
    G2,
    Map2Jet,
    NonHolFrame,
    NotAFrameError,
    SquareMatrix,
    classify,
    compose_2jets,
    frame_from_fm_map,
    g2_law_via_jets,
    left_act_diffeo,
    mul_g2,
    mul_hat2,
    post_compose,
    proj_21,
)
from jetframes import _scaled as sc
from jetframes import jets
from jetframes.randgen import (
    rand_g2,
    rand_map2jet,
    rand_nonhol,
    rand_point,
    stream,
)


def _eye(n):
    return SquareMatrix.identity(n)


def _origin(n):
    return (Fraction(0),) * n


# ---------------------------------------------------------------------------
# composition


def test_compose_with_identity():
    rng = stream(90, "jetid")
    f = rand_map2jet(rng, 3)
    assert compose_2jets(Map2Jet.identity(f.value), f) == f
    assert compose_2jets(f, Map2Jet.identity(f.base)) == f


def test_compose_pure_quadratics_add_hessians():
    rng = stream(91, "jetquad")
    n = 2
    h1 = rand_g2(rng, n).f
    h2 = rand_g2(rng, n).f
    j1 = Map2Jet(_origin(n), _origin(n), _eye(n), h1)
    j2 = Map2Jet(_origin(n), _origin(n), _eye(n), h2)
    assert compose_2jets(j1, j2).hess == h1 + h2


def test_compose_requires_chained_points():
    rng = stream(92, "jetchain")
    f = rand_map2jet(rng, 2)
    g = rand_map2jet(rng, 2)
    if g.base != f.value:
        with pytest.raises(CompositionDomainError):
            compose_2jets(g, f)


def test_compose_matches_polynomial_expansion():
    # compose two explicit quadratic maps as polynomials, truncate, compare
    rng = stream(93, "jetpoly")
    for n in (1, 2, 3):
        for _ in range(10):
            x0 = rand_point(rng, n)
            x1 = rand_point(rng, n)
            x2 = rand_point(rng, n)
            inner = rand_map2jet(rng, n, base=x0, value=x1)
            outer = rand_map2jet(rng, n, base=x1, value=x2)
            polys = poly_compose_jets(outer, inner)
            value, jac, hess = polys_to_jet_data(polys, n)
            composed = compose_2jets(outer, inner)
            assert composed.value == value
            assert composed.jac == SquareMatrix.from_rows(jac)
            assert composed.hess == Bilinear.from_coeffs(hess)


def test_compose_associative():
    rng = stream(94, "jetassoc")
    n = 2
    points = [rand_point(rng, n) for _ in range(4)]
    f = rand_map2jet(rng, n, base=points[0], value=points[1])
    g = rand_map2jet(rng, n, base=points[1], value=points[2])
    h = rand_map2jet(rng, n, base=points[2], value=points[3])
    assert (compose_2jets(compose_2jets(h, g), f)
            == compose_2jets(h, compose_2jets(g, f)))


# ---------------------------------------------------------------------------
# the group law from jets


def test_jet_law_identity_and_linear_parts():
    assert g2_law_via_jets(G2.identity(2), G2.identity(2)) == G2.identity(2)
    rng = stream(95, "jetlaw")
    a = rand_g2(rng, 2).a
    a2 = rand_g2(rng, 2).a
    zero = Bilinear.zero(2)
    assert g2_law_via_jets(G2(a, zero), G2(a2, zero)) == G2(a @ a2, zero)


def test_jet_law_equals_group_law():
    rng = stream(96, "jetlawfull")
    for n in (1, 2, 3):
        for _ in range(15):
            p, q = rand_g2(rng, n), rand_g2(rng, n)
            via_jets = g2_law_via_jets(p, q)
            assert via_jets == mul_g2(p, q)
            assert via_jets.as_hat2() == mul_hat2(p.as_hat2(), q.as_hat2())


# ---------------------------------------------------------------------------
# frames from frame-field data


def test_frame_field_with_matching_derivative_is_holonomic():
    # section style: r -> (phi(r), Dphi(r)) with phi quadratic
    n = 2
    phi0 = _origin(n)
    dphi = SquareMatrix.from_rows([[1, 2], [0, 1]])
    hess = Bilinear.from_coeffs(
        [[[1, 0], [0, 2]], [[0, 1], [1, 0]]])  # symmetric second derivatives
    d = FMJetData(phi0, dphi, dphi, hess)
    frame = frame_from_fm_map(d)
    assert classify(frame) == "holonomic"


def test_identity_section_is_holonomic():
    n = 2
    d = FMJetData(_origin(n), _eye(n), _eye(n), Bilinear.zero(n))
    assert classify(frame_from_fm_map(d)) == "holonomic"


def test_mismatched_linear_parts_give_nonholonomic():
    n = 2
    phi_lin = SquareMatrix.from_rows([[1, 1], [0, 1]])
    dphi = SquareMatrix.from_rows([[1, 0], [0, 1]])
    d = FMJetData(_origin(n), phi_lin, dphi, Bilinear.zero(n))
    assert classify(frame_from_fm_map(d)) == "nonholonomic"


def test_singular_data_is_not_a_frame():
    n = 2
    singular = SquareMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(NotAFrameError):
        frame_from_fm_map(FMJetData(_origin(n), _eye(n), singular,
                                    Bilinear.zero(n)))
    with pytest.raises(NotAFrameError):
        frame_from_fm_map(FMJetData(_origin(n), singular, _eye(n),
                                    Bilinear.zero(n)))


def test_frame_from_fm_map_takes_each_determinant_once(monkeypatch):
    """The two determinants that decide ``NotAFrameError`` are the only ones
    taken: the frame is not checked a second time."""
    taken = []
    s_det = sc.s_det
    monkeypatch.setattr(sc, "s_det", lambda m: taken.append(m) or s_det(m))
    n = 2
    phi_lin = SquareMatrix.from_rows([[1, 1], [0, 1]])
    dphi = SquareMatrix.from_rows([[2, 0], [1, 1]])
    frame = frame_from_fm_map(FMJetData(_origin(n), phi_lin, dphi,
                                        Bilinear.zero(n)))
    assert sorted(taken) == sorted([phi_lin.scaled, dphi.scaled])
    assert frame == NonHolFrame(_origin(n), phi_lin, dphi, Bilinear.zero(n))
    singular = SquareMatrix.zero(n)
    for parts in ((phi_lin, singular), (singular, dphi)):
        taken.clear()
        with pytest.raises(NotAFrameError, match="singular"):
            frame_from_fm_map(FMJetData(_origin(n), *parts, Bilinear.zero(n)))
        assert len(taken) <= 2


def test_explicit_quadratic_frame_field():
    # phi(r) = (r0 + r0*r1, r1 + 1/2 r1^2), frame part PHI(r) = A + r0*G
    # differentiated by hand via the polynomial helpers
    n = 2
    A = SquareMatrix.from_rows([[2, 1], [1, 1]])
    G = SquareMatrix.from_rows([[0, 1], [1, 0]])
    phi_polys = [
        {(0,): Fraction(1), (0, 1): Fraction(1)},
        {(1,): Fraction(1), (1, 1): Fraction(1, 2)},
    ]
    dphi = [[poly_diff(phi_polys[k], j).get((), Fraction(0)) for j in range(n)]
            for k in range(n)]
    # entries of PHI are linear polynomials; their r^j derivative at 0
    dphi_lin = [[[G.entries[k][l] if j == 0 else Fraction(0) for j in range(n)]
                 for l in range(n)] for k in range(n)]
    d = FMJetData(_origin(n), A, SquareMatrix.from_rows(dphi),
                  Bilinear.from_coeffs(dphi_lin))
    frame = frame_from_fm_map(d)
    assert frame.x == _origin(n)
    assert frame.a == A
    assert frame.b == SquareMatrix.from_rows([[1, 0], [0, 1]])
    assert frame.f.coeffs[0][1][0] == 1  # d PHI^0_1 / d r^0


# ---------------------------------------------------------------------------
# the prolonged action


def test_identity_jet_acts_trivially():
    rng = stream(97, "actid")
    q = rand_nonhol(rng, 2)
    assert left_act_diffeo(Map2Jet.identity(q.x), q) == q


def test_linear_jet_acts_by_post_composition():
    rng = stream(98, "actlin")
    q = rand_nonhol(rng, 2)
    F = rand_map2jet(rng, 2, base=q.x)
    F_linear = Map2Jet(F.base, F.value, F.jac, Bilinear.zero(2))
    moved = left_act_diffeo(F_linear, q)
    assert moved.x == F.value
    assert moved.a == F.jac @ q.a
    assert moved.b == F.jac @ q.b
    assert moved.f == post_compose(F.jac, q.f)


def test_action_matches_polynomial_differentiation():
    # push an explicit polynomial frame field through an explicit quadratic
    # diffeo and differentiate the composite symbolically
    n = 2
    rng = stream(99, "actpoly")
    for _ in range(5):
        q = rand_nonhol(rng, n)
        F = rand_map2jet(rng, n, base=q.x)
        # represent the frame field psi(r) = (phi(r), PHI(r)) to first order:
        # phi has value q.x, jacobian q.b; PHI has value q.a, derivative q.f
        # F as Taylor polynomials around its base, in displacement variables
        F_polys = [
            {**{(): F.value[k]},
             **{(i,): F.jac.entries[k][i] for i in range(n)
                if F.jac.entries[k][i] != 0}}
            for k in range(n)
        ]
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    c = F.hess.coeffs[k][i][j]
                    if c != 0:
                        F_polys[k][(i, j)] = c * (Fraction(1, 2) if i == j
                                                  else Fraction(1))
        displacement = [dict({(i,): q.b.entries[k][i] for i in range(n)
                              if q.b.entries[k][i] != 0})
                        for k in range(n)]
        # composite base map F(phi(r)): substitute the displacement
        composite = [poly_compose_component(F_polys[k], displacement)
                     for k in range(n)]
        x_new = tuple(p.get((), Fraction(0)) for p in composite)
        b_new = [[poly_diff(composite[k], j).get((), Fraction(0))
                  for j in range(n)] for k in range(n)]
        # composite frame part DF(phi(r)) . PHI(r), entry (k, l):
        # sum_m dF^k/du^m (phi(r)) * PHI^m_l(r)
        dF = [[poly_compose_component(poly_diff(F_polys[k], m), displacement)
               for m in range(n)] for k in range(n)]
        a_new = [[sum((dF[k][m].get((), Fraction(0)) * q.a.entries[m][l]
                       for m in range(n)), Fraction(0))
                  for l in range(n)] for k in range(n)]
        f_new = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for k in range(n):
            for l in range(n):
                for j in range(n):
                    total = Fraction(0)
                    for m in range(n):
                        # product rule: (dF^k_m o phi)' PHI^m_l + value * dPHI
                        total += (poly_diff(dF[k][m], j).get((), Fraction(0))
                                  * q.a.entries[m][l])
                        total += (dF[k][m].get((), Fraction(0))
                                  * q.f.coeffs[m][l][j])
                    f_new[k][l][j] = total
        expected = NonHolFrame(x_new, SquareMatrix.from_rows(a_new),
                               SquareMatrix.from_rows(b_new),
                               Bilinear.from_coeffs(f_new))
        assert left_act_diffeo(F, q) == expected


def test_action_preserves_class_and_projects():
    rng = stream(100, "actclass")
    for _ in range(5):
        q = rand_nonhol(rng, 2)
        F = rand_map2jet(rng, 2, base=q.x)
        moved = left_act_diffeo(F, q)
        assert classify(moved) == classify(q)
        lin = proj_21(moved)
        assert lin.x == F.value and lin.a == F.jac @ q.a


def test_action_is_functorial():
    rng = stream(101, "actfunct")
    q = rand_nonhol(rng, 2)
    mid = rand_point(rng, 2)
    end = rand_point(rng, 2)
    G = rand_map2jet(rng, 2, base=q.x, value=mid)
    F = rand_map2jet(rng, 2, base=mid, value=end)
    assert (left_act_diffeo(compose_2jets(F, G), q)
            == left_act_diffeo(F, left_act_diffeo(G, q)))


def test_action_requires_matching_base():
    rng = stream(102, "actdomain")
    q = rand_nonhol(rng, 2)
    F = rand_map2jet(rng, 2)
    if F.base != q.x:
        with pytest.raises(CompositionDomainError):
            left_act_diffeo(F, q)


def test_hessian_must_be_symmetric():
    with pytest.raises(ValueError):
        Map2Jet(_origin(2), _origin(2), _eye(2), Bilinear.single(2, 0, 0, 1))


# ---------------------------------------------------------------------------
# the packed chain rule at its width bound


def _full(n, bits, sign, den=1, bilinear=False):
    """Every entry sign * (2^bits - 1) / den: a matrix, or a bilinear map."""
    e = sign * ((1 << bits) - 1)
    if bilinear:
        return Bilinear._of(([[e] * (n * n) for _ in range(n)], den))
    return SquareMatrix._of(([[e] * n for _ in range(n)], den))


def _scales(dens):
    """log2 of the powers of two by which the lcm of the two sums'
    denominators ``dens`` multiplies jac and a."""
    common = lcm(*dens)
    return tuple((common // d).bit_length() - 1 for d in dens)


def _width(n, bits, dens):
    """The field width the proof of ``_chain_rule`` asks for."""
    bj, bf, bh, ba, bb = bits
    sj, sa = _scales(dens)
    g = (n - 1).bit_length()
    return 2 + max(bj + sj + bf + g, bh + ba + sa + bb + 2 * g)


def _chain_edge(n, bits, sign, same_ab, dens=(1, 1)):
    """jac o f + hess(a, b) on full operands of the given bit lengths, with
    the sign on jac and hess (both sums take it) and dens the denominators
    of jac and hess; checked against the Fraction loops.  Returns the
    output field, the numerator over the lcm of the two sums' denominators,
    and the width the bound asks for."""
    bj, bf, bh, ba, bb = bits
    jac, hess = _full(n, bj, sign, dens[0]), _full(n, bh, sign, dens[1], True)
    f, a = _full(n, bf, 1, bilinear=True), _full(n, ba, 1)
    b = a if same_ab else _full(n, bb, 1)
    out = jets._chain_rule(jac.scaled, f.scaled, hess.scaled, a.scaled, b.scaled)
    assert out == ref_add(ref_post(jac, f), ref_pre(hess, a, b)), (bits, dens)
    field = Fraction(out.ints[0][0], out.den) * lcm(*dens)
    assert field.denominator == 1
    return field.numerator, _width(n, bits, dens)


def _edge_bits(n, same_ab, dens):
    """Bit lengths (jac, f, hess, a, b) that bring the two sums' bounds within
    one bit of each other, where the sum of both terms reaches the bound."""
    g = (n - 1).bit_length()
    sj, sa = _scales(dens)
    for bh in (2, 5):
        for ba in (3, 6):
            bb = ba if same_ab else ba + 2
            second = bh + ba + sa + bb + 2 * g
            for delta in (-1, 0, 1):
                rest = second + delta - g - sj  # bj + bf
                yield rest - rest // 2, rest // 2, bh, ba, bb


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("same_ab", [True, False], ids=["a=b", "a!=b"])
def test_chain_rule_is_exact_at_the_width_bound(n, sign, same_ab):
    # a = b as compose_2jets passes them, a != b as left_act_diffeo does; the
    # second and third denominators scale jac, then a, by 2
    hits = 0
    for dens in ((1, 1), (1, 2), (2, 1)):
        for bits in _edge_bits(n, same_ab, dens):
            field, width = _chain_edge(n, bits, sign, same_ab, dens)
            assert field * sign > 0
            # past 2^(width - 2), one bit less of field would not hold it
            hits += abs(field) > 1 << (width - 2)
    assert hits


@pytest.mark.parametrize("sign, same_ab", [(1, True), (-1, False)])
def test_chain_rule_is_exact_at_the_width_bound_n12(sign, same_ab):
    n = 12
    bits = next(b for b in _edge_bits(n, same_ab, (1, 1))
                if b[0] + b[1] == b[2] + b[3] + b[4] + 4)  # equal bounds
    field, width = _chain_edge(n, bits, sign, same_ab)
    bj, bf, bh, ba, bb = ((1 << x) - 1 for x in bits)
    assert field == sign * (n * bj * bf + n * n * bh * ba * bb)
    assert abs(field) > 1 << (width - 2)


@pytest.mark.parametrize("sign", [1, -1])
def test_chain_rule_raises_when_its_width_is_too_small(monkeypatch, sign):
    # with every operand reported 0 bits wide, the fields are far too narrow
    # for wide entries of either sign: the unpack must raise, not return
    # wrong fields
    n = 8
    jac, hess = _full(n, 40, sign), _full(n, 40, sign, bilinear=True)
    f, a = _full(n, 40, 1, bilinear=True), _full(n, 40, 1)
    monkeypatch.setattr(jets, "_bits", lambda rows: 0)
    with pytest.raises(OverflowError):
        jets._chain_rule(jac.scaled, f.scaled, hess.scaled, a.scaled, a.scaled)
