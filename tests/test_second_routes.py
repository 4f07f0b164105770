"""The independent second routes: the jet calculus of ``jets`` and the raw
coordinate law ``groups.mul_t1n_coordinate``.

They exist to cross-check the contraction kernel ``_scaled.s_law``, so they
must not call it, and they must agree with the kernel routes on the wide
coefficients of library use (products of three draws), not only on the
single draws the suites use.
"""

import ast
from pathlib import Path

import pytest

from exact_oracles import ref_mul_t1n_coordinate
from jetframes import _scaled, bilinear, frames, groups, jets, matrices
from jetframes import randgen as rg


def _product(gen, mul, rng, n, factors=3):
    x = gen(rng, n)
    for _ in range(factors - 1):
        x = mul(x, gen(rng, n))
    return x


# ---------------------------------------------------------------------------
# independence from the contraction kernel


class KernelCalled(Exception):
    pass


def _refuse(*terms):
    raise KernelCalled("s_law was called")


def _route_calls(rng, n):
    """One call of each independent route on draws at ``n``."""
    x0, x1, x2 = (rg.rand_point(rng, n) for _ in range(3))
    inner = rg.rand_map2jet(rng, n, base=x0, value=x1)
    outer = rg.rand_map2jet(rng, n, base=x1, value=x2)
    q = rg.rand_nonhol(rng, n)
    F = rg.rand_map2jet(rng, n, base=q.x)
    p, r = rg.rand_g2(rng, n), rg.rand_g2(rng, n)
    s, t = rg.rand_t1n(rng, n), rg.rand_t1n(rng, n)
    return [
        lambda: jets.compose_2jets(outer, inner),
        lambda: jets.left_act_diffeo(F, q),
        lambda: jets.g2_law_via_jets(p, r),
        lambda: groups.mul_t1n_coordinate(s, t),
    ], (s, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_routes_give_the_same_values_without_the_kernel(n, monkeypatch):
    calls, (s, t) = _route_calls(rg.stream(150, "no-kernel", n), n)
    before = [call() for call in calls]
    monkeypatch.setattr(_scaled, "s_law", _refuse)
    with pytest.raises(KernelCalled):
        groups.mul_t1n(s, t)  # the patch reaches the kernel routes
    assert [call() for call in calls] == before


def _imported_modules(path: Path) -> list[str]:
    """Every module the file imports, or imports a name from, as an absolute
    dotted name (``from . import x`` in ``jetframes`` gives ``jetframes.x``:
    x may be a module)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # jets.py sits in the package itself
                base = f"jetframes.{base}" if base else "jetframes"
            found.append(base)
            found += [f"{base}.{alias.name}" for alias in node.names]
    return found


def test_jets_imports_nothing_from_the_kernel_module():
    modules = _imported_modules(Path(jets.__file__))
    assert "jetframes.bilinear" in modules  # the reader sees relative imports
    assert not [m for m in modules
                if m == "jetframes._scaled" or m.startswith("jetframes._scaled.")]


# ---------------------------------------------------------------------------
# the coordinate law against its plain Fraction loops


def test_coordinate_law_equals_the_fraction_loops_on_draws():
    rng = rg.stream(151, "coord-draws")
    for n in (1, 2, 3, 4):
        for _ in range(5):
            x, y = rg.rand_t1n(rng, n), rg.rand_t1n(rng, n)
            assert groups.mul_t1n_coordinate(x, y) == ref_mul_t1n_coordinate(x, y)


def test_coordinate_law_equals_the_fraction_loops_on_products():
    rng = rg.stream(152, "coord-products")
    for n in (1, 2, 3):
        for _ in range(3):
            x = _product(rg.rand_t1n, groups.mul_t1n, rng, n)
            y = _product(rg.rand_t1n, groups.mul_t1n, rng, n)
            assert groups.mul_t1n_coordinate(x, y) == ref_mul_t1n_coordinate(x, y)


# ---------------------------------------------------------------------------
# wide coefficients: products of three draws, as the ops-large benchmark
# builds its inputs


WIDE_NS = [6, 8, 12]


@pytest.mark.parametrize("n", WIDE_NS)
def test_action_equals_the_group_algebra_route_on_wide_coefficients(n):
    rng = rg.stream(153, "wide-act", n)
    g = _product(rg.rand_g2, groups.mul_g2, rng, n)
    til = _product(rg.rand_tilde2, groups.mul_tilde2, rng, n)
    q = frames.act_nonhol(rg.rand_nonhol(rng, n), til)
    jet = jets.Map2Jet(q.x, rg.rand_point(rng, n), g.a, g.f)
    f = (bilinear.post_compose(jet.jac, q.f)
         + bilinear.pre_compose(jet.hess, q.a, q.b))
    expected = frames.NonHolFrame(jet.value, matrices.mat_mul(jet.jac, q.a),
                                  matrices.mat_mul(jet.jac, q.b), f)
    assert jets.left_act_diffeo(jet, q) == expected


@pytest.mark.parametrize("n", WIDE_NS)
def test_jet_law_equals_the_group_law_on_wide_coefficients(n):
    rng = rg.stream(154, "wide-g2", n)
    p = _product(rg.rand_g2, groups.mul_g2, rng, n)
    q = _product(rg.rand_g2, groups.mul_g2, rng, n)
    assert jets.g2_law_via_jets(p, q) == groups.mul_g2(p, q)


@pytest.mark.parametrize("n", WIDE_NS)
def test_coordinate_law_equals_the_structural_law_on_wide_coefficients(n):
    rng = rg.stream(155, "wide-t1n", n)
    x = _product(rg.rand_t1n, groups.mul_t1n, rng, n)
    y = _product(rg.rand_t1n, groups.mul_t1n, rng, n)
    assert groups.mul_t1n_coordinate(x, y) == groups.mul_t1n(x, y)
