import sys

import pytest

import jetframes.groups as G
import jetframes.randgen as rg
from jetframes import det, is_skew, is_symmetric
from jetframes.cli import GEN_KINDS
from jetframes.randgen import (
    SplitMix64,
    rand_bilinear,
    rand_g2,
    rand_hat2,
    rand_invertible,
    rand_nonzero_skew,
    rand_tilde22,
    stream,
)


def test_splitmix_reference_stream():
    # frozen first outputs for seed 0; pins cross-platform determinism
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


MASK, GAMMA = (1 << 64) - 1, 0x9E3779B97F4A7C15


def finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def scalar_splitmix(seed: int, count: int) -> list[tuple[int, int]]:
    """(output, state after it) for the first ``count`` outputs of SplitMix64
    computed one at a time (Steele, Lea & Flood, OOPSLA 2014)."""
    s, out = seed & MASK, []
    for _ in range(count):
        s = (s + GAMMA) & MASK
        out.append((finalize(s), s))
    return out


# 0, 1 and 2**64 - 1, and a seed whose fourth state wraps to exactly 0 inside
# the first block
SEEDS = (0, 1, MASK, -4 * GAMMA & MASK)


def test_the_wrapping_seed_wraps_inside_the_first_block():
    assert scalar_splitmix(SEEDS[3], 4)[3][1] == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_block_outputs_and_states_match_the_scalar_stream(seed):
    """Every output and the state after it, across the block boundaries
    after 8, 24, 56, 120, 184, ... draws."""
    rng = SplitMix64(seed)
    assert rng._state == seed
    for u, state in scalar_splitmix(seed, 1000):
        assert (rng.next_u64(), rng._state) == (u, state)


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_randint_and_choice_read_the_scalar_stream(seed):
    rng, calls = SplitMix64(seed), 300
    spans = [(-3, 3), (-4, 4), (0, 0), (5, 1 << 70)]
    seqs = [(1, 2), "abc", range(10)]
    for k, (u, state) in enumerate(scalar_splitmix(seed, calls)):
        if k % 3 == 2:
            seq = seqs[k % len(seqs)]
            assert rng.choice(seq) == seq[u % len(seq)]
        else:
            lo, hi = spans[k % len(spans)]
            assert rng.randint(lo, hi) == lo + u % (hi - lo + 1)
        assert rng._state == state


def test_outputs_do_not_depend_on_the_byte_order(monkeypatch):
    """Blocks are unpacked as little-endian bytes whatever the platform's
    order: each lane reads as its value mod 2**64, in lane order, whatever
    its high half holds."""
    monkeypatch.setattr(sys, "byteorder",
                        "big" if sys.byteorder == "little" else "little")
    rng = SplitMix64(7)
    assert [rng.next_u64() for _ in range(200)] == [
        u for u, _ in scalar_splitmix(7, 200)]
    for b, *_, unpack in rg._PLANS:
        lanes = [(t * GAMMA) & MASK for t in range(b)]
        z = sum((v + (t + 1 << 64)) << 128 * t for t, v in enumerate(lanes))
        assert list(unpack(z.to_bytes(16 * b, "little"))) == lanes


def test_stream_derivation_is_unchanged_by_the_hash_cache():
    def fnv1a64(text):
        h = 0xCBF29CE484222325
        for byte in text.encode("utf-8"):
            h = ((h ^ byte) * 0x100000001B3) & MASK
        return h

    path = ("axioms", "mul_associative", 3, 17)
    s = finalize(42)
    for part in path:
        key = fnv1a64(part) if isinstance(part, str) else part
        s = finalize((s ^ key) + GAMMA & MASK)
    for _ in range(2):  # a miss, then a hit
        assert stream(42, *path)._state == s
    assert rg._fnv1a64.cache_info().maxsize is not None


def test_streams_are_deterministic():
    a = stream(42, "suite", "prop", 3, 17)
    b = stream(42, "suite", "prop", 3, 17)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]


def test_streams_differ_across_path():
    a = stream(42, "suite", "prop", 3, 17)
    b = stream(42, "suite", "prop", 3, 18)
    c = stream(43, "suite", "prop", 3, 17)
    va = [a.next_u64() for _ in range(4)]
    assert va != [b.next_u64() for _ in range(4)]
    assert va != [c.next_u64() for _ in range(4)]


def test_generated_elements_are_reproducible():
    x = rand_hat2(stream(7, "gen"), 3)
    y = rand_hat2(stream(7, "gen"), 3)
    assert x == y


def test_matrix_entry_ranges_and_invertibility():
    rng = stream(1, "ranges")
    for _ in range(20):
        m = rand_invertible(rng, 3)
        assert det(m) != 0
        for row in m.entries:
            for e in row:
                assert e.denominator == 1 and -3 <= e <= 3


def test_bilinear_coefficient_ranges():
    rng = stream(2, "bilranges")
    for _ in range(10):
        f = rand_bilinear(rng, 2)
        for plane in f.coeffs:
            for row in plane:
                for e in row:
                    assert e.denominator in (1, 2)
                    assert -4 <= e <= 4


def test_typed_generators_satisfy_invariants():
    rng = stream(3, "typed")
    assert is_symmetric(rand_g2(rng, 3).f)
    assert is_skew(rand_tilde22(rng, 3).h)
    assert rand_nonzero_skew(rng, 1) is None
    h = rand_nonzero_skew(rng, 2)
    assert h is not None and is_skew(h) and not h.is_zero()


def test_randint_bounds():
    rng = SplitMix64(12345)
    values = {rng.randint(-3, 3) for _ in range(200)}
    assert values <= set(range(-3, 4))
    assert len(values) == 7


def test_generators_do_not_recompute_the_determinant(monkeypatch):
    """The element and frame generators draw their matrices with
    ``rand_invertible``, which has just checked det; building from them must
    not compute it again."""

    def refuse(*args):
        raise AssertionError("determinant computed again")

    monkeypatch.setattr("jetframes.matrices.require_invertible", refuse)
    rng = stream(7, "generated", 3)
    for kind in (*G.GROUPS, "quot_class", "nonhol", "semihol", "hol"):
        assert getattr(rg, f"rand_{kind}")(rng, 3).n == 3


def test_every_draw_passes_the_constructor_check():
    """The generators build with ``_trusted``: the constructor, given the
    parts of any draw, must accept them and build the same value."""
    for kind in (*GEN_KINDS, "quot_class"):
        draw = getattr(rg, f"rand_{kind}")
        for n in range(1, 5):
            for seed in range(4):
                v = draw(stream(seed, "checked", kind, n), n)
                assert type(v)(*v.parts) == v, (kind, n, seed)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(f for f in vars(rg) if f.startswith("rand_")))
def test_generators_reject_dimensions_below_one(name, n, deadline):
    """n is the one value a generator takes from its caller: below 1 it is
    refused, never drawn forever or built into a value no constructor takes."""
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        getattr(rg, name)(stream(5, "below-one", name), n)
