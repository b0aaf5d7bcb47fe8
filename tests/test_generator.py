import random
from math import gcd

import pytest
from conftest import NATURALS_CODE_17
from hypothesis import given, settings, strategies as st

from gcdmorphic import generator
from gcdmorphic.codec import decode, encode
from gcdmorphic.core import CodePrefix
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import check_c1

POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


class TestGenerate:
    @pytest.mark.parametrize(
        "length, seed",
        [(0, 1), (4, -1), (4, 2**64), (True, 1), (4, False)],
    )
    def test_rejects_invalid(self, length, seed):
        with pytest.raises(ValueError):
            generate(length, seed)

    def test_length_one(self):
        code = generate(1, 5)
        assert len(code) == 1
        assert check_c1(code) is None

    def test_deterministic(self):
        assert generate(64, 42) == generate(64, 42)

    def test_seed_changes_output(self):
        a = generate(64, 1)
        b = generate(64, 2)
        assert a != b

    @pytest.mark.parametrize("seed", range(40))
    def test_prime_supports_are_divisibility_chains(self, seed):
        code = generate(128, seed)
        for q in POOL:
            support = [n for n in range(1, 129) if code.code(n) % q == 0]
            for a, b in zip(support, support[1:]):
                assert b % a == 0

    def test_exponents_respect_cap(self):
        code = generate(96, 11)
        for value in code.codes:
            for q in POOL:
                exponent = 0
                v = value
                while v % q == 0:
                    v //= q
                    exponent += 1
                assert exponent <= 2

    def test_round_trip_through_codec(self):
        code = generate(128, 77)
        assert encode(decode(code)) == code


class TestCorrupt:
    def test_deterministic(self):
        base = generate(32, 4)
        assert corrupt(base, seed=8) == corrupt(base, seed=8)

    def test_rejects_short_codes(self):
        with pytest.raises(ValueError):
            corrupt(CodePrefix((1, 1)), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, False])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            corrupt(CodePrefix(NATURALS_CODE_17), seed=seed)

    def test_only_one_or_two_positions_change(self):
        base = generate(48, 21)
        broken = corrupt(base, seed=22)
        changed = [
            n for n in range(1, 49) if base.code(n) != broken.code(n)
        ]
        assert 1 <= len(changed) <= 2
        for n in changed:
            assert broken.code(n) % base.code(n) == 0


def reference_corrupt(c, seed):
    # the partner scan corrupt replaced: a gcd at every incomparable index
    length = len(c)
    if length < 3:
        raise ValueError(f"need at least 3 codes to corrupt, got {length}")
    generator._check_seed(seed)
    rng = random.Random(seed)
    codes = list(c.codes)
    k = rng.randint(2, length)
    partners = [n for n in range(2, length + 1) if n != k and n % k and k % n]
    carried = [g for g in (gcd(codes[n - 1], generator._PRIMORIAL) for n in partners) if g > 1]
    if carried:
        g = carried[rng.randrange(len(carried))]
        q = next(p for p in generator._FACTOR_PRIMES if g % p == 0)
        codes[k - 1] *= q
    else:
        n0 = partners[rng.randrange(len(partners))]
        q = generator._PLANT_PRIMES[rng.randrange(len(generator._PLANT_PRIMES))]
        codes[n0 - 1] *= q
        codes[k - 1] *= q
    return CodePrefix(tuple(codes))


seeds = st.integers(0, 2**64 - 1)
lengths = st.integers(3, 300)
# non-units whose every prime is above corrupt's bound of 1000
above_bound = st.sampled_from((1, 1, 1, 1009, 1013, 1009 * 1013, 1019**2))


def seed_picking_last_index(length, start):
    # the first seed from start whose corrupt draws k = length
    return next(s for s in range(start, start + 100 * length)
                if random.Random(s).randint(2, length) == length)


class TestCorruptDifferential:
    @settings(max_examples=150, deadline=None)
    @given(lengths, seeds, seeds)
    def test_generated_codes(self, length, gen_seed, seed):
        code = generate(length, gen_seed)
        assert corrupt(code, seed) == reference_corrupt(code, seed)

    @settings(max_examples=100, deadline=None)
    @given(lengths, seeds)
    def test_all_unit_codes_take_the_fallback(self, length, seed):
        code = CodePrefix((1,) * length)
        broken = corrupt(code, seed)
        assert broken == reference_corrupt(code, seed)
        assert sum(v != 1 for v in broken.codes) == 2
        assert check_c1(broken) is not None  # the two share a prime

    @settings(max_examples=100, deadline=None)
    @given(st.lists(above_bound, min_size=3, max_size=300), seeds)
    def test_only_primes_above_the_bound(self, values, seed):
        code = CodePrefix(tuple(values))
        assert corrupt(code, seed) == reference_corrupt(code, seed)

    @settings(max_examples=100, deadline=None)
    @given(lengths, st.integers(0, 2**32), st.sampled_from(("generated", "units", "above")),
           st.data())
    def test_k_is_length(self, length, start, kind, data):
        if kind == "generated":
            code = generate(length, start)
        elif kind == "units":
            code = CodePrefix((1,) * length)
        else:
            code = CodePrefix(tuple(data.draw(st.lists(above_bound, min_size=length,
                                                       max_size=length))))
        seed = seed_picking_last_index(length, start)
        broken = corrupt(code, seed)
        assert broken == reference_corrupt(code, seed)
        assert broken.code(length) != code.code(length)

    def test_generated_length_1e5(self):
        code = generate(100_000, 1)
        for seed in (1, 2, 3):
            assert corrupt(code, seed) == reference_corrupt(code, seed)
