import pytest

from gcdmorphic.codec import decode, encode
from gcdmorphic.core import CodePrefix, first_primes
from gcdmorphic.generator import GenParams, corrupt, generate
from gcdmorphic.validator import check_c1, check_gcd_morphic

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)


class TestGenParams:
    def test_defaults(self):
        p = GenParams(length=8, seed=0)
        assert p.primes == 20
        assert p.chains == 10
        assert p.max_exponent == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": 0, "seed": 1},
            {"length": 4, "seed": -1},
            {"length": 4, "seed": 2**64},
            {"length": 4, "seed": 1, "primes": 0},
            {"length": 4, "seed": 1, "chains": 0},
            {"length": 4, "seed": 1, "max_exponent": 0},
            {"length": True, "seed": 1},
            {"length": 4, "seed": False},
            {"length": 4, "seed": 1, "primes": True},
            {"length": 4, "seed": 1, "chains": True},
            {"length": 4, "seed": 1, "max_exponent": True},
            {"length": 4, "seed": 1, "primes": 2, "chains": 3},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GenParams(**kwargs)

    def test_primes_bound(self):
        assert GenParams(length=4, seed=1, primes=10**6).primes == 10**6
        with pytest.raises(ValueError, match="primes must be at most 1000000, got 1000001"):
            GenParams(length=4, seed=1, primes=10**6 + 1)


class TestGenerate:
    def test_length_one(self):
        code = generate(GenParams(length=1, seed=5))
        assert len(code) == 1
        assert check_c1(code) is None

    def test_reference_params_pass_both_checkers(self):
        params = GenParams(
            length=64, seed=42, primes=20, chains=10, max_exponent=2
        )
        code = generate(params)
        assert len(code) == 64
        assert check_c1(code) is None
        assert check_gcd_morphic(decode(code)) is None

    def test_deterministic(self):
        params = GenParams(length=64, seed=42)
        assert generate(params) == generate(params)

    def test_seed_changes_output(self):
        a = generate(GenParams(length=64, seed=1))
        b = generate(GenParams(length=64, seed=2))
        assert a != b

    def test_pool_exhausted(self):
        with pytest.raises(ValueError, match="chains from a pool"):
            generate(GenParams(length=8, seed=0, primes=2, chains=3))

    def test_seed_sweep_passes_c1(self):
        for seed in range(100):
            code = generate(GenParams(length=128, seed=seed))
            assert check_c1(code) is None

    def test_prime_supports_are_divisibility_chains(self):
        for seed in range(40):
            code = generate(GenParams(length=128, seed=seed))
            for q in first_primes(20):
                support = [n for n in range(1, 129) if code.code(n) % q == 0]
                for a, b in zip(support, support[1:]):
                    assert b % a == 0

    def test_exponents_respect_cap(self):
        params = GenParams(length=96, seed=11, max_exponent=3)
        code = generate(params)
        for value in code.codes:
            for q in first_primes(params.primes):
                exponent = 0
                v = value
                while v % q == 0:
                    v //= q
                    exponent += 1
                assert exponent <= params.max_exponent

    def test_round_trip_through_codec(self):
        code = generate(GenParams(length=128, seed=77))
        assert encode(decode(code)) == code


class TestCorrupt:
    def test_all_ones_plants_shared_prime(self):
        broken = corrupt(CodePrefix((1,) * 6), seed=3)
        w = check_c1(broken)
        assert w is not None
        assert w.g >= 2

    def test_naturals_code_fails_after_corruption(self):
        broken = corrupt(CodePrefix(NATURALS_CODE_17), seed=0)
        assert check_c1(broken) is not None

    def test_decoded_corruption_fails_morphic(self):
        base = generate(GenParams(length=64, seed=9))
        broken = corrupt(base, seed=10)
        assert check_c1(broken) is not None
        assert check_gcd_morphic(decode(broken)) is not None

    def test_deterministic(self):
        base = generate(GenParams(length=32, seed=4))
        assert corrupt(base, seed=8) == corrupt(base, seed=8)

    def test_witnesses_share_an_index(self):
        for seed in range(60):
            base = generate(GenParams(length=64, seed=seed))
            broken = corrupt(base, seed=seed + 1_000_000)
            c1w = check_c1(broken)
            mw = check_gcd_morphic(decode(broken))
            assert c1w is not None and mw is not None
            assert {c1w.n, c1w.k} & {mw.n, mw.m}

    def test_rejects_short_codes(self):
        with pytest.raises(ValueError):
            corrupt(CodePrefix((1, 1)), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, True, False])
    def test_rejects_seed_outside_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            corrupt(CodePrefix(NATURALS_CODE_17), seed=seed)

    def test_only_one_or_two_positions_change(self):
        base = generate(GenParams(length=48, seed=21))
        broken = corrupt(base, seed=22)
        changed = [
            n for n in range(1, 49) if base.code(n) != broken.code(n)
        ]
        assert 1 <= len(changed) <= 2
        for n in changed:
            assert broken.code(n) % base.code(n) == 0
