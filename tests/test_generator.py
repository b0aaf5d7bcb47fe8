import pytest

from gcdmorphic.codec import decode, encode
from gcdmorphic.core import CodePrefix
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import check_c1, check_gcd_morphic

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
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

    def test_reference_params_pass_both_checkers(self):
        code = generate(64, 42)
        assert len(code) == 64
        assert check_c1(code) is None
        assert check_gcd_morphic(decode(code)) is None

    def test_deterministic(self):
        assert generate(64, 42) == generate(64, 42)

    def test_seed_changes_output(self):
        a = generate(64, 1)
        b = generate(64, 2)
        assert a != b

    def test_seed_sweep_passes_c1(self):
        for seed in range(100):
            code = generate(128, seed)
            assert check_c1(code) is None

    def test_prime_supports_are_divisibility_chains(self):
        for seed in range(40):
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
    def test_all_ones_plants_shared_prime(self):
        broken = corrupt(CodePrefix((1,) * 6), seed=3)
        w = check_c1(broken)
        assert w is not None
        assert w.g >= 2

    def test_naturals_code_fails_after_corruption(self):
        broken = corrupt(CodePrefix(NATURALS_CODE_17), seed=0)
        assert check_c1(broken) is not None

    def test_decoded_corruption_fails_morphic(self):
        base = generate(64, 9)
        broken = corrupt(base, seed=10)
        assert check_c1(broken) is not None
        assert check_gcd_morphic(decode(broken)) is not None

    def test_deterministic(self):
        base = generate(32, 4)
        assert corrupt(base, seed=8) == corrupt(base, seed=8)

    def test_witnesses_share_an_index(self):
        for seed in range(60):
            base = generate(64, seed)
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
        base = generate(48, 21)
        broken = corrupt(base, seed=22)
        changed = [
            n for n in range(1, 49) if base.code(n) != broken.code(n)
        ]
        assert 1 <= len(changed) <= 2
        for n in changed:
            assert broken.code(n) % base.code(n) == 0
