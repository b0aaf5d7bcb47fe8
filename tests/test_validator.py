import random
from math import gcd as _gcd, log2, prod

import pytest
from hypothesis import given, settings, strategies as st

from gcdmorphic import validator
from gcdmorphic.catalog import emit
from gcdmorphic.codec import decode, encode
from gcdmorphic.core import CodePrefix, PrimarySpec, SeqPrefix, primary_prefix
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import (
    C1Witness,
    MorphicWitness,
    certify,
    check_c1,
    check_gcd_morphic,
)

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
FACTORIAL_CODE_6 = (1, 2, 6, 12, 120, 60)


def first_c1_violation(codes):
    # independent oracle: exhaustive scan in witness order
    for n in range(1, len(codes) + 1):
        for k in range(1, n):
            if _gcd(n, k) != k and _gcd(codes[n - 1], codes[k - 1]) > 1:
                return n, k
    return None


def reference_check_c1(c):
    # the pairwise scan check_c1 replaced: every incomparable pair k < n
    codes = c.codes
    for n in range(2, len(codes) + 1):
        cn = codes[n - 1]
        if cn == 1:
            continue
        for k in range(1, n):
            if n % k and _gcd(cn, codes[k - 1]) > 1:
                return C1Witness(n, k, _gcd(cn, codes[k - 1]))
    return None


def assert_c1_routes_agree(codes):
    got = check_c1(CodePrefix(codes))
    assert got == reference_check_c1(CodePrefix(codes))
    first = first_c1_violation(codes)
    if first is None:
        assert got is None
    else:
        n, k = first
        assert got == C1Witness(n, k, _gcd(codes[n - 1], codes[k - 1]))
    return got


def first_morphic_violation(terms):
    for n in range(1, len(terms) + 1):
        for m in range(1, n + 1):
            if _gcd(terms[n - 1], terms[m - 1]) != terms[_gcd(n, m) - 1]:
                return n, m
    return None


class TestCheckC1:
    def test_naturals_code_passes(self):
        assert check_c1(CodePrefix(NATURALS_CODE_17)) is None

    def test_factorial_code_fails_at_3_2(self):
        w = check_c1(CodePrefix(FACTORIAL_CODE_6))
        assert w == C1Witness(n=3, k=2, g=2)
        assert first_c1_violation(FACTORIAL_CODE_6) == (3, 2)

    def test_all_ones_passes(self):
        assert check_c1(CodePrefix((1,) * 12)) is None

    def test_witness_is_lexicographically_smallest(self):
        # violations at (3,2), (5,2) and (5,3); scan order must pick (3,2)
        codes = (1, 6, 10, 1, 15)
        w = check_c1(CodePrefix(codes))
        assert (w.n, w.k) == (3, 2)
        assert first_c1_violation(codes) == (3, 2)

    def test_divisible_pairs_are_exempt(self):
        # shared factors along a divisibility chain are allowed
        assert check_c1(CodePrefix((1, 2, 1, 4, 1, 1, 1, 8))) is None

    def test_c1_never_constrains_first_code(self):
        assert check_c1(CodePrefix((6, 2, 3, 5))) is None

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(7)
        for _ in range(200):
            codes = tuple(rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 24)))
            got = check_c1(CodePrefix(codes))
            expected = first_c1_violation(codes)
            if expected is None:
                assert got is None
            else:
                assert (got.n, got.k) == expected
                assert got.g == _gcd(codes[got.n - 1], codes[got.k - 1])


_small_codes = st.lists(st.sampled_from((1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 35)), max_size=40)
# pairwise gcd(2**a - 1, 2**b - 1) = 2**gcd(a, b) - 1, so exponents decide C1;
# entries this wide send the remainder tree through _mod's recursive path
_wide_code = st.one_of(st.just(1), st.integers(4001, 9000).map(lambda a: 2**a - 1))
_catalog_code = st.builds(
    lambda name, length: encode(emit(name, length)).codes,
    st.sampled_from(("fibonacci", "mersenne", "factorial", "naturals", "radical")),
    st.integers(1, 600),
)
_skew_base = st.one_of(
    # dense codes this long make the moduli that share the planted prime
    # narrow against the running product, so _mod's recursive path runs
    st.builds(
        lambda name, length: encode(emit(name, length)).codes,
        st.sampled_from(("fibonacci", "mersenne")),
        st.integers(300, 450),
    ),
    st.builds(
        lambda name, length: encode(emit(name, length)).codes,
        st.sampled_from(("naturals", "radical")),
        st.integers(4, 300),
    ),
    st.builds(
        lambda length, seed: generate(length, seed).codes,
        st.integers(4, 300),
        st.integers(0, 2**64 - 1),
    ),
)


def _skewed(codes, index, p, bits, seed):
    # one code at a small index made wider than _BZ_BITS by a prime power,
    # still inside the CLI's 4300-digit bound; with a seed, corrupt then
    # plants a shared prime on an incomparable pair
    codes = list(codes)
    codes[index - 1] *= p ** (1 + int(bits / log2(p)))
    skewed = CodePrefix(codes)
    return (skewed if seed is None else corrupt(skewed, seed)).codes


_skewed_code = st.builds(
    _skewed,
    _skew_base,
    st.integers(2, 4),
    st.sampled_from((2, 3, 5, 7, 11)),
    st.integers(4001, 12000),
    st.none() | st.integers(0, 2**64 - 1),
)
_corrupted_code = st.builds(
    lambda name, length, seed: corrupt(encode(emit(name, length)), seed).codes,
    st.sampled_from(("fibonacci", "mersenne", "naturals")),
    st.integers(3, 400),
    st.integers(0, 2**64 - 1),
)


class TestCheckC1Differential:
    """check_c1 against the pairwise scan it replaced and the exhaustive oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(2, 60), _small_codes).map(lambda t: (t[0], *t[1])),
            _small_codes.filter(bool).map(tuple),
            st.integers(1, 64).map(lambda length: (1,) * length),
            st.lists(st.integers(1, 30), min_size=1, max_size=3).map(tuple),
            st.lists(_wide_code, min_size=1, max_size=12).map(tuple),
            _catalog_code,
            _corrupted_code,
            _skewed_code,
        )
    )
    def test_three_routes_agree(self, codes):
        assert_c1_routes_agree(codes)

    def test_skewed_code_reaches_recursive_division(self, monkeypatch):
        calls = []
        div3n2n = validator._div3n2n
        monkeypatch.setattr(validator, "_div3n2n", lambda *a: calls.append(1) or div3n2n(*a))
        # Mersenne carries 3 at 2, 6, 18, 54, 162: those moduli keep 3**5048
        codes = _skewed(encode(emit("mersenne", 400)).codes, 2, 3, 8000, None)
        assert assert_c1_routes_agree(codes) is None
        assert calls

    @pytest.mark.parametrize("planted", [False, True])
    def test_code_beyond_cli_bound_at_index_2(self, planted):
        # 3**200000 has about 95000 digits: a library-only input. Fibonacci
        # carries 3 exactly at the multiples of 4, so c_2 * 3**200000 keeps
        # (C1); a 3 planted at index 3 breaks it there.
        codes = list(encode(emit("fibonacci", 600)).codes)
        codes[1] *= 3**200000
        if planted:
            codes[2] *= 3
        got = check_c1(CodePrefix(codes))
        assert got == reference_check_c1(CodePrefix(codes))
        assert got == (C1Witness(3, 2, 3) if planted else None)

    def test_wide_codes_reach_recursive_division(self, monkeypatch):
        calls = []
        div3n2n = validator._div3n2n
        monkeypatch.setattr(validator, "_div3n2n", lambda *a: calls.append(1) or div3n2n(*a))
        codes = (1, 2**4001 - 1, 2**4003 - 1, 2**4007 - 1, 2**4013 - 1, 2**4019 - 1)
        assert assert_c1_routes_agree(codes) is None
        assert calls

    @pytest.mark.parametrize("name", ["fibonacci", "mersenne"])
    def test_corrupted_witness_in_first_middle_and_last_block(self, monkeypatch, name):
        # log the leaf count of each remainder tree check_c1 builds
        sizes = []
        residues = validator._residues
        monkeypatch.setattr(
            validator, "_residues", lambda *args: sizes.append(len(args[2][0])) or residues(*args)
        )
        base = encode(emit(name, 300))
        assert check_c1(base) is None
        assert len(sizes) >= 3
        seen = set()
        for seed in range(64):
            codes = corrupt(base, seed).codes
            sizes.clear()
            assert check_c1(CodePrefix(codes)) is not None
            if len(sizes) == 1:
                seen.add("first")
            elif sum(sizes) == sum(1 for c in codes[1:] if c != 1):
                seen.add("last")
            else:
                seen.add("middle")
            assert_c1_routes_agree(codes)
        assert seen == {"first", "middle", "last"}


def smooth_part_by_trial_division(d, c):
    s, p = 1, 2
    while c > 1:
        if c % p == 0:
            while c % p == 0:
                c //= p
            while d % p == 0:
                d //= p
                s *= p
        p += 1
    return s


def _smooth_numbers(max_primes, max_cofactor):
    # many small prime powers times a cofactor, so that d and c share primes
    primes = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), max_size=max_primes)
    return st.builds(lambda ps, m: prod(ps) * m, primes, st.integers(1, max_cofactor))


class TestSmoothPart:
    """validator._smooth_part, the divisor of D_n that the moduli keep."""

    @settings(max_examples=300, deadline=None)
    @given(_smooth_numbers(60, 10**4), _smooth_numbers(6, 100))
    def test_matches_trial_division(self, d, c):
        assert validator._smooth_part(d, c) == smooth_part_by_trial_division(d, c)

    @pytest.mark.parametrize(
        "d, c, expected",
        [
            (1, 1, 1),
            (12, 1, 1),
            (1, 12, 1),
            (2**10 * 3**4 * 5, 6, 2**10 * 3**4),
            (2**10 * 3**4 * 5, 2**3, 2**10),
            (7**3 * 11, 7**5 * 13, 7**3),
        ],
    )
    def test_examples(self, d, c, expected):
        assert validator._smooth_part(d, c) == expected

    def test_prime_power_takes_logarithmic_rounds(self, monkeypatch):
        # dividing out one g per round would take 200000 rounds here;
        # squaring g takes about log2(200000) = 18
        calls = []

        def counted_gcd(*args):
            calls.append(1)
            assert len(calls) <= 48, "more gcd rounds than squaring allows"
            return _gcd(*args)

        monkeypatch.setattr(validator, "gcd", counted_gcd)
        assert validator._smooth_part(3**200000 * 5**7 * 7, 15) == 3**200000 * 5**7


class TestMod:
    """validator._mod, the wide-operand reduction, against builtin %."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40000), st.integers(1, 20000), st.randoms(use_true_random=False))
    def test_matches_builtin(self, a_bits, b_bits, rnd):
        b = rnd.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rnd.getrandbits(a_bits)
        for x in (a, a % b, b * a, b * a + b - 1, b - 1):
            assert validator._mod(x, b) == x % b
        p = 1 << (b_bits - 1)
        assert validator._mod(a, p) == a % p

    @pytest.mark.parametrize("b_bits", [4001, 8001, 8003, 12345, 16001])
    @pytest.mark.parametrize("a_bits", [1, 9000, 30001])
    def test_odd_split_widths(self, a_bits, b_bits):
        rng = random.Random(a_bits * b_bits)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rng.getrandbits(a_bits) | 1 << (a_bits - 1)
        assert validator._mod(a, b) == a % b
        assert validator._mod(a * b, b) == 0
        assert validator._mod(a * b + 1, b) == 1


class TestCheckGcdMorphic:
    def test_fibonacci_passes(self):
        assert check_gcd_morphic(emit("fibonacci", 12)) is None

    def test_factorial_fails_at_3_2(self):
        w = check_gcd_morphic(emit("factorial", 6))
        assert w == MorphicWitness(n=3, m=2, got=2, expected=1)
        assert first_morphic_violation((1, 2, 6, 24, 120, 720)) == (3, 2)

    def test_constant_passes(self):
        assert check_gcd_morphic(SeqPrefix((7, 7, 7, 7))) is None

    def test_truncation_monotonicity(self):
        fib = emit("fibonacci", 64)
        assert check_gcd_morphic(fib) is None
        for length in (1, 5, 13, 40):
            assert check_gcd_morphic(SeqPrefix(fib.terms[:length])) is None

    def test_matches_oracle_on_random_prefixes(self):
        rng = random.Random(13)
        for _ in range(150):
            terms = tuple(rng.choice([1, 2, 3, 4, 6, 12]) for _ in range(rng.randint(1, 18)))
            got = check_gcd_morphic(SeqPrefix(terms))
            expected = first_morphic_violation(terms)
            if expected is None:
                assert got is None
            else:
                assert (got.n, got.m) == expected

    def test_observation_primary_is_morphic(self):
        for value, period in ((1, 1), (2, 2), (6, 4), (30, 7), (50, 20)):
            prefix = primary_prefix(PrimarySpec(value, period), 100)
            assert check_gcd_morphic(prefix) is None


class TestCertify:
    def test_fibonacci_all_pass(self):
        cert = certify(emit("fibonacci", 12))
        assert cert.code is not None
        assert cert.encode_failure is None
        assert cert.c1_witness is None
        assert cert.morphic_witness is None
        assert cert.consistent
        assert cert.ok

    def test_factorial_encode_succeeds_but_both_checks_fail(self):
        cert = certify(emit("factorial", 6))
        assert cert.code is not None and cert.code.codes == FACTORIAL_CODE_6
        assert (cert.c1_witness.n, cert.c1_witness.k) == (3, 2)
        assert (cert.morphic_witness.n, cert.morphic_witness.m) == (3, 2)
        assert cert.consistent
        assert not cert.ok

    def test_naturals_all_pass(self):
        cert = certify(emit("naturals", 17))
        assert cert.ok and cert.consistent
        assert cert.code.codes == NATURALS_CODE_17

    def test_encode_failure_recorded_as_data(self):
        cert = certify(SeqPrefix((1, 2, 3, 5)))
        assert cert.code is None
        assert cert.encode_failure is not None
        assert cert.encode_failure.index == 4
        assert cert.morphic_witness is not None
        assert cert.consistent
        assert not cert.ok


class TestLemmaTwoBothWays:
    def test_forward_c1_pass_implies_morphic(self):
        # random sparse codes filtered to C1-passing, then decoded
        rng = random.Random(42)
        checked = 0
        while checked < 60:
            length = rng.randint(1, 128)
            codes = tuple(
                rng.choice([2, 3, 5, 7, 9, 11]) if rng.random() < 0.08 else 1
                for _ in range(length)
            )
            code = CodePrefix(codes)
            if check_c1(code) is not None:
                continue
            assert check_gcd_morphic(decode(code)) is None
            checked += 1

    def test_converse_morphic_implies_encodable_and_c1(self):
        for name in ("ones", "naturals", "fibonacci", "mersenne", "radical"):
            f = emit(name, 64)
            assert check_gcd_morphic(f) is None
            code = encode(f)  # must not raise
            assert check_c1(code) is None

    def test_contrapositive_single_corruption_breaks_both(self):
        f = emit("naturals", 17)
        codes = list(encode(f).codes)
        # plant a shared prime at incomparable indices 5 and 7
        codes[4] *= 13
        codes[6] *= 13
        broken = CodePrefix(codes)
        assert check_c1(broken) is not None
        assert check_gcd_morphic(decode(broken)) is not None
