import random

import pytest
from hypothesis import given, settings, strategies as st

from gcdmorphic.codec import EncodeFailure, decode, encode, peel_primary
from gcdmorphic.core import (
    CodePrefix,
    PrimarySpec,
    SeqPrefix,
    pointwise_product,
    primary_prefix,
)
from gcdmorphic.validator import certify

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
FIBONACCI_12 = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
FIBONACCI_CODE_12 = (1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6)
FACTORIAL_6 = (1, 2, 6, 24, 120, 720)
FACTORIAL_CODE_6 = (1, 2, 6, 12, 120, 60)

code_values = st.one_of(st.just(1), st.integers(2, 10**6))
codes_strategy = st.lists(code_values, min_size=1, max_size=64).map(
    lambda xs: CodePrefix(tuple(xs))
)


class TestEncode:
    def test_naturals_golden(self):
        assert encode(SeqPrefix(tuple(range(1, 18)))).codes == NATURALS_CODE_17

    def test_fibonacci_golden(self):
        assert encode(SeqPrefix(FIBONACCI_12)).codes == FIBONACCI_CODE_12

    def test_all_ones(self):
        assert encode(SeqPrefix((1,) * 10)).codes == (1,) * 10

    def test_factorial_encodes_despite_not_being_morphic(self):
        assert encode(SeqPrefix(FACTORIAL_6)).codes == FACTORIAL_CODE_6

    def test_constant_sequence(self):
        assert encode(SeqPrefix((5,) * 6)).codes == (5, 1, 1, 1, 1, 1)

    def test_failure_reports_first_inexact_division(self):
        with pytest.raises(EncodeFailure) as exc_info:
            encode(SeqPrefix((1, 2, 3, 5)))
        failure = exc_info.value
        assert failure.index == 4
        assert failure.numerator == 5
        assert failure.denominator == 2
        assert failure.numerator % failure.denominator != 0

    def test_failure_is_earliest(self):
        # both index 4 (5/2) and index 6 (7/6) are inexact; 4 must win
        with pytest.raises(EncodeFailure) as exc_info:
            encode(SeqPrefix((1, 2, 3, 5, 5, 7)))
        assert exc_info.value.index == 4


class TestDecode:
    def test_naturals_golden(self):
        assert decode(CodePrefix(NATURALS_CODE_17)).terms == tuple(range(1, 18))

    def test_fibonacci_golden(self):
        assert decode(CodePrefix(FIBONACCI_CODE_12)).terms == FIBONACCI_12

    def test_single_factor_code_is_primary(self):
        codes = [1] * 12
        codes[4] = 7  # c_5 = 7
        assert decode(CodePrefix(codes)) == primary_prefix(PrimarySpec(7, 5), 12)

    def test_divisor_locality(self):
        # F_n depends only on {c_j : j | n}: perturbing c_m with m not
        # dividing n must leave F_n unchanged
        rng = random.Random(99)
        codes = [rng.choice([1, 1, 2, 3, 5, 7]) for _ in range(40)]
        base = decode(CodePrefix(codes))
        for _ in range(50):
            m = rng.randint(2, 40)
            mutated = list(codes)
            mutated[m - 1] *= rng.choice([2, 3, 11])
            got = decode(CodePrefix(mutated))
            for n in range(1, 41):
                if n % m != 0:
                    assert got.term(n) == base.term(n)


class TestRoundTrips:
    @settings(max_examples=150)
    @given(codes_strategy)
    def test_encode_after_decode_is_identity(self, code):
        assert encode(decode(code)) == code

    def test_decode_after_encode_when_encode_succeeds(self):
        for terms in (
            tuple(range(1, 18)),
            FIBONACCI_12,
            FACTORIAL_6,  # encode succeeds here even though not morphic
            (5,) * 9,
            (1,) * 7,
        ):
            f = SeqPrefix(terms)
            assert decode(encode(f)) == f

    def test_random_codes_with_large_values(self):
        rng = random.Random(1234)
        for _ in range(40):
            length = rng.randint(1, 96)
            codes = tuple(
                1 if rng.random() < 0.7 else rng.randint(2, 10**24)
                for _ in range(length)
            )
            code = CodePrefix(codes)
            assert encode(decode(code)) == code


class TestPeelPrimary:
    def test_worked_example(self):
        spec, peeled = peel_primary(SeqPrefix((1, 2, 3, 4, 5, 6, 7, 8)), 2)
        assert spec == PrimarySpec(2, 2)
        assert peeled.terms == (1, 1, 3, 2, 5, 3, 7, 4)
        reconstructed = pointwise_product(primary_prefix(spec, 8), peeled)
        assert reconstructed.terms == (1, 2, 3, 4, 5, 6, 7, 8)

    def test_all_ones_identity(self):
        ones = SeqPrefix((1,) * 6)
        spec, peeled = peel_primary(ones, 1)
        assert spec == PrimarySpec(1, 1)
        assert peeled == ones

    def test_primary_input_peels_to_ones(self):
        f = SeqPrefix((1, 1, 1, 5, 1, 1, 1, 5))
        spec, peeled = peel_primary(f, 4)
        assert spec == PrimarySpec(5, 4)
        assert peeled.terms == (1,) * 8

    def test_hypothesis_violated(self):
        with pytest.raises(ValueError, match="but term 1 is 2"):
            peel_primary(SeqPrefix((2, 3)), 2)

    def test_not_divisible(self):
        with pytest.raises(EncodeFailure) as exc_info:
            peel_primary(SeqPrefix((1, 2, 1, 3)), 2)
        exc = exc_info.value
        assert (exc.index, exc.numerator, exc.denominator) == (4, 3, 2)
        assert str(exc) == "term 4: 3 is not divisible by 2"

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            peel_primary(SeqPrefix((1, 2)), 3)
        with pytest.raises(ValueError):
            peel_primary(SeqPrefix((1, 2)), 0)

    @settings(max_examples=80)
    @given(codes_strategy)
    def test_iterated_peeling_agrees_with_encoder(self, code):
        f = decode(code)
        current = f
        specs = []
        for n in range(1, len(f) + 1):
            spec, peeled = peel_primary(current, n)
            assert pointwise_product(primary_prefix(spec, len(f)), peeled) == current
            specs.append(spec)
            current = peeled
        assert tuple(s.value for s in specs) == encode(f).codes
        assert tuple(s.period for s in specs) == tuple(range(1, len(f) + 1))
        assert current.terms == (1,) * len(f)


def test_failure_with_a_value_over_the_digit_limit_is_still_data():
    # 5001 digits, over CPython's default int-to-str limit of 4300
    wide = 10**5000 + 1
    with pytest.raises(EncodeFailure) as exc_info:
        encode(SeqPrefix((2, wide)))
    assert (exc_info.value.index, exc_info.value.numerator) == (2, wide)
    with pytest.raises(EncodeFailure) as exc_info:
        peel_primary(SeqPrefix((1, 2, 1, wide)), 2)
    assert (exc_info.value.index, exc_info.value.numerator) == (4, wide)
    cert = certify(SeqPrefix((2, wide)))
    assert cert.encode_failure.index == 2
    assert cert.consistent
