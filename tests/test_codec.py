import random
import tracemalloc
from itertools import compress

import pytest
from conftest import FIBONACCI_CODE_12, NATURALS_CODE_17, digit_limit
from hypothesis import given, settings, strategies as st

from gcdmorphic import catalog, codec
from gcdmorphic.codec import EncodeFailure, decode, encode, peel_primary
from gcdmorphic.core import (
    CodePrefix,
    PrimarySpec,
    SeqPrefix,
    pointwise_product,
    primary_prefix,
)
from gcdmorphic.generator import generate
from gcdmorphic.validator import certify

FIBONACCI_12 = (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
FACTORIAL_6 = (1, 2, 6, 24, 120, 720)

code_values = st.one_of(st.just(1), st.integers(2, 10**6))
codes_strategy = st.lists(code_values, min_size=1, max_size=64).map(
    lambda xs: CodePrefix(tuple(xs))
)


class TestEncode:
    def test_all_ones(self):
        assert encode(SeqPrefix((1,) * 10)).codes == (1,) * 10

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


def reference_encode(f):
    # the per-index loop encode replaced: a divmod at every index, and every
    # non-unit code updates its multiples, even past L/2 where there are none
    length = len(f)
    codes = []
    denoms = [1] * (length + 1)
    for n, fn in enumerate(f.terms, start=1):
        q, r = divmod(fn, denoms[n])
        if r:
            raise EncodeFailure(n, fn, denoms[n])
        codes.append(q)
        if q != 1:
            for m in range(2 * n, length + 1, n):
                denoms[m] *= q
    return CodePrefix(tuple(codes))


def encode_outcome(fn, f):
    # the code, or the fields of the EncodeFailure
    try:
        return fn(f).codes
    except EncodeFailure as exc:
        return exc.index, exc.numerator, exc.denominator


WIDE = 10**4400 + 7  # 4401 digits, over CPython's default int-to-str limit
# (position, factor, addend): term i becomes term_i * factor + addend
edits = st.lists(
    st.tuples(st.integers(0, 10**6), st.sampled_from((1, 2, 3, 1009, WIDE)), st.integers(0, 1)),
    max_size=4,
)


class TestEncodeDifferential:
    # lengths past 1024 reach encode's runs of full length
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 400) | st.integers(1000, 5000), st.integers(0, 2**64 - 1), edits)
    def test_perturbed_generated_sequences(self, length, seed, changes):
        terms = list(decode(generate(length, seed)).terms)
        for pos, factor, addend in changes:
            terms[pos % length] = terms[pos % length] * factor + addend
        f = SeqPrefix(tuple(terms))
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 60), min_size=1, max_size=80))
    def test_arbitrary_sequences(self, terms):
        f = SeqPrefix(tuple(terms))
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f)

    def test_wide_failure_fields(self):
        f = SeqPrefix((1, WIDE, 1, WIDE * 2 + 1))
        assert encode_outcome(encode, f) == (4, WIDE * 2 + 1, WIDE)
        assert encode_outcome(reference_encode, f) == (4, WIDE * 2 + 1, WIDE)

    def test_generated_length_1e5(self):
        f = decode(generate(100_000, 1))
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f)


class TestEncodeAroundHalfTheLength:
    # only n <= L/2 has a multiple in range, so encode updates denominators
    # for those alone; the codes sit on both sides of that edge
    @pytest.mark.parametrize("length", [2, 3, 10, 11, 1000, 1001])
    @pytest.mark.parametrize("value", [2, 35, WIDE], ids=["2", "35", "wide"])
    def test_codes_at_half_and_past_it(self, length, value):
        half = length // 2
        codes = [1] * length
        for n in (half, half + 1, length):
            codes[n - 1] = value
        code = CodePrefix(tuple(codes))
        f = decode(code)
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f) == code.codes

    @pytest.mark.parametrize("length", [2, 3, 10, 11, 1000, 1001])
    def test_failure_past_half_with_a_factor_from_half(self, length):
        # F at 2 * half, past L/2, loses its divisibility by c_half
        half = length // 2
        codes = [1] * length
        codes[half - 1] = 35
        codes[half] = 3
        terms = list(decode(CodePrefix(tuple(codes))).terms)
        terms[2 * half - 1] += 1
        f = SeqPrefix(tuple(terms))
        failure = (2 * half, terms[2 * half - 1], 35)
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f) == failure


# encode's runs start at powers of two up to 1024, then every 1024 indices: n = 2^j - 1,
# 2^j and 2^j + 1 end one run, start the next and follow its start, as 1024 k - 1, 1024 k
# and 1024 k + 1 do
RUN_EDGES = sorted({n for j in range(1, 12) for n in (2**j - 1, 2**j, 2**j + 1)}
                   | {n for k in (2, 3) for n in (1024 * k - 1, 1024 * k, 1024 * k + 1)})


def code_at(length, value, indices):
    codes = [1] * length
    for n in indices:
        codes[n - 1] = value
    return CodePrefix(tuple(codes))


class TestEncodeRuns:
    # a run n0 <= n < 2 n0, at most 1024 long, holds no proper divisor of its indices
    @pytest.mark.parametrize("value", [2, 35])
    def test_codes_at_run_edges(self, value):
        code = code_at(4000, value, RUN_EDGES)
        f = decode(code)
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f) == code.codes

    @pytest.mark.parametrize("planted", ["plus one", "one"])
    def test_failures_at_run_edges(self, planted):
        # c_1 = 35 puts 35 in every denominator past n = 1, so F_n + 1 and 1 both fail
        terms = decode(code_at(4000, 35, RUN_EDGES)).terms
        for n in RUN_EDGES[1:]:
            changed = list(terms)
            changed[n - 1] = terms[n - 1] + 1 if planted == "plus one" else 1
            f = SeqPrefix(tuple(changed))
            failure = (n, changed[n - 1], terms[n - 1] // 35)
            assert encode_outcome(encode, f) == encode_outcome(reference_encode, f) == failure

    @pytest.mark.parametrize("k, n", [(k, 2 * k) for k in RUN_EDGES if 2 * k <= 4000]
                             + [(2, 2048)])
    def test_unit_term_over_a_denominator_from_a_divisor(self, k, n):
        # F_n = 1 equals its denominator before c_k is known, and not after
        terms = list(decode(code_at(4000, 3, [k])).terms)
        terms[n - 1] = 1
        f = SeqPrefix(tuple(terms))
        assert encode_outcome(encode, f) == encode_outcome(reference_encode, f) == (n, 1, 3)

    def test_scans_only_the_runs_that_differ(self, monkeypatch):
        # the multiples of 5 and 1500 equal their denominators; 5, 1500 and 3072 do not
        scanned = []

        def spy(indices, selectors):
            scanned.append((indices.start + 1, indices.stop))
            return compress(indices, selectors)

        monkeypatch.setattr(codec, "compress", spy)
        codes = [1] * 4000
        codes[5 - 1], codes[1500 - 1], codes[3072 - 1] = 7, 11, 13
        code = CodePrefix(tuple(codes))
        assert encode(decode(code)) == code
        assert scanned == [(4, 7), (1024, 2047), (3072, 4000)]


def test_encode_holds_one_list_beside_its_input():
    # encode's peak above its input, result included, stays below what the input itself
    # takes: one L-long list of denominators, then codes. With a second such list it does
    # not (the radical at 1e5 on CPython 3.11: an input of 3.9 MB, a peak 5.5 MB above it).
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        f = catalog.emit("radical", 100_000)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        code = encode(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.codes[:6] == (1, 2, 3, 1, 5, 1)
    assert peak - held < held - start


def reference_decode(c):
    # the per-index loop decode replaced: every code is compared with 1
    length = len(c)
    terms = [1] * length
    for j, cj in enumerate(c.codes, start=1):
        if cj != 1:
            for m in range(j, length + 1, j):
                terms[m - 1] *= cj
    return SeqPrefix(tuple(terms))


def sparse_code(length, seed, density):
    # each code is non-unit with probability density
    rng = random.Random(seed)
    return CodePrefix(rng.choice((2, 3, 35, 10**30)) if rng.random() < density else 1
                      for _ in range(length))


class TestDecodeDifferential:
    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(
            sparse_code,
            st.integers(1000, 3000) | st.sampled_from((1023, 1024, 1025, 2048)),
            st.integers(0, 2**32),
            st.sampled_from((0.0, 0.001, 0.01, 0.3, 1.0)),
        )
    )
    def test_codes_across_runs_of_1024(self, code):
        assert decode(code) == reference_decode(code)

    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_generated_length_1e5(self, seed):
        code = generate(100_000, seed)
        assert decode(code) == reference_decode(code)


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

    def test_hypothesis_violated_by_a_term_over_the_digit_limit(self):
        # 5001 digits: named by its width under a limit below that, else in decimal
        limit = digit_limit()
        shown = "1" + "0" * 5000 if limit == 0 or limit > 5000 else "a 16610-bit value"
        with pytest.raises(ValueError) as exc_info:
            peel_primary(SeqPrefix((10**5000, 1)), 2)
        assert str(exc_info.value) == (
            f"peel at 2 requires terms 1..1 to be 1, but term 1 is {shown}"
        )

    def test_not_divisible(self):
        with pytest.raises(EncodeFailure) as exc_info:
            peel_primary(SeqPrefix((1, 2, 1, 3)), 2)
        exc = exc_info.value
        assert (exc.index, exc.numerator, exc.denominator) == (4, 3, 2)
        assert str(exc) == "term 4: 3 is not divisible by 2"

    def test_index_out_of_range(self):
        # a bool is not an index, though True == 1: it fails here, not in PrimarySpec
        for n in (3, 0, True, False, 1.0, "1"):
            with pytest.raises(ValueError, match="^peel index "):
                peel_primary(SeqPrefix((1, 2)), n)

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
