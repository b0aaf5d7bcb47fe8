import functools
import itertools
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from gcdmorphic.catalog import emit
from gcdmorphic.codec import decode, peel_primary
from gcdmorphic.core import (
    CodePrefix,
    PrimarySpec,
    SeqPrefix,
    pointwise_product,
    primary_prefix,
)
from gcdmorphic.generator import _FACTOR_PRIMES

DIVISOR_PROBE_LENGTH = 9973


def is_prime_oracle(n: int) -> bool:
    # independent of the library's helpers on purpose
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def oracle_primes(count: int) -> list[int]:
    return list(itertools.islice(filter(is_prime_oracle, itertools.count(2)), count))


@functools.cache
def divisor_probe() -> tuple[list[int], SeqPrefix]:
    """A distinct prime at every index of a code, and the sequence it decodes to."""
    primes = oracle_primes(DIVISOR_PROBE_LENGTH)
    return primes, decode(CodePrefix(primes))


def decoded_divisors(n: int) -> list[int]:
    """The indices j whose code decode multiplies into F_n, ascending."""
    primes, f = divisor_probe()
    fn = f.term(n)
    return [j for j in range(1, n + 1) if fn % primes[j - 1] == 0]


class TestDivisors:
    """decode takes F_n over exactly the divisors of n (F_n = prod of c_j, j | n)."""

    def test_examples(self):
        assert decoded_divisors(12) == [1, 2, 3, 4, 6, 12]
        assert decoded_divisors(1) == [1]
        assert decoded_divisors(7) == [1, 7]

    def test_rejects_nonpositive(self):
        # a primary sequence sits on the multiples of a positive period only
        with pytest.raises(ValueError):
            PrimarySpec(2, 0)
        with pytest.raises(ValueError):
            peel_primary(SeqPrefix((1, 2)), 0)
        # bool is an int subclass, but True is not a period or a value
        for value, period in ((2, True), (2, False), (True, 2), (False, 2), (True, True)):
            with pytest.raises(ValueError):
                PrimarySpec(value, period)

    @pytest.mark.parametrize("n", list(range(1, 200)) + [360, 1024, 9973])
    def test_sorted_and_pair_consistent(self, n):
        ds = decoded_divisors(n)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]
        assert ds[0] == 1 and ds[-1] == n
        for d in ds:
            assert d * (n // d) == n
            assert n // d in ds

    def test_closed_under_divisor_relation(self):
        for n in (60, 96, 210, 720):
            ds = set(decoded_divisors(n))
            for d in ds:
                assert set(decoded_divisors(d)) <= ds


class TestPrimary:
    def test_term_examples(self):
        assert primary_prefix(PrimarySpec(3, 2), 4).term(4) == 3
        assert primary_prefix(PrimarySpec(5, 3), 7).term(7) == 1
        sevens = primary_prefix(PrimarySpec(7, 1), 1000)
        for n in (1, 2, 17, 1000):
            assert sevens.term(n) == 7

    def test_term_sweep(self):
        p = primary_prefix(PrimarySpec(9, 7), 1000)
        for i in range(1, 1001):
            expected = 9 if i % 7 == 0 else 1
            assert p.term(i) == expected

    def test_prefix_examples(self):
        assert primary_prefix(PrimarySpec(3, 2), 6).terms == (1, 3, 1, 3, 1, 3)
        assert primary_prefix(PrimarySpec(1, 5), 4).terms == (1, 1, 1, 1)
        assert primary_prefix(PrimarySpec(2, 2), 8).terms == (1, 2, 1, 2, 1, 2, 1, 2)

    def test_prefix_matches_term(self):
        # every shorter prefix is the head of a longer one
        spec = PrimarySpec(4, 3)
        p = primary_prefix(spec, 50)
        for i in range(1, 51):
            assert primary_prefix(spec, i).terms == p.terms[:i]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PrimarySpec(0, 1)
        with pytest.raises(ValueError):
            PrimarySpec(1, 0)

    @pytest.mark.parametrize("length", [0, -1, True])
    def test_prefix_rejects_nonpositive_length(self, length):
        with pytest.raises(ValueError, match="length must be positive"):
            primary_prefix(PrimarySpec(3, 2), length)


class TestPointwiseProduct:
    def test_examples(self):
        a = SeqPrefix((1, 2, 3))
        b = SeqPrefix((1, 1, 2))
        assert pointwise_product(a, b).terms == (1, 2, 6)

    def test_identity(self):
        f = SeqPrefix((3, 1, 4, 1, 5))
        ones = SeqPrefix((1,) * 5)
        assert pointwise_product(f, ones) == f

    def test_primary_product(self):
        g22 = primary_prefix(PrimarySpec(2, 2), 4)
        g34 = primary_prefix(PrimarySpec(3, 4), 4)
        assert pointwise_product(g22, g34).terms == (1, 2, 1, 6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="prefix lengths differ"):
            pointwise_product(SeqPrefix((1,)), SeqPrefix((1, 2)))

    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=32),
        st.data(),
    )
    def test_commutative_associative(self, xs, data):
        ys = data.draw(st.lists(st.integers(1, 10**6), min_size=len(xs), max_size=len(xs)))
        zs = data.draw(st.lists(st.integers(1, 10**6), min_size=len(xs), max_size=len(xs)))
        a, b, c = SeqPrefix(xs), SeqPrefix(ys), SeqPrefix(zs)
        assert pointwise_product(a, b) == pointwise_product(b, a)
        assert pointwise_product(pointwise_product(a, b), c) == pointwise_product(
            a, pointwise_product(b, c)
        )


class TestPrefixTypes:
    def test_accepts_iterables_and_is_one_indexed(self):
        f = SeqPrefix([5, 6, 7])
        assert f.terms == (5, 6, 7)
        assert len(f) == 3
        assert f.term(1) == 5 and f.term(3) == 7
        assert list(f) == [5, 6, 7]
        c = CodePrefix([2, 1])
        assert c.code(2) == 1

    @pytest.mark.parametrize(
        "bad", [(), (0,), (1, -2), (1, "x"), (1.5,), (True,), (True, 2), (1, False)]
    )
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            SeqPrefix(bad)
        with pytest.raises(ValueError):
            CodePrefix(bad)

    def test_index_range_enforced(self):
        f = SeqPrefix((1, 2))
        with pytest.raises(IndexError):
            f.term(0)
        with pytest.raises(IndexError):
            f.term(3)

    def test_immutable(self):
        f = SeqPrefix((1, 2))
        with pytest.raises(AttributeError):
            f.terms = (3,)


class TestPrimeHelpers:
    def test_generator_primes_are_the_primes_up_to_1000(self):
        # the generator's sieve; its pool and corrupt's planted primes come from it
        assert _FACTOR_PRIMES == tuple(p for p in oracle_primes(200) if p <= 1000)

    def test_distinct_prime_factors(self):
        # the product of the distinct primes dividing n comes from the radical sieve
        rad = emit("radical", 588)
        assert rad.term(1) == 1
        assert rad.term(12) == 2 * 3
        assert rad.term(97) == 97
        assert rad.term(2 * 2 * 3 * 49) == 2 * 3 * 7
