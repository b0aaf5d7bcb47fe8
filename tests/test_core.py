import copy
import functools
import pickle
import random
import subprocess
import sys

import pytest
from conftest import WIDEST, child_env, digit_limit, first_primes
from hypothesis import example, given, settings, strategies as st

from gcdmorphic.catalog import CatalogEntry, emit, entries
from gcdmorphic.codec import EncodeFailure, decode, encode, peel_primary
from gcdmorphic.core import (
    CodePrefix,
    PrimarySpec,
    SeqPrefix,
    _nonunit,
    _Prefix,
    _shown,
    pointwise_product,
    primary_prefix,
)
from gcdmorphic.generator import _FACTOR_PRIMES, generate
from gcdmorphic.validator import C1Witness, Certificate, MorphicWitness


@functools.cache
def divisor_probe() -> tuple[list[int], SeqPrefix]:
    """A distinct prime at every index of a code, and the sequence it decodes to."""
    primes = first_primes(9973)
    return primes, decode(CodePrefix(primes))


class TestDivisors:
    """decode takes F_n over exactly the divisors of n (F_n = prod of c_j, j | n)."""

    @pytest.mark.parametrize("n", list(range(1, 200)) + [210, 360, 720, 1024, 9973])
    def test_sorted_and_pair_consistent(self, n):
        primes, f = divisor_probe()
        taken = [j for j in range(1, n + 1) if f.term(n) % primes[j - 1] == 0]
        assert taken == [d for d in range(1, n + 1) if n % d == 0]


class TestPrimary:
    # the value at the multiples of the period and 1 elsewhere, at a length and one shorter
    @pytest.mark.parametrize("value, period, length", [
        (3, 2, 4), (5, 3, 7), (7, 1, 1000), (9, 7, 1000), (3, 2, 6), (1, 5, 4), (2, 2, 8),
        (4, 3, 50),
    ])
    def test_prefix_matches_definition(self, value, period, length):
        terms = tuple(value if i % period == 0 else 1 for i in range(1, length + 1))
        assert primary_prefix(PrimarySpec(value, period), length).terms == terms
        if length > 1:
            assert primary_prefix(PrimarySpec(value, period), length - 1).terms == terms[:-1]

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
        assert SeqPrefix(terms=[1, 2]).terms == (1, 2)
        assert CodePrefix(codes=iter([3])).codes == (3,)

    @pytest.mark.parametrize(
        "bad", [(), (0,), (1, -2), (1, "x"), (1.5,), (True,), (True, 2), (1, False)]
    )
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValueError):
            SeqPrefix(bad)
        with pytest.raises(ValueError):
            CodePrefix(bad)

    def test_index_range_enforced(self):
        # a bool is not an index, though True == 1
        for n in (0, 3, True, False, 1.0, "1"):
            with pytest.raises(IndexError):
                SeqPrefix((5, 7)).term(n)
            with pytest.raises(IndexError):
                CodePrefix((5, 7)).code(n)

    def test_immutable(self):
        f = SeqPrefix((1, 2))
        with pytest.raises(AttributeError):
            f.terms = (3,)


# each value type, its fields with sample values, and the repr of that value
VALUE_TYPES = [
    (SeqPrefix, {"terms": (1, 2, 6)}, "SeqPrefix(terms=(1, 2, 6))"),
    (CodePrefix, {"codes": (1, 2, 3)}, "CodePrefix(codes=(1, 2, 3))"),
    (PrimarySpec, {"value": 3, "period": 2}, "PrimarySpec(value=3, period=2)"),
    (C1Witness, {"n": 6, "k": 4, "g": 2}, "C1Witness(n=6, k=4, g=2)"),
    (MorphicWitness, {"n": 3, "m": 2, "got": 2, "expected": 1},
     "MorphicWitness(n=3, m=2, got=2, expected=1)"),
    (Certificate,
     {"code": CodePrefix((1, 2)), "encode_failure": None, "c1_witness": None,
      "morphic_witness": None},
     "Certificate(code=CodePrefix(codes=(1, 2)), encode_failure=None, c1_witness=None, "
     "morphic_witness=None)"),
    (CatalogEntry, {"name": "ones", "description": "all ones", "emitter": abs,
                    "expected_morphic": True},
     "CatalogEntry(name='ones', description='all ones', emitter=<built-in function abs>, "
     "expected_morphic=True)"),
]


@pytest.mark.parametrize("cls, fields, text", VALUE_TYPES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_TYPES])
class TestValueTypes:
    # a frozen dataclass's behaviour, which the value types keep without being dataclasses
    def test_repr(self, cls, fields, text):
        assert repr(cls(*fields.values())) == text

    def test_construction_by_position_and_keyword(self, cls, fields, text):
        first, *rest = fields
        value = cls(*fields.values())
        assert value == cls(**fields)
        assert value == cls(fields[first], **{name: fields[name] for name in rest})
        assert [getattr(value, name) for name in fields] == list(fields.values())

    def test_equality_and_hash(self, cls, fields, text):
        values = tuple(fields.values())
        value = cls(*values)
        assert value == cls(*values) and not value != cls(*values)
        assert hash(value) == hash(cls(*values)) == hash(values)
        assert value != values and not value == values

        class Twin(cls):
            pass

        assert value != Twin(*values) and not value == Twin(*values)
        *_, last = fields
        # Certificate's last field is None in its sample: not None is True
        bumped = not values[-1] if isinstance(values[-1], (bool, type(None))) else values[-1] * 2
        assert value != cls(**{**fields, last: bumped})
        assert not value == cls(**{**fields, last: bumped})
        if issubclass(cls, _Prefix):  # a support is no field: given, computed or absent
            given = cls._trusted(*values, b"\x01")
            assert given == value == cls._trusted(*values) and value._support == b"\x01"
            assert hash(given) == hash(value) == hash(values) and repr(given) == text

    def test_other_value_type_with_the_same_values_differs(self, cls, fields, text):
        values = tuple(fields.values())
        for other, other_fields, _ in VALUE_TYPES:
            if other is not cls and len(other_fields) == len(fields):
                assert cls(*values) != other(*values) and not cls(*values) == other(*values)

    def test_bad_arguments_are_type_errors(self, cls, fields, text):
        values = list(fields.values())
        first = next(iter(fields))
        for args, kwargs in [
            (values[:-1], {}),  # missing
            ([], {}),
            ([*values, values[0]], {}),  # extra positional
            (values, {"extra": 1}),  # extra keyword
            (values, {first: values[0]}),  # duplicate
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_assignment_and_deletion_are_refused(self, cls, fields, text):
        value = cls(*fields.values())
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == text

    def test_pickle_and_copy(self, cls, fields, text):
        samples = [cls(*fields.values())]
        if issubclass(cls, _Prefix):  # the support given is dropped, and computed again
            samples.append(cls._trusted(*fields.values(), b"\x01"))
        for value in samples:
            copies = [pickle.loads(pickle.dumps(value, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(value), copy.deepcopy(value)]
            for twin in copies:
                assert type(twin) is cls and "_support" not in vars(twin)
                assert twin == value and hash(twin) == hash(value) and repr(twin) == text
                assert not issubclass(cls, _Prefix) or twin._support == value._support


class TestValueTypeChecks:
    @pytest.mark.parametrize("build, message", [
        (lambda: SeqPrefix(()), "terms needs at least one value"),
        (lambda: SeqPrefix(terms=(1, 0)), "terms[2] must be positive, got 0"),
        (lambda: CodePrefix((2, True)), "codes[2] must be positive, got True"),
        (lambda: CodePrefix(codes=[]), "codes needs at least one value"),
        (lambda: PrimarySpec(0, 2), "value must be positive, got 0"),
        (lambda: PrimarySpec(value=3, period=-1), "period must be positive, got -1"),
        (lambda: PrimarySpec(3, True), "period must be positive, got True"),
        (lambda: PrimarySpec(2, 0), "period must be positive, got 0"),
        # bool is an int subclass, but True is not a period or a value
        (lambda: PrimarySpec(2, False), "period must be positive, got False"),
        (lambda: PrimarySpec(True, 2), "value must be positive, got True"),
        (lambda: PrimarySpec(False, 2), "value must be positive, got False"),
        (lambda: PrimarySpec(2, True), "period must be positive, got True"),
        (lambda: PrimarySpec(True, True), "value must be positive, got True"),
    ])
    def test_bad_values_keep_their_messages(self, build, message):
        with pytest.raises(ValueError) as exc_info:
            build()
        assert str(exc_info.value) == message

    def test_catalog_entries_survive_pickle(self):
        assert pickle.loads(pickle.dumps(entries())) == entries()

    def test_cli_import_leaves_out_dataclasses_and_inspect(self):
        probe = "import sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        bare = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        if bare.stdout != "[]\n":
            pytest.skip(f"a bare interpreter already loads {bare.stdout.strip()}")
        proc = subprocess.run([sys.executable, "-c", "import gcdmorphic.cli; " + probe],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "[]\n")


# one digit over the running int<->str limit; with no limit, repr prints it
WIDE = 10**WIDEST


def shown(value, over_the_limit):
    """What a library message shows for ``value``: ``over_the_limit`` under a digit limit."""
    return over_the_limit if digit_limit() else repr(value)


WIDE_TEXT = shown(WIDE, f"a {WIDE.bit_length()}-bit value")
NEGATIVE_WIDE_TEXT = shown(-WIDE, f"a negative {WIDE.bit_length()}-bit value")


class TestShown:
    @given(st.one_of(
        st.integers(),
        st.builds(lambda sign, digits: sign * 10**digits,
                  st.sampled_from([1, -1]), st.integers(0, 6000)),
        st.booleans(), st.none(), st.floats(), st.text(),
    ))
    def test_is_repr_whenever_repr_succeeds(self, value):
        try:
            expected = repr(value)
        except ValueError:
            assert isinstance(value, int)
            sign = "negative " if value < 0 else ""
            expected = f"a {sign}{value.bit_length()}-bit value"
        assert _shown(value) == expected

    def test_prefix_names_a_wide_value_by_sign_and_width(self):
        with pytest.raises(ValueError) as exc_info:
            SeqPrefix((1, -WIDE))
        assert str(exc_info.value) == f"terms[2] must be positive, got {NEGATIVE_WIDE_TEXT}"

    def test_primary_spec_names_a_wide_value_by_sign_and_width(self):
        with pytest.raises(ValueError) as exc_info:
            PrimarySpec(-WIDE, 1)
        assert str(exc_info.value) == f"value must be positive, got {NEGATIVE_WIDE_TEXT}"

    def test_generate_names_a_wide_seed_by_width(self):
        with pytest.raises(ValueError) as exc_info:
            generate(3, WIDE)
        assert str(exc_info.value) == f"seed must fit in 64 unsigned bits, got {WIDE_TEXT}"

    def test_wide_indices_are_named_by_sign_and_width(self):
        with pytest.raises(IndexError) as exc_info:
            SeqPrefix((1,)).term(-WIDE)
        assert str(exc_info.value) == f"index {NEGATIVE_WIDE_TEXT} outside 1..1"
        with pytest.raises(ValueError) as exc_info:
            peel_primary(SeqPrefix((1,)), WIDE)
        assert str(exc_info.value) == f"peel index {WIDE_TEXT} outside 1..1"

    def test_encode_failure_names_a_wide_denominator_by_width(self):
        # every term is within the limit, but the denominator at 6 is x * y
        x, y = 10**((WIDEST + 1) // 2) + 1, 10**((WIDEST + 1) // 2) + 3
        with pytest.raises(EncodeFailure) as exc_info:
            encode(SeqPrefix((1, x, y, x, 7, 1)))
        assert exc_info.value.denominator == x * y
        denominator = shown(x * y, f"a {(x * y).bit_length()}-bit value")
        assert str(exc_info.value) == f"term 6: 1 is not divisible by {denominator}"

    @pytest.mark.parametrize("build, error, text", [
        (lambda: SeqPrefix((1, 2)).term([WIDE]), IndexError,
         f"index {shown([WIDE], 'a list too wide to print')} outside 1..2"),
        (lambda: SeqPrefix([[WIDE]]), ValueError,
         f"terms[1] must be positive, got {shown([WIDE], 'a list too wide to print')}"),
        (lambda: PrimarySpec((WIDE,), 2), ValueError,
         f"value must be positive, got {shown((WIDE,), 'a tuple too wide to print')}"),
    ], ids=["index", "term", "primary-value"])
    def test_other_wide_values_are_named_by_type(self, build, error, text):
        with pytest.raises(error) as exc_info:
            build()
        assert str(exc_info.value) == text

    def test_peel_follows_the_running_digit_limit(self):
        # 10**1000 has 1001 digits: within the default limit, over the lowest one
        script = (
            "from gcdmorphic.codec import peel_primary\n"
            "from gcdmorphic.core import SeqPrefix\n"
            "try:\n"
            "    peel_primary(SeqPrefix((10**1000, 1)), 2)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(PYTHONINTMAXSTRDIGITS="640"))
        assert proc.stdout == (
            "peel at 2 requires terms 1..1 to be 1, but term 1 is a 3322-bit value\n"
        )


def reference_nonunit(values):
    return [n for n in range(1, len(values) + 1) if values[n - 1] != 1]


def random_values(length, seed, density):
    # each value is non-unit with probability density; some are over 64 bits
    rng = random.Random(seed)
    return tuple(rng.choice((2, 3, 10**40)) if rng.random() < density else 1
                 for _ in range(length))


def lone_nonunit(length, n):
    values = [1] * length
    values[n - 1] = 7
    return tuple(values)


RUN_EDGE_LENGTHS = (1023, 1024, 1025, 2048)


class TestNonunit:
    """_nonunit against the per-index scan it replaced in decode, check_c1 and corrupt."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(
            random_values,
            st.integers(1, 3000) | st.sampled_from(RUN_EDGE_LENGTHS),
            st.integers(0, 2**32),
            st.sampled_from((0.0, 0.0005, 0.003, 0.05, 0.5, 1.0)),
        )
    )
    @example((1,) * 2048)
    @example((2,) * 2048)
    @example((1,) * 1024 + (5,) + (1,) * 1023)
    def test_matches_the_per_index_scan(self, values):
        assert _nonunit(SeqPrefix(values)) == reference_nonunit(values)

    @pytest.mark.parametrize("length", (1, 2, *RUN_EDGE_LENGTHS, 3000))
    def test_all_unit_and_no_unit(self, length):
        assert _nonunit(SeqPrefix((1,) * length)) == []
        assert _nonunit(SeqPrefix((3,) * length)) == list(range(1, length + 1))

    @pytest.mark.parametrize("length", (1, 2, *RUN_EDGE_LENGTHS, 3000))
    def test_lone_nonunit_at_the_first_and_last_index(self, length):
        assert _nonunit(SeqPrefix(lone_nonunit(length, 1))) == [1]
        assert _nonunit(SeqPrefix(lone_nonunit(length, length))) == [length]


class TestPrimeHelpers:
    def test_generator_primes_are_the_primes_up_to_1000(self):
        # the generator's sieve; its pool and corrupt's planted primes come from it
        assert _FACTOR_PRIMES == tuple(p for p in first_primes(200) if p <= 1000)

    def test_distinct_prime_factors(self):
        # the product of the distinct primes dividing n comes from the radical sieve
        rad = emit("radical", 588)
        assert rad.term(1) == 1
        assert rad.term(12) == 2 * 3
        assert rad.term(97) == 97
        assert rad.term(2 * 2 * 3 * 49) == 2 * 3 * 7
