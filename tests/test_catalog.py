import pytest
import reference
from conftest import EDGES, WIDEST, digit_limit

from gcdmorphic.catalog import PARAMETERIZED_FORMS, UnknownName, emit, entries
from gcdmorphic.core import PrimarySpec, SeqPrefix, primary_prefix
from gcdmorphic.validator import check_gcd_morphic


def reference_radical(length: int) -> tuple[int, ...]:
    # the multiply sieve emit replaced: each prime p multiplies every multiple of p
    rad = [1] * length  # rad[i] is the radical of i + 1
    for p in range(2, length + 1):
        if rad[p - 1] == 1:  # no smaller prime divides p, so p is prime
            for i in range(p - 1, length, p):
                rad[i] *= p
    return tuple(rad)


class TestEmit:
    def test_naturals(self):
        assert emit("naturals", 5).terms == (1, 2, 3, 4, 5)

    def test_fibonacci(self):
        assert emit("fibonacci", 12).terms == (1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144)

    def test_mersenne(self):
        assert emit("mersenne", 6).terms == (1, 3, 7, 15, 31, 63)

    def test_radical(self):
        assert emit("radical", 12).terms == (1, 2, 3, 2, 5, 6, 7, 2, 3, 10, 11, 6)
        assert emit("radical", 5000).terms == tuple(reference.emit("radical", 5000))

    def test_radical_matches_the_multiply_sieve_at_every_short_length(self):
        for length in range(1, 301):
            assert emit("radical", length).terms == reference_radical(length)

    # 2^16 and 3^10 end on a prime power, 313^2 on the square of the largest
    # prime below sqrt(1e5) and 317^2 - 1 just before the next prime's square
    @pytest.mark.parametrize("length", [2**16 - 1, 2**16, 2**16 + 1, 3**10, 313**2, 317**2 - 1, 100_000])
    def test_radical_matches_the_multiply_sieve_at_prime_power_edges(self, length):
        assert emit("radical", length).terms == reference_radical(length)

    def test_ones_and_factorial(self):
        assert emit("ones", 4).terms == (1, 1, 1, 1)
        assert emit("factorial", 6).terms == (1, 2, 6, 24, 120, 720)

    def test_parameterized_primary(self):
        assert emit("primary:3:2", 6) == primary_prefix(PrimarySpec(3, 2), 6)

    def test_parameterized_constant(self):
        assert emit("constant:5", 4) == SeqPrefix((5, 5, 5, 5))

    @pytest.mark.parametrize(
        "name",
        ["nope", "primary:3", "primary:3:2:1", "primary:x:2", "primary:0:2", "constant:", "constant:-1"],
    )
    def test_unknown_names(self, name):
        with pytest.raises(UnknownName):
            emit(name, 4)

    @pytest.mark.parametrize("form, terms", [
        ("primary:{}:2", lambda v: (1, v, 1)),
        ("primary:2:{}", lambda v: (1, 1, 1)),
        ("constant:{}", lambda v: (v, v, v)),
    ], ids=["primary:{}:2", "primary:2:{}", "constant:{}"])
    def test_parameter_over_digit_limit_is_unknown_name(self, form, terms):
        # one digit over the running limit; with no limit, the same parameter is read
        wide = "7" * (WIDEST + 1)
        if digit_limit():
            with pytest.raises(UnknownName):
                emit(form.format(wide), 3)
        else:
            assert emit(form.format(wide), 3).terms == terms(int(wide))

    def test_constant_is_primary_with_period_1(self):
        for value in (1, 5, 2**200):
            assert emit(f"constant:{value}", 7) == emit(f"primary:{value}:1", 7)
        with pytest.raises(UnknownName):
            emit("constant:5:1", 4)

    def test_rejects_bad_length(self):
        for length in (0, True):
            with pytest.raises(ValueError, match="length must be positive"):
                emit("naturals", length)

    def test_fibonacci_exceeds_64_bits(self):
        f = emit("fibonacci", 128)
        assert f.term(128) > 2**63
        m = emit("mersenne", 96)
        assert m.term(96) == 2**96 - 1


class TestEntries:
    def test_names_unique_and_stable(self):
        names = [e.name for e in entries()]
        assert names == ["ones", "naturals", "fibonacci", "mersenne", "radical", "factorial"]
        assert len(set(names)) == len(names)

    def test_parameterized_forms_listed(self):
        patterns = [name for name, _, _ in PARAMETERIZED_FORMS]
        assert patterns == ["primary:C:N", "constant:C"]

    def test_emitters_match_emit(self):
        for e in entries():
            assert e.emitter(9) == emit(e.name, 9)

    @pytest.mark.parametrize("length", EDGES)
    @pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
    def test_emitters_match_the_definitions_at_stretch_edges(self, entry, length):
        # perfbench/reference.py's definitions, on both sides of the 64-value stretch and
        # 1024-line piece edges; each emitter builds through _trusted, which the
        # vouched_supports_hold fixture checks
        expected = [1] * length if entry.name == "ones" else reference.emit(entry.name, length)
        assert entry.emitter(length).terms == tuple(expected)

    @pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
    def test_emitters_refuse_an_empty_prefix(self, entry):
        # entries() hands out the emitters, which refuse length 0 as the public constructor does
        with pytest.raises(ValueError, match="needs at least one value"):
            entry.emitter(0)

    def test_morphic_flags_verified_by_oracle_at_128(self):
        for e in entries():
            witness = check_gcd_morphic(e.emitter(128))
            if e.expected_morphic:
                assert witness is None, e.name
            else:
                assert witness is not None, e.name

