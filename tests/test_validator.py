import gc
import random
import subprocess
import sys
import weakref
from math import gcd as _gcd, log2, prod

import pytest
from conftest import FACTORIAL_CODE_6, NATURALS_CODE_17, child_env
from hypothesis import example, given, settings, strategies as st

from gcdmorphic import _arith, validator
from gcdmorphic.catalog import emit
from gcdmorphic.codec import EncodeFailure, decode, encode
from gcdmorphic.core import CodePrefix, PrimarySpec, SeqPrefix, primary_prefix
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import (
    C1Witness,
    MorphicWitness,
    certify,
    check_c1,
    check_gcd_morphic,
)

def reference_check_c1(c):
    # the pairwise scan check_c1 replaced, and the independent oracle in witness
    # order: every incomparable pair k < n (c_n = 1 shares no prime, so it is skipped)
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
    if got is not None:  # PAPER.md's corollary: the brute force fails at the same pair
        witness = check_gcd_morphic(decode(CodePrefix(codes)))
        assert (witness.n, witness.m) == (got.n, got.k)
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
        assert w == C1Witness(n=3, k=2, g=2) == reference_check_c1(CodePrefix(FACTORIAL_CODE_6))

    def test_all_ones_passes(self):
        assert check_c1(CodePrefix((1,) * 12)) is None

    def test_witness_is_lexicographically_smallest(self):
        # violations at (3,2), (5,2) and (5,3); scan order must pick (3,2)
        code = CodePrefix((1, 6, 10, 1, 15))
        w = check_c1(code)
        assert (w.n, w.k) == (3, 2)
        assert w == reference_check_c1(code)

    def test_divisible_pairs_are_exempt(self):
        # shared factors along a divisibility chain are allowed
        assert check_c1(CodePrefix((1, 2, 1, 4, 1, 1, 1, 8))) is None

    def test_c1_never_constrains_first_code(self):
        assert check_c1(CodePrefix((6, 2, 3, 5))) is None

    def test_witness_after_long_runs_of_unit_codes(self):
        # all but 6 of the 52780 codes before the failing index are 1
        code = corrupt(generate(100000, 8), 8)
        assert check_c1(code) == C1Witness(52781, 29716, 23) == reference_check_c1(code)

    def test_matches_oracle_on_random_codes(self):
        rng = random.Random(7)
        for _ in range(200):
            code = CodePrefix(rng.choice([1, 1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 24)))
            assert check_c1(code) == reference_check_c1(code)


_small_codes = st.lists(st.sampled_from((1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 35)), max_size=40)
# pairwise gcd(2**a - 1, 2**b - 1) = 2**gcd(a, b) - 1, so exponents decide C1;
# entries this wide send the remainder tree through _arith._mod's recursive path
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
    """check_c1 against the pairwise scan it replaced."""

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
        div3n2n = _arith._div3n2n
        monkeypatch.setattr(_arith, "_div3n2n", lambda *a: calls.append(1) or div3n2n(*a))
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
        assert assert_c1_routes_agree(codes) == (C1Witness(3, 2, 3) if planted else None)

    def test_wide_codes_reach_recursive_division(self, monkeypatch):
        calls = []
        div3n2n = _arith._div3n2n
        monkeypatch.setattr(_arith, "_div3n2n", lambda *a: calls.append(1) or div3n2n(*a))
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

    @pytest.mark.parametrize("name, witness", [("fibonacci", (300, 7, 13)), ("mersenne", (300, 7, 127))])
    def test_witness_at_the_last_index(self, monkeypatch, name, witness):
        # c_7 is 13 (Fibonacci) or 127 (Mersenne), and 1..6 all divide 300:
        # planting it in c_300 breaks (C1) only in the last block, after
        # which check_c1 no longer extends the running product
        sizes = []
        residues = validator._residues
        monkeypatch.setattr(
            validator, "_residues", lambda *args: sizes.append(len(args[2][0])) or residues(*args)
        )
        codes = list(encode(emit(name, 300)).codes)
        codes[-1] *= codes[6]
        assert assert_c1_routes_agree(tuple(codes)) == C1Witness(*witness)
        assert len(sizes) >= 3
        assert sum(sizes) == sum(1 for c in codes[1:] if c != 1)


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


def _leaf_values(rnd, widths):
    return [rnd.getrandbits(w) | 1 << (w - 1) for w in widths]


# leaves up to 9000 bits wide, so that the reductions at right children
# (r mod m, then that times the left sibling's factor, mod m) take
# _arith._mod's recursive path; smooth parts > 1 widen the moduli
_leaves = st.lists(
    st.tuples(st.integers(1, 9000), st.sampled_from((1, 1, 2, 3, 12, 3**40, 2**5000))),
    min_size=1,
    max_size=13,
)


class TestRemainderTree:
    """validator._moduli_tree and validator._residues, the tree under check_c1."""

    @settings(max_examples=100, deadline=None)
    @given(_leaves, st.integers(1, 30000), st.randoms(use_true_random=False))
    @example([(9000, 1), (8999, 3), (9000, 2**5000)], 30000, random.Random(1))
    def test_residues_match_naive(self, leaves, x_bits, rnd):
        fs = _leaf_values(rnd, [w for w, _ in leaves])
        ss = [s for _, s in leaves]
        x = rnd.getrandbits(x_bits)
        factors = validator._product_tree(fs)
        got = validator._residues(x, factors, validator._moduli_tree(factors, ss))
        assert got == [x * prod(fs[:i]) % (fs[i] * ss[i]) for i in range(len(fs))]

    def test_right_children_reach_recursive_division(self, monkeypatch):
        calls = []
        mod = validator._mod
        monkeypatch.setattr(validator, "_mod", lambda a, b: calls.append((a, b)) or mod(a, b))
        factors = validator._product_tree(_leaf_values(random.Random(2), [9000] * 4))
        moduli = validator._moduli_tree(factors, [1] * 4)
        validator._residues(2**30000 - 1, factors, moduli)
        # each right child reduces the parent's residue, then that times the
        # left sibling's factor, both with divisor and quotient wider than
        # _BZ_BITS
        right = [ms[i] for ms in moduli[:-1] for i in range(1, len(ms), 2)]
        at_right = [(a.bit_length(), b.bit_length()) for a, b in calls if b in right]
        assert len(at_right) == 2 * len(right) == 6
        assert all(b > _arith._BZ_BITS and a - b > _arith._BZ_BITS for a, b in at_right)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 2**200), st.sampled_from((1, 1, 2, 9, 2**64))), min_size=1, max_size=33))
    def test_moduli_tree_is_product_tree_of_moduli(self, leaves):
        fs = [f for f, _ in leaves]
        ss = [s for _, s in leaves]
        moduli = validator._moduli_tree(validator._product_tree(fs), ss)
        assert moduli == validator._product_tree([f * s for f, s in leaves])


class TestMod:
    """_arith._divmod and _arith._mod, the wide-operand division, against builtins."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 40000), st.integers(1, 20000), st.randoms(use_true_random=False))
    def test_matches_builtin(self, a_bits, b_bits, rnd):
        b = rnd.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rnd.getrandbits(a_bits)
        for x in (a, a % b, b * a, b * a + b - 1, b - 1):
            assert _arith._divmod(x, b) == divmod(x, b)
            assert _arith._mod(x, b) == x % b
        p = 1 << (b_bits - 1)
        assert _arith._divmod(a, p) == divmod(a, p)

    @pytest.mark.parametrize("b_bits", [4001, 8001, 8003, 12345, 16001])
    @pytest.mark.parametrize("a_bits", [1, 9000, 30001])
    def test_odd_split_widths(self, a_bits, b_bits):
        rng = random.Random(a_bits * b_bits)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        a = rng.getrandbits(a_bits) | 1 << (a_bits - 1)
        assert _arith._divmod(a, b) == divmod(a, b)
        assert _arith._divmod(a * b, b) == (a, 0)
        assert _arith._divmod(a * b + 1, b) == (a, 1)
        assert _arith._mod(a, b) == a % b


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
        assert cert.ok

    def test_factorial_encode_succeeds_but_both_checks_fail(self):
        cert = certify(emit("factorial", 6))
        assert cert.code is not None and cert.code.codes == FACTORIAL_CODE_6
        assert (cert.c1_witness.n, cert.c1_witness.k) == (3, 2)
        assert (cert.morphic_witness.n, cert.morphic_witness.m) == (3, 2)
        assert not cert.ok

    def test_naturals_all_pass(self):
        cert = certify(emit("naturals", 17))
        assert cert.ok
        assert cert.code.codes == NATURALS_CODE_17

    def test_encode_failure_recorded_as_data(self):
        cert = certify(SeqPrefix((1, 2, 3, 5)))
        assert cert.code is None
        assert cert.encode_failure is not None
        assert cert.encode_failure.index == 4
        assert cert.morphic_witness is not None
        assert not cert.ok

    def test_encode_failure_keeps_no_frame_alive(self):
        # a traceback would hold certify's frame, with f, in a cycle, and encode's lists
        f = SeqPrefix((2,) + (3,) * 1000)
        alive = weakref.ref(f)
        gc.disable()
        try:
            cert = certify(f)
            assert cert.encode_failure.__traceback__ is None
            del cert, f
            assert alive() is None
        finally:
            gc.enable()

    def test_routes_that_disagree_raise(self, monkeypatch):
        # a bogus C1 witness on a morphic prefix: the routes disagree, which is a bug
        monkeypatch.setattr(validator, "check_c1", lambda c: C1Witness(3, 2, 2))
        with pytest.raises(AssertionError, match="^validator routes disagree; this is a bug$"):
            certify(emit("naturals", 6))

    def test_routes_that_name_different_pairs_raise(self, monkeypatch):
        # the factorial fails both routes at (3, 2); a C1 witness at (5, 2) is a bug
        monkeypatch.setattr(validator, "check_c1", lambda c: C1Witness(5, 2, 2))
        with pytest.raises(AssertionError, match="^validator routes disagree; this is a bug$"):
            certify(emit("factorial", 6))

    def test_routes_that_disagree_raise_under_optimisation(self):
        # an explicit raise, not an assert statement, which -O strips
        script = (
            "from gcdmorphic import catalog, validator\n"
            "validator.check_c1 = lambda c: validator.C1Witness(3, 2, 2)\n"
            "try:\n"
            "    validator.certify(catalog.emit('naturals', 6))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=child_env())
        assert (proc.returncode, proc.stdout) == (0, "validator routes disagree; this is a bug\n")


class TestRoutesNameTheSamePair:
    """PAPER.md's corollary to the agreement lemma, and its encode-failure case."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 9, 10, 12)), min_size=1, max_size=40)
           .map(lambda codes: list(decode(CodePrefix(codes))))
           | st.lists(st.integers(1, 12), min_size=1, max_size=30))
    @example([1, 2, 6, 24, 120, 720, 5040, 3])  # encode fails at 8, its code at (3, 2)
    @example([1, 2, 3, 5])  # encode fails at 4, and its code passes before 4
    def test_the_brute_force_fails_where_the_code_does(self, terms):
        try:
            code, failed_at = encode(SeqPrefix(terms)), None
        except EncodeFailure as exc:
            code, failed_at = encode(SeqPrefix(terms[:exc.index - 1])), exc.index
        c1w, mw = check_c1(code), check_gcd_morphic(SeqPrefix(terms))
        if c1w is not None:
            assert (mw.n, mw.m) == (c1w.n, c1w.k)
        else:
            assert (mw and mw.n) == failed_at


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
