import errno
import gc
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from itertools import islice
from math import gcd as _gcd, isqrt, log2, prod

import pytest
import reference
from conftest import FACTORIAL_CODE_6, NATURALS_CODE_17, child_env, first_primes, run
from hypothesis import example, given, settings, strategies as st

from gcdmorphic import _arith, validator
from gcdmorphic.catalog import emit, entries
from gcdmorphic.codec import EncodeFailure, decode, encode
from gcdmorphic.core import CodePrefix, SeqPrefix
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import (
    C1Witness,
    MorphicWitness,
    certify,
    check_c1,
    check_gcd_morphic,
)

def c1_reference(codes):
    # reference.c1_witness, the pair scan over the non-unit codes, as a C1Witness
    found = reference.c1_witness(codes)
    return found and C1Witness(*found)


def assert_c1_routes_agree(codes):
    got = check_c1(CodePrefix(codes))
    assert got == c1_reference(codes)
    if got is not None:  # PAPER.md's corollary: the brute force fails at the same pair
        witness = check_gcd_morphic(decode(CodePrefix(codes)))
        assert (witness.n, witness.m) == (got.n, got.k)
    return got


@pytest.fixture
def tree_sizes(monkeypatch):
    """The leaf count of each remainder tree check_c1 builds in this process, in order."""
    sizes, residues = [], validator._residues
    monkeypatch.setattr(
        validator, "_residues", lambda *args: sizes.append(len(args[2][0])) or residues(*args)
    )
    return sizes


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


def _generated(length, seed, corrupt_seed):
    # generate's code, corrupted when a seed is given
    code = generate(length, seed)
    return (code if corrupt_seed is None else corrupt(code, corrupt_seed)).codes


_c1_code = st.one_of(
    st.tuples(st.integers(2, 60), _small_codes).map(lambda t: (t[0], *t[1])),
    _small_codes.filter(bool).map(tuple),
    st.integers(1, 64).map(lambda length: (1,) * length),
    st.lists(st.integers(1, 30), min_size=1, max_size=3).map(tuple),
    st.lists(_wide_code, min_size=1, max_size=12).map(tuple),
    _catalog_code,
    _corrupted_code,
    _skewed_code,
    st.builds(_generated, st.integers(3, 128), st.integers(0, 2**64 - 1),
              st.none() | st.integers(0, 2**64 - 1)),
)


class TestCheckC1Differential:
    """check_c1 against ``reference.c1_witness``, the pair scan of perfbench/reference.py."""

    @settings(max_examples=200, deadline=None)
    @given(_c1_code)
    @example(NATURALS_CODE_17)
    @example(FACTORIAL_CODE_6)
    @example((1,) * 12)
    @example((1, 6, 10, 1, 15))  # fails at (3, 2), (5, 2) and (5, 3); the witness is (3, 2)
    @example((1, 2, 1, 4, 1, 1, 1, 8))  # shared factors along a divisibility chain are allowed
    @example((6, 2, 3, 5))  # (C1) never constrains c_1
    # the naturals' code with 13 planted at the incomparable indices 5 and 7
    @example((1, 2, 3, 2, 5 * 13, 1, 7 * 13, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17))
    def test_three_routes_agree(self, codes):
        assert_c1_routes_agree(codes)

    def test_witness_after_long_runs_of_unit_codes(self):
        # all but 6 of the 52780 codes before the failing index are 1; the brute force
        # would take some 1.4e9 pairs to reach that index, so only the pair scan runs
        code = corrupt(generate(100000, 8), 8)
        assert check_c1(code) == C1Witness(52781, 29716, 23) == c1_reference(code.codes)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2000, 5000), st.integers(0, 2**64 - 1), st.integers(2, 10**6),
           st.none() | st.integers(0, 2**64 - 1))
    def test_long_mostly_unit_codes_with_non_unit_c1(self, length, seed, c1, corrupt_seed):
        # c_1 is non-unit but never pending; the other codes cross many runs of 1024
        codes = list(generate(length, seed).codes)
        codes[0] *= c1
        code = CodePrefix(codes)
        if corrupt_seed is not None:
            code = corrupt(code, corrupt_seed)
        got = assert_c1_routes_agree(code.codes)
        assert (got is None) == (corrupt_seed is None)

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
    def test_corrupted_witness_in_first_middle_and_last_block(self, tree_sizes, name):
        base = encode(emit(name, 300))
        assert check_c1(base) is None
        assert len(tree_sizes) >= 3
        seen = set()
        for seed in range(64):
            codes = corrupt(base, seed).codes
            tree_sizes.clear()
            assert check_c1(CodePrefix(codes)) is not None
            if len(tree_sizes) == 1:
                seen.add("first")
            elif sum(tree_sizes) == sum(1 for c in codes[1:] if c != 1):
                seen.add("last")
            else:
                seen.add("middle")
            assert_c1_routes_agree(codes)
        assert seen == {"first", "middle", "last"}

    @pytest.mark.parametrize("name, witness", [("fibonacci", (300, 7, 13)), ("mersenne", (300, 7, 127))])
    def test_witness_at_the_last_index(self, tree_sizes, name, witness):
        # c_7 is 13 (Fibonacci) or 127 (Mersenne), and 1..6 all divide 300:
        # planting it in c_300 breaks (C1) only in the last block, after
        # which check_c1 no longer extends the running product
        codes = list(encode(emit(name, 300)).codes)
        codes[-1] *= codes[6]
        assert assert_c1_routes_agree(tuple(codes)) == C1Witness(*witness)
        assert len(tree_sizes) >= 3
        assert sum(tree_sizes) == sum(1 for c in codes[1:] if c != 1)


def _pending(codes):
    # the indices check_c1 tests: the non-unit ones after 1
    return [n for n in range(2, len(codes) + 1) if codes[n - 1] != 1]


def _scan_in_two_ranges(codes, cut):
    pending = _pending(codes)
    first = validator._scan(codes, pending, 0, cut)
    return first or validator._scan(codes, pending, cut, len(pending))


class TestScanRanges:
    """validator._scan on two ranges of the pending indices, in this process: the
    residue lemma holds for any range once _scan seeds P with the codes before
    it, and the earlier range's witness wins."""

    @settings(max_examples=50, deadline=None)
    @given(_c1_code)
    def test_every_cut_gives_the_witness(self, codes):
        expected = assert_c1_routes_agree(codes)
        for cut in range(len(_pending(codes)) + 1):
            assert _scan_in_two_ranges(codes, cut) == expected


FIBONACCI_1500 = encode(emit("fibonacci", 1500))


def _planted(codes, n, k):
    # c_k times into c_n
    codes = list(codes)
    codes[n - 1] *= codes[k - 1]
    return CodePrefix(codes)


def _in_the_childs_range(code, n):
    # with two CPUs
    pending = _pending(code.codes)
    return pending.index(n) >= validator._cut(code.codes, pending) > 0


@pytest.fixture
def two_cpus(monkeypatch):
    """check_c1 as it runs with two usable CPUs; yields the pids it forks. No child
    process and no file descriptor may outlive the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forked, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    fds = len(os.listdir("/proc/self/fd"))
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


class TestForkedScan:
    """check_c1 on Fibonacci at L = 1500, whose pending codes are 476K bits wide:
    a forked child checks the later indices."""

    def test_pass(self, two_cpus, monkeypatch):
        parent, scan, in_this_process = os.getpid(), validator._scan, []

        def traced(codes, pending, start, stop):
            if start and os.getpid() == parent:  # the child's range
                in_this_process.append(1)
            return scan(codes, pending, start, stop)

        monkeypatch.setattr(validator, "_scan", traced)
        assert check_c1(FIBONACCI_1500) is None
        assert len(two_cpus) == 1
        assert not in_this_process  # the child's answer was taken

    def test_witness_in_this_processs_range_kills_the_child(self, two_cpus, monkeypatch):
        code = corrupt(FIBONACCI_1500, 3)
        assert not _in_the_childs_range(code, 718)
        # the child's range takes a minute unless the child is killed
        scan = validator._scan

        def slow(codes, pending, start, stop):
            if start:  # the child's range
                time.sleep(60)
            return scan(codes, pending, start, stop)

        monkeypatch.setattr(validator, "_scan", slow)
        start = time.monotonic()
        assert check_c1(code) == C1Witness(718, 489, 719)
        assert time.monotonic() - start < 30
        assert len(two_cpus) == 1

    def test_witness_only_in_the_childs_range(self, two_cpus):
        # c_7 is 13, and 1..6 all divide 1500: the first failure is at the last index
        code = _planted(FIBONACCI_1500.codes, 1500, 7)
        assert _in_the_childs_range(code, 1500)
        assert check_c1(code) == C1Witness(1500, 7, 13)
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("planted, witness", [(False, None), (True, C1Witness(1500, 7, 13))])
    def test_child_that_raises_before_it_writes(self, two_cpus, monkeypatch, planted, witness):
        code = _planted(FIBONACCI_1500.codes, 1500, 7) if planted else FIBONACCI_1500
        parent, scan, in_this_process = os.getpid(), validator._scan, []

        def fails_in_the_child(codes, pending, start, stop):
            if start:  # the child's range
                if os.getpid() != parent:
                    raise MemoryError
                in_this_process.append(1)
            return scan(codes, pending, start, stop)

        monkeypatch.setattr(validator, "_scan", fails_in_the_child)
        assert check_c1(code) == witness
        assert len(two_cpus) == 1
        assert in_this_process == [1]  # the child's range, checked here

    def test_interrupt_in_this_process_kills_the_child(self, two_cpus, monkeypatch):
        scan = validator._scan

        def interrupted(codes, pending, start, stop):
            if start == 0:  # this process's range
                raise KeyboardInterrupt
            time.sleep(60)  # the child's, unless the child is killed
            return scan(codes, pending, start, stop)

        monkeypatch.setattr(validator, "_scan", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            check_c1(FIBONACCI_1500)
        assert time.monotonic() - start < 30
        assert len(two_cpus) == 1

    def test_failed_fork_checks_in_this_process(self, two_cpus, monkeypatch):
        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        assert check_c1(_planted(FIBONACCI_1500.codes, 1500, 7)) == C1Witness(1500, 7, 13)

    def test_corrupted_witness_in_the_childs_range(self, two_cpus):
        # a row of tests/test_cli.py: corrupt --seed 20 plants past the cut
        code = corrupt(FIBONACCI_1500, 20)
        assert _in_the_childs_range(code, 1482)
        assert check_c1(code) == C1Witness(1482, 79, 157)
        assert len(two_cpus) == 1

    @pytest.mark.parametrize("side", [-1, 0])
    def test_witness_next_to_the_cut(self, two_cpus, side):
        # the last index of this process's range, and the first of the child's
        codes = FIBONACCI_1500.codes
        pending = _pending(codes)
        n = pending[validator._cut(codes, pending) + side]
        code = _planted(codes, n, next(k for k in pending if n % k))
        found = check_c1(code)
        assert found.n == n
        assert found == validator._scan(code.codes, pending, 0, len(pending))
        assert len(two_cpus) == 1

    def test_partner_is_the_last_code_before_the_cut(self, two_cpus):
        # the child's seed must hold every code of this process's range
        codes = FIBONACCI_1500.codes
        pending = _pending(codes)
        k = pending[validator._cut(codes, pending) - 1]
        # planting widens c_1500, which moves the cut: plant the code before the new one
        k = pending[validator._cut(_planted(codes, 1500, k).codes, pending) - 1]
        code = _planted(codes, 1500, k)
        assert pending[validator._cut(code.codes, pending) - 1] == k
        found = check_c1(code)
        assert (found.n, found.k, found.g) == (1500, k, codes[k - 1])
        assert len(two_cpus) == 1

    def test_partner_is_the_first_pending_code(self, two_cpus):
        # the child's seed must hold c_3, the first pending code: a fresh prime
        # in c_3 and c_1499 breaks (C1) there alone, as 1499 is prime
        codes = list(FIBONACCI_1500.codes)
        codes[3 - 1] *= 1000003
        codes[1499 - 1] *= 1000003
        pending = _pending(codes)
        cut = validator._cut(tuple(codes), pending)
        assert pending[0] == 3 and pending.index(1499) >= cut > 0
        witness = C1Witness(1499, 3, 1000003)
        assert _scan_in_two_ranges(tuple(codes), cut) == witness
        assert not two_cpus
        assert check_c1(CodePrefix(codes)) == witness
        assert len(two_cpus) == 1


class TestForkedScanInTheCli:
    """``gcdmorphic check c1`` in this process, which has no other thread, forks
    as check_c1 does: rows of tests/test_cli.py, whose in-process runs never fork."""

    @pytest.mark.parametrize("seed, code, out", [
        (None, 0, '{"ok":true}\n'),
        ("20", 1, '{"kind":"c1","n":1482,"k":79,"g":"157"}\n'),
    ], ids=["pass", "corrupt-20"])
    def test_check_c1(self, two_cpus, seed, code, out):
        wire = run(["encode"], run(["catalog", "emit", "fibonacci", "--length", "1500"])[1])[1]
        if seed is not None:
            wire = run(["corrupt", "--seed", seed], wire)[1]
        assert not two_cpus
        assert run(["check", "c1"], wire) == (code, out, "")
        assert len(two_cpus) == 1


class TestCut:
    """validator._cut, where check_c1 splits the pending indices with a child."""

    def test_cut_at_the_parents_share_of_the_width(self, two_cpus):
        codes = FIBONACCI_1500.codes
        widths = [codes[n - 1].bit_length() for n in _pending(codes)]
        cut = validator._cut(codes, _pending(codes))
        share = validator._PARENT_SHARE * sum(widths)
        assert sum(widths[:cut]) < share <= sum(widths[:cut + 1])

    def test_threshold_is_inclusive(self, two_cpus, monkeypatch):
        codes = FIBONACCI_1500.codes
        width = sum(codes[n - 1].bit_length() for n in _pending(codes))
        monkeypatch.setattr(validator, "_FORK_BITS", width)
        assert validator._cut(codes, _pending(codes)) > 0
        monkeypatch.setattr(validator, "_FORK_BITS", width + 1)
        assert validator._cut(codes, _pending(codes)) == 0

    @pytest.mark.parametrize("name, length", [("naturals", 8000), ("radical", 8000),
                                              ("factorial", 300), ("fibonacci", 1000)])
    def test_narrow_codes_stay_in_process(self, two_cpus, name, length):
        codes = encode(emit(name, length)).codes
        assert validator._cut(codes, _pending(codes)) == 0

    def test_one_cpu_stays_in_process(self, two_cpus, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert validator._cut(FIBONACCI_1500.codes, _pending(FIBONACCI_1500.codes)) == 0

    def test_no_fork_stays_in_process(self, two_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert validator._cut(FIBONACCI_1500.codes, _pending(FIBONACCI_1500.codes)) == 0

    def test_another_thread_stays_in_process(self, two_cpus):
        done = threading.Event()
        waiting = threading.Thread(target=done.wait)
        waiting.start()
        try:
            assert validator._cut(FIBONACCI_1500.codes, _pending(FIBONACCI_1500.codes)) == 0
        finally:
            done.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()
        assert validator._cut(FIBONACCI_1500.codes, _pending(FIBONACCI_1500.codes)) > 0


FIBONACCI_300 = encode(emit("fibonacci", 300))


def _in_the_last_block(tree_sizes, leaf):
    # Fibonacci 300 with c_k planted in c_n, for n the first (leaf 0), a middle
    # (1) or the last (2) leaf of the last remainder tree of a serial check_c1,
    # and k the first pending index that does not divide n; tree_sizes is
    # cleared for the planted code's check
    assert check_c1(FIBONACCI_300) is None
    pending = _pending(FIBONACCI_300.codes)
    block = pending[-tree_sizes[-1]:]
    assert len(block) >= 3
    n = block[leaf * (len(block) - 1) // 2]
    tree_sizes.clear()
    return _planted(FIBONACCI_300.codes, n, next(k for k in pending if n % k)), n


class TestWitnessInsideABlock:
    """check_c1 stops at the failing leaf of a remainder tree, wherever it lies
    in its block, and gives the pair scan's witness."""

    @pytest.mark.parametrize("leaf", [0, 1, 2], ids=["first", "middle", "last"])
    def test_serial(self, tree_sizes, leaf):
        code, n = _in_the_last_block(tree_sizes, leaf)
        assert assert_c1_routes_agree(code.codes).n == n
        assert sum(tree_sizes) == len(_pending(code.codes))  # found in the last tree

    @pytest.mark.parametrize("leaf", [0, 1, 2], ids=["first", "middle", "last"])
    def test_forked(self, two_cpus, tree_sizes, monkeypatch, leaf):
        code, n = _in_the_last_block(tree_sizes, leaf)
        monkeypatch.setattr(validator, "_FORK_BITS", 0)
        found = check_c1(code)
        assert found == c1_reference(code.codes) and found.n == n
        assert len(two_cpus) == 1


def divisor_product_by_trial_division(codes, n):
    # D_n, the product of c_d over the divisors 1 < d < n of n
    d = 1
    for k in range(2, isqrt(n) + 1):
        if n % k == 0:
            d *= codes[k - 1]
            if k < n // k:
                d *= codes[n // k - 1]
    return d


def _divisor_products(codes, start, monkeypatch):
    # the D_n that _scan(codes, pending, start, len(pending)) passes to
    # _smooth_part, with the reference's for the same n
    pending, seen, smooth_part = _pending(codes), [], validator._smooth_part

    def recorded(d, c):
        seen.append(d)
        return smooth_part(d, c)

    monkeypatch.setattr(validator, "_smooth_part", recorded)
    validator._scan(codes, pending, start, len(pending))
    return seen, [divisor_product_by_trial_division(codes, n) for n in pending[start:][:len(seen)]]


class TestDivisorProducts:
    """_scan's passes over the multiples of the pending indices, one per window,
    give each D_n that trial division does, also for a range that starts partway."""

    @settings(max_examples=100, deadline=None)
    @given(_c1_code, st.floats(0, 1))
    def test_any_start(self, codes, share):
        with pytest.MonkeyPatch.context() as mp:
            got, expected = _divisor_products(codes, int(share * len(_pending(codes))), mp)
        assert got == expected

    @pytest.mark.parametrize("start", [0, 700, 1998])
    def test_every_index_pending(self, monkeypatch, start):
        # a distinct prime at every index: every n is pending, perfect squares
        # included, and every D_n is a distinct product
        codes = tuple(first_primes(2000))
        got, expected = _divisor_products(codes, start, monkeypatch)
        assert len(got) == 1999 - start
        assert got == expected

    @pytest.mark.parametrize("start", [0, 20, 50])
    def test_divisors_on_both_sides_of_a_window_edge(self, monkeypatch, start):
        # distinct primes at the indices 2^a 3^b, the others unit: every
        # divisor of a pending n is pending, 2 far before it and n / 2 a few
        # places back, so some n has divisors in the window before its own
        # and before that one
        indices = sorted(2**a * 3**b for a in range(15) for b in range(10) if 2**a * 3**b <= 20000)
        codes = [1] * 20000
        for n, p in zip(indices[1:], first_primes(len(indices))):
            codes[n - 1] = p
        codes, pending = tuple(codes), _pending(codes)
        windows, divisors = [], validator._divisors
        monkeypatch.setattr(
            validator, "_divisors", lambda *args: windows.append(args[1:]) or divisors(*args)
        )
        got, expected = _divisor_products(codes, start, monkeypatch)
        assert len(got) == len(pending) - start
        assert got == expected
        assert any(
            any(n % k == 0 for k in pending[:before]) and any(n % k == 0 for k in pending[before:lo])
            for (before, _), (lo, hi) in zip(windows, windows[1:]) for n in pending[lo:hi]
        )

    @pytest.mark.parametrize("name", ["radical", "naturals"])
    def test_long_codes(self, monkeypatch, name):
        codes = encode(emit(name, 100_000)).codes
        got, expected = _divisor_products(codes, 0, monkeypatch)
        assert len(got) == len(_pending(codes))
        assert got == expected


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
    """validator._residues, the tree under check_c1."""

    @settings(max_examples=100, deadline=None)
    @given(_leaves, st.integers(1, 30000), st.randoms(use_true_random=False))
    @example([(9000, 1), (8999, 3), (9000, 2**5000)], 30000, random.Random(1))
    def test_residues_match_naive(self, leaves, x_bits, rnd):
        fs = _leaf_values(rnd, [w for w, _ in leaves])
        ss = [s for _, s in leaves]
        x = rnd.getrandbits(x_bits)
        factors = validator._product_tree(fs)
        got = list(validator._residues(x, factors, validator._product_tree(ss)))
        assert got == [x * prod(fs[:i]) % (fs[i] * ss[i]) for i in range(len(fs))]

    def test_right_children_reach_recursive_division(self, monkeypatch):
        calls = []
        mod = validator._mod
        monkeypatch.setattr(validator, "_mod", lambda a, b: calls.append((a, b)) or mod(a, b))
        factors = validator._product_tree(_leaf_values(random.Random(2), [9000] * 4))
        list(validator._residues(2**30000 - 1, factors, validator._product_tree([1] * 4)))
        # each right child reduces the parent's residue, then that times the
        # left sibling's factor, both with divisor and quotient wider than
        # _BZ_BITS; with every s_i 1 the moduli are the code nodes
        right = [fs[i] for fs in factors[:-1] for i in range(1, len(fs), 2)]
        at_right = [(a.bit_length(), b.bit_length()) for a, b in calls if b in right]
        assert len(at_right) == 2 * len(right) == 6
        assert all(b > _arith._BZ_BITS and a - b > _arith._BZ_BITS for a, b in at_right)

    def test_no_subtree_right_of_the_last_leaf_taken_is_reduced(self, monkeypatch):
        # check_c1 stops at its first failing leaf: after the first i residues
        # no modulus of a subtree wholly to the right of leaf i - 1 has been used
        rnd = random.Random(3)
        fs = _leaf_values(rnd, [rnd.randint(1, 9000) for _ in range(13)])
        ss = [rnd.choice((1, 2, 3, 12, 3**40)) for _ in fs]
        x = rnd.getrandbits(30000)
        factors, smooth = validator._product_tree(fs), validator._product_tree(ss)
        moduli, mod = [], validator._mod
        monkeypatch.setattr(validator, "_mod", lambda a, b: moduli.append(b) or mod(a, b))
        for i in range(1, len(fs) + 1):
            moduli.clear()
            got = list(islice(validator._residues(x, factors, smooth), i))
            assert got == [x * prod(fs[:j]) % (fs[j] * ss[j]) for j in range(i)]
            # node j of a level covers the leaves from j << level
            right = {f * s for level, (fl, sl) in enumerate(zip(factors, smooth))
                     for j, (f, s) in enumerate(zip(fl, sl)) if j << level >= i}
            assert (i == len(fs)) == (not right)
            assert not right & set(moduli)
        # all of them: one reduction by each node's modulus, two at a right child
        assert Counter(moduli) == Counter(
            f * s for fl, sl in zip(factors, smooth)
            for j, (f, s) in enumerate(zip(fl, sl)) for _ in range(1 + j % 2))


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


class TestCheckGcdMorphicDifferential:
    """check_gcd_morphic against ``reference.morphic_witness``, the pair scan of
    perfbench/reference.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from((1, 2, 3, 4, 6, 12)), min_size=1, max_size=18)
           | st.builds(lambda name, length: emit(name, length).terms,
                       st.sampled_from([e.name for e in entries()]), st.integers(1, 128)))
    @example((7, 7, 7, 7))
    def test_matches_the_pair_scan(self, terms):
        expected = reference.morphic_witness(terms)
        assert check_gcd_morphic(SeqPrefix(terms)) == (expected and MorphicWitness(*expected))


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
    @given(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12)), min_size=1,
                    max_size=128)
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
