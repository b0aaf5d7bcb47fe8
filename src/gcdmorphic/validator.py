"""Decide GCD-morphicity two independent ways and report counterexamples.

``check_gcd_morphic`` is the ground-truth oracle: it scans every index pair
of the prefix against gcd(F_n, F_m) == F_{gcd(n, m)} and uses no encoding
machinery. ``check_c1`` decides the same property on the code side: for
every pair k < n with k not dividing n, gcd(c_n, c_k) must be 1. The two
verdicts agree for any prefix, and a code that fails (C1) fails it at the
index pair where the oracle fails (PAPER.md); ``certify`` runs both and
raises ``AssertionError`` if they ever disagree (an implementation bug).

``check_c1`` does not scan those pairs: it tests each non-unit c_n once, by the
residue lemma in PAPER.md. Its cost follows Karatsuba multiplication of the codes'
total width: about L^3.2 for dense codes such as Fibonacci, whose total width grows
as L^2, against L^4 for the L^2 quadratic-time gcds of a pair scan. A code with few
non-unit entries costs a scan of the 64-entry stretches its support flags to find
them (``core._nonunit``; a code without a support compares each stretch with 1s
once), plus passes over the multiples of each non-unit k, the sum of L/k over them,
to list the non-unit divisors of each non-unit n. A failing code
costs about the work up to its witness: the divisors are listed a window at a time
and each remainder tree is reduced depth first, up to the first failing n. The
known worst case is a wide code c_k at a small index k: it widens the moduli at
those multiples of k whose codes share one of its primes, and can make
``check_c1`` slower than a pair scan. With ``fork``, two usable CPUs and no other thread, codes at least
``_FORK_BITS`` wide are checked by the process and one forked child, always reaped
before ``check_c1`` returns.

Both checkers return None on pass, otherwise the lexicographically smallest
witness (outer index ascending, then inner ascending), so failures reproduce
byte-for-byte.
"""

from __future__ import annotations

import marshal
import os
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
from math import gcd, prod
from typing import Iterator

from ._arith import _BZ_BITS, _mod
from .codec import EncodeFailure, encode
from .core import CodePrefix, SeqPrefix, _Frozen, _nonunit


# Pending codes at least this wide in total are split between this process and
# one forked child, where fork exists, two CPUs are usable and no other thread
# runs. Narrower codes take a few tens of ms at most, against about 2 for a
# fork, and a child is killed unused when the witness comes early, as the
# factorial's does at n = 3.
_FORK_BITS = 250_000
# The share of that width the parent checks. A range's cost grows as its
# running product's width to the power log2(3), Karatsuba's exponent, so the
# ranges cost the same at a cut of 2 ** -(1 / log2(3)) = 0.65. The child also
# builds the product of the codes before the cut, work in its own range, so
# balancing the two needs a higher share: at 0.6 the child's range takes 1.3
# to 1.5 times the CPU time of the parent's on Fibonacci and Mersenne at
# L = 1500. Forked runs at 0.6, 0.65, 0.7 and 0.75 on a 2-CPU machine were
# the same within noise, so the share stays until a wider measurement.
_PARENT_SHARE = 0.6


class C1Witness(_Frozen):
    """Pair of incomparable indices whose codes share a factor g >= 2."""

    n: int
    k: int
    g: int


class MorphicWitness(_Frozen):
    """Index pair where gcd(F_n, F_m) != F_{gcd(n, m)}."""

    n: int
    m: int
    got: int
    expected: int


def check_c1(c: CodePrefix) -> C1Witness | None:
    """First violation of the coprimality condition on codes, or None.

    A shared factor >= 2 between c_n and an earlier c_k with k not dividing
    n is exactly what makes the decoded sequence non-GCD-morphic. Each
    non-unit c_n is tested once, by the residue lemma in PAPER.md: (C1)
    fails at n exactly when gcd(c_n, (P mod s_n c_n) / s_n) > 1, where P is
    the product of the non-unit codes c_k with 1 < k < n, and s_n the part
    of the codes at the divisors 1 < d < n of n made of primes of c_n.
    Passes over the multiples of the non-unit k, the sum of L/k over them,
    list those divisors for a window of indices from some n_0 to below 2 n_0
    at a time, as the check reaches it. The residues come in blocks whose
    moduli s_n c_n are together about as wide as P, each block from one
    remainder tree over the codes' product tree, which also gives, past the
    block, the next P; the wide reductions use Burnikel-Ziegler division
    (``_arith``). Each tree yields its residues in index order, depth first,
    so the check ends at the first failing n before any residue to its right
    is reduced; the smallest k is then found by a scan of the non-unit
    indices at that n. Where ``_cut``
    allows, a forked child checks the indices past a cut at the same time
    (``_scan_forked``).
    """
    codes = c.codes
    pending = _nonunit(c)
    if codes[0] != 1:
        del pending[0]  # 1 divides every n, so c_1 is never pending
    cut = _cut(codes, pending)
    if cut:
        return _scan_forked(codes, pending, cut)
    return _scan(codes, pending, 0, len(pending))


def _scan(codes: tuple[int, ...], pending: list[int], start: int, stop: int) -> C1Witness | None:
    """First violation of (C1) at the indices ``pending[start:stop]``, or None.

    P of the residue lemma at ``pending[start]`` is seeded with the product of
    the codes at ``pending[:start]``.
    """
    product = _product_tree([codes[n - 1] for n in pending[:start]])[-1][0] if start else 1
    end = start  # of the window of pending whose divisors are listed
    while start < stop:
        block, smooth_parts, width = [], [], 0
        # A block narrower than _BZ_BITS would only add a tree whose
        # reductions builtin divmod does as fast.
        bound = max(product.bit_length(), _BZ_BITS)
        while start < stop and width <= bound:
            if start == end:
                end = bisect_left(pending, 2 * pending[start], start, stop)
                divisors = _divisors(pending, start, end)
            n = pending[start]
            start += 1
            s = _smooth_part(prod(codes[k - 1] for k in divisors[n]), codes[n - 1])
            block.append(n)
            smooth_parts.append(s)
            width += (s * codes[n - 1]).bit_length()
        factors = _product_tree([codes[n - 1] for n in block])
        residues = _residues(product, factors, _product_tree(smooth_parts))
        # residues first: zip then runs the generator to its end, which frees
        # its stack and the smooth parts' tree before the next block is built
        for r, n, s in zip(residues, block, smooth_parts):
            cn = codes[n - 1]
            if gcd(cn, r // s) > 1:
                # a unit c_k shares no factor, so k is the first such non-unit index
                k = next(k for k in pending if n % k and gcd(cn, codes[k - 1]) > 1)
                return C1Witness(n, k, gcd(cn, codes[k - 1]))
        if start < stop:  # after the last block it is never read
            product *= factors[-1][0]
    return None


def _divisors(pending: list[int], lo: int, hi: int) -> dict[int, list[int]]:
    """The non-unit proper divisors of each n in ``pending[lo:hi]``, a window
    below twice its first index, so that they all lie before it: one pass over
    the multiples of each k in ``pending`` up to half the window's last index."""
    divisors = {n: [] for n in pending[lo:hi]}
    first, last = pending[lo], pending[hi - 1]
    window = divisors.keys()
    for k in pending[:bisect_right(pending, last // 2)]:
        for m in window & range(-(-first // k) * k, last + 1, k):
            divisors[m].append(k)
    return divisors


def _cut(codes: tuple[int, ...], pending: list[int]) -> int:
    """The index of ``pending`` at which to split the check with a forked
    child, or 0 to check it all in this process."""
    widths = list(accumulate(codes[n - 1].bit_length() for n in pending))
    if not widths or widths[-1] < _FORK_BITS or not hasattr(os, "fork"):
        return 0
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")  # no thread was started without it
    if cpus < 2 or threading is not None and threading.active_count() > 1:
        return 0
    return bisect_left(widths, widths[-1] * _PARENT_SHARE)


def _scan_forked(codes: tuple[int, ...], pending: list[int], cut: int) -> C1Witness | None:
    """``_scan`` of all of ``pending``, with ``pending[cut:]`` checked at the same
    time by a forked child.

    The child seeds its range with the product of the codes before it (the
    residue lemma in PAPER.md) and sends back its witness. A witness in this
    process's range is smaller, so it is the answer, and the child is killed;
    otherwise the child's result is. If the child sends none, this process
    checks the child's range itself. The child is always reaped, and both
    pipe ends closed, before this returns or raises.
    """
    import signal  # here, not at the top: the CLI's start-up does not load it

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no child to be had
        os.close(read_end)
        os.close(write_end)
        return _scan(codes, pending, 0, len(pending))
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            found = _scan(codes, pending, cut, len(pending))
            with open(write_end, "wb") as pipe:
                marshal.dump(None if found is None else (found.n, found.k, found.g), pipe)
            status = 0
        finally:
            os._exit(status)  # never back into the caller's stack
    os.close(write_end)
    data = None
    try:
        with open(read_end, "rb") as pipe:
            found = _scan(codes, pending, 0, cut)
            if found is not None:
                return found
            data = pipe.read()  # up to the child's exit
    finally:
        if data is None:  # this range failed, or raised
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) == 0:
        found = marshal.loads(data)
        return None if found is None else C1Witness(*found)
    return _scan(codes, pending, cut, len(pending))


def _smooth_part(d: int, c: int) -> int:
    """Largest divisor of d made only of primes of c.

    Each round divides out g and takes the next g against g squared, so a
    prime power p^e in d goes in about log2(e) rounds, not e.
    """
    s, g = 1, gcd(d, c)
    while g > 1:
        s *= g
        d //= g
        g = gcd(d, g * g)
    return s


def _product_tree(values: list[int]) -> list[list[int]]:
    """Levels of a product tree, leaves first; node i of a level is the
    product of nodes 2i and 2i+1 (if present) of the level below."""
    levels = [values]
    while len(values) > 1:
        pairs = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        values = pairs + values[len(values) & ~1:]
        levels.append(values)
    return levels


def _residues(x: int, factors: list[list[int]], smooth: list[list[int]]) -> Iterator[int]:
    """x * (f_0 ... f_{i-1}) mod f_i s_i, for each leaf i of the product trees
    ``factors`` of the f_i and ``smooth`` of the s_i in turn: the accumulating
    remainder tree of Costa, Gerbicz and Harvey.

    The tree is reduced depth first, as the leaves are taken, so no subtree
    to the right of the last leaf taken has been reduced yet. Each node's
    modulus, the code node times the smooth node, is formed as the tree
    descends: one wide-by-narrow multiply. A right child's residue is
    (r f) mod m = ((r mod m) f) mod m, for the parent's residue r and the
    left sibling's factor f: reducing r first keeps the product narrow.
    """
    stack = [(len(factors) - 1, 0, x)]  # the root and right children, with their parents' residues
    while stack:
        level, i, r = stack.pop()
        fs = factors[level]
        m = fs[i] * smooth[level][i]
        r = _mod(_mod(r, m) * fs[i - 1], m) if i % 2 else _mod(r, m)
        while level:  # down the left children to a leaf
            level, i = level - 1, 2 * i
            fs = factors[level]
            if i + 1 < len(fs):
                stack.append((level, i + 1, r))
            r = _mod(r, fs[i] * smooth[level][i])
        yield r


def check_gcd_morphic(f: SeqPrefix) -> MorphicWitness | None:
    """Brute-force check of gcd(F_n, F_m) == F_{gcd(n, m)} over all pairs.

    Examines every ordered pair 1 <= m <= n <= L (L(L+1)/2 of them); this is
    the defining property itself, so a None result is ground truth for the
    prefix.
    """
    terms = f.terms
    for n in range(1, len(terms) + 1):
        fn = terms[n - 1]
        for m in range(1, n + 1):
            got = gcd(fn, terms[m - 1])
            expected = terms[gcd(n, m) - 1]
            if got != expected:
                return MorphicWitness(n, m, got, expected)
    return None


class Certificate(_Frozen):
    """Joint verdict of the encoder route and the brute-force route.

    ``certify`` builds one only when the routes agree: encode succeeded and
    C1 passed exactly when the brute force passed, and a C1 witness names
    the brute force's index pair.
    """

    code: CodePrefix | None
    encode_failure: EncodeFailure | None
    c1_witness: C1Witness | None
    morphic_witness: MorphicWitness | None

    @property
    def ok(self) -> bool:
        """True iff the prefix is certified GCD-morphic by both routes."""
        return (
            self.code is not None
            and self.c1_witness is None
            and self.morphic_witness is None
        )


def certify(f: SeqPrefix) -> Certificate:
    """Run both decision routes on ``f`` and bundle the outcomes.

    Encode success alone is a known false positive (the factorial sequence
    encodes cleanly but is not GCD-morphic), so callers should rely on this
    rather than on encode by itself. Failures are recorded as data; only
    routes that disagree, a bug, raise ``AssertionError``.
    """
    try:
        code, failure = encode(f), None
    except EncodeFailure as exc:
        # without its traceback, which holds this frame and encode's working lists
        code, failure = None, exc.with_traceback(None)
    c1w = check_c1(code) if code is not None else None
    mw = check_gcd_morphic(f)
    # by the agreement lemma and its corollary in PAPER.md, neither ever holds
    if (code is not None and c1w is None) != (mw is None) or (
            c1w is not None and (c1w.n, c1w.k) != (mw.n, mw.m)):
        raise AssertionError("validator routes disagree; this is a bug")
    return Certificate(code, failure, c1w, mw)
