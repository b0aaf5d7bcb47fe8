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
non-unit entries costs one pass over its L entries to find them, plus a trial
division up to sqrt(n) at each non-unit n to find the codes of its divisors. The
known worst case is a wide code c_k at a small index k: it widens the moduli at those
multiples of k whose codes share one of its primes, and can make ``check_c1`` slower
than a pair scan.

Both checkers return None on pass, otherwise the lexicographically smallest
witness (outer index ascending, then inner ascending), so failures reproduce
byte-for-byte.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import mul

from ._arith import _BZ_BITS, _mod
from .codec import EncodeFailure, encode
from .core import CodePrefix, SeqPrefix, _Frozen


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
    of the codes at the divisors 1 < d < n of n made of primes of c_n. The
    residues come in blocks whose moduli s_n c_n are together about as wide
    as P, each block from one remainder tree over the codes' product tree,
    which also gives the moduli tree and, past the block, the next P; the
    wide reductions use Burnikel-Ziegler division (``_arith``). The check
    stops at the first block holding a failing n; the smallest k is then
    found by a scan of the non-unit indices at that n.
    """
    codes = c.codes
    pending = [n for n in range(2, len(codes) + 1) if codes[n - 1] != 1]
    product = 1  # the non-unit codes c_k, 1 < k, before the block
    start = 0
    while start < len(pending):
        block, smooth_parts, width = [], [], 0
        # A block narrower than _BZ_BITS would only add a tree whose
        # reductions builtin divmod does as fast.
        while start < len(pending) and width <= max(product.bit_length(), _BZ_BITS):
            n = pending[start]
            start += 1
            s = _smooth_part(_proper_divisor_product(codes, n), codes[n - 1])
            block.append(n)
            smooth_parts.append(s)
            width += (s * codes[n - 1]).bit_length()
        factors = _product_tree([codes[n - 1] for n in block])
        residues = _residues(product, factors, _moduli_tree(factors, smooth_parts))
        for n, s, r in zip(block, smooth_parts, residues):
            cn = codes[n - 1]
            if gcd(cn, r // s) > 1:
                # a unit c_k shares no factor, so k is the first such non-unit index
                k = next(k for k in pending if n % k and gcd(cn, codes[k - 1]) > 1)
                return C1Witness(n, k, gcd(cn, codes[k - 1]))
        if start < len(pending):  # after the last block it is never read
            product *= factors[-1][0]
    return None


def _proper_divisor_product(codes: tuple[int, ...], n: int) -> int:
    """Product of c_d over the divisors 1 < d < n of n."""
    d = 1
    for k in range(2, isqrt(n) + 1):
        if n % k == 0:
            d *= codes[k - 1]
            if k < n // k:
                d *= codes[n // k - 1]
    return d


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


def _moduli_tree(factors: list[list[int]], smooth_parts: list[int]) -> list[list[int]]:
    """Product tree of the moduli s_n c_n, from the product tree of the codes.

    Both trees pair the same leaves, so each node is the node of ``factors``
    times the node of the product tree of the s_n, which are mostly a few
    bits wide: one wide-by-narrow multiply per node.
    """
    return [list(map(mul, fs, ss)) for fs, ss in zip(factors, _product_tree(smooth_parts))]


def _residues(x: int, factors: list[list[int]], moduli: list[list[int]]) -> list[int]:
    """x * (product of the factors before leaf i) mod (modulus i), for every
    leaf i: the accumulating remainder tree of Costa, Gerbicz and Harvey.

    A right child's residue is (r f) mod m = ((r mod m) f) mod m, for the
    parent's residue r and the left sibling's factor f: reducing r first
    keeps the product narrow.
    """
    rems = [_mod(x, moduli[-1][0])]
    for level in range(len(moduli) - 2, -1, -1):
        fs, ms, below = factors[level], moduli[level], []
        for i, r in enumerate(rems):
            below.append(_mod(r, ms[2 * i]))
            if 2 * i + 1 < len(ms):
                m = ms[2 * i + 1]
                below.append(_mod(_mod(r, m) * fs[2 * i], m))
        rems = below
    return rems


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
