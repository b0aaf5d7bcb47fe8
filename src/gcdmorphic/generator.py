"""Seeded construction of codes that satisfy the coprimality condition.

For a single prime, the largest support the coprimality condition allows
across a code is a set of indices totally ordered by divisibility. The
generator therefore assigns each drawn prime one divisibility chain of
indices (start anywhere, repeatedly multiply by a factor in [2, 4] until the
length is exceeded) and multiplies a bounded power of the prime into every
chain member. Two incomparable indices then never share a prime, so the
decoded sequence is GCD-morphic by construction.

``corrupt`` is the negative-test factory: it plants a shared prime on one
incomparable pair, which breaks the condition at exactly that pair.
"""

from __future__ import annotations

import random
from math import gcd, isqrt, prod

from .core import _STRETCH, CodePrefix, _clear, _nonunit, _positive, _shown

RNG_ALGORITHM = "mt19937"  # stdlib random.Random; identifier for output metadata
MAX_SEED = 2**64 - 1

_FACTOR_BOUND = 1000  # corrupt plants a prime of a partner code only up to this bound
# sieve of Eratosthenes: each p up to sqrt(bound) crosses off its multiples from p*p on
_COMPOSITES = {m for p in range(2, isqrt(_FACTOR_BOUND) + 1)
               for m in range(p * p, _FACTOR_BOUND + 1, p)}
_FACTOR_PRIMES = tuple(n for n in range(2, _FACTOR_BOUND + 1) if n not in _COMPOSITES)
_PRIMORIAL = prod(_FACTOR_PRIMES)
_PLANT_PRIMES = _FACTOR_PRIMES[:6]

_POOL = _FACTOR_PRIMES[:20]  # generate draws one prime per chain from 2..71
_CHAINS = 10
_MAX_EXPONENT = 2


def _check_seed(seed: int) -> None:
    if type(seed) is not int or not 0 <= seed <= MAX_SEED:  # not isinstance: True is an int
        raise ValueError(f"seed must fit in 64 unsigned bits, got {_shown(seed)}")


def generate(length: int, seed: int) -> CodePrefix:
    """Pseudo-random code of ``length`` codes that passes check_c1; the same
    arguments give byte-identical output.

    Each of 10 rounds draws a fresh prime from the first 20 primes and a
    divisibility chain of indices, then multiplies prime powers (exponents 1
    or 2) into the chain members. Untouched codes stay 1, matching the sparse
    shape of the reference encodings. Raises ValueError unless ``length`` is a
    positive int and ``seed`` fits in 64 unsigned bits.
    """
    _positive("length", length)
    _check_seed(seed)
    rng = random.Random(seed)
    codes = [1] * length
    support = _clear(length)
    pool = list(_POOL)
    for _ in range(_CHAINS):
        q = pool.pop(rng.randrange(len(pool)))
        idx = rng.randint(1, length)
        while idx <= length:
            codes[idx - 1] *= q ** rng.randint(1, _MAX_EXPONENT)
            support[(idx - 1) // _STRETCH] = 1
            idx *= rng.randint(2, 4)
    return CodePrefix._trusted(tuple(codes), support)


def corrupt(c: CodePrefix, seed: int) -> CodePrefix:
    """Copy of ``c`` with one code multiplied so that check_c1 must fail.

    Picks an index k >= 2 and an index incomparable with it, then multiplies
    c_k by the smallest prime up to 1000 that the partner carries (planting a
    fresh prime at both positions when no partner carries one). The changed
    pair is incomparable, so it violates the coprimality condition outright.
    """
    length = len(c)
    if length < 3:
        raise ValueError(f"need at least 3 codes to corrupt, got {length}")
    _check_seed(seed)
    rng = random.Random(seed)
    codes = list(c.codes)
    support = bytearray(c._support)

    k = rng.randint(2, length)
    # A partner n is incomparable with k (n % k and k % n). Only a non-unit
    # code carries primes; those up to the bound are the primes of one gcd,
    # and the smallest of them is the one planted.
    carried = [g for g in (gcd(codes[n - 1], _PRIMORIAL) for n in _nonunit(c)
                           if n % k and k % n) if g > 1]
    if carried:
        g = carried[rng.randrange(len(carried))]
        q = next(p for p in _FACTOR_PRIMES if g % p == 0)
        codes[k - 1] *= q
    else:
        # k+1 (or length-1 when k == length) is always incomparable, so this
        # is never empty for length >= 3.
        partners = [n for n in range(2, length + 1) if n % k and k % n]
        n0 = partners[rng.randrange(len(partners))]
        q = _PLANT_PRIMES[rng.randrange(len(_PLANT_PRIMES))]
        codes[n0 - 1] *= q
        codes[k - 1] *= q
        support[(n0 - 1) // _STRETCH] = 1
    support[(k - 1) // _STRETCH] = 1
    return CodePrefix._trusted(tuple(codes), support)
