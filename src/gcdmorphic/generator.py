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
from dataclasses import dataclass
from math import gcd, prod

from .core import CodePrefix, _positive, first_primes

RNG_ALGORITHM = "mt19937"  # stdlib random.Random; identifier for output metadata
MAX_SEED = 2**64 - 1
_MAX_PRIMES = 10**6  # GenParams.primes bound, which keeps the prime sieve near a second

_PLANT_PRIMES = (2, 3, 5, 7, 11, 13)
_FACTOR_BOUND = 1000  # corrupt plants a prime of a partner code only up to this bound
_FACTOR_PRIMES = tuple(p for p in first_primes(_FACTOR_BOUND) if p <= _FACTOR_BOUND)
_PRIMORIAL = prod(_FACTOR_PRIMES)


def _check_seed(seed: int) -> None:
    if type(seed) is not int or not 0 <= seed <= MAX_SEED:  # not isinstance: True is an int
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed!r}")


@dataclass(frozen=True)
class GenParams:
    """Knobs for ``generate``; identical params give byte-identical output.

    Each of ``chains`` rounds draws its own prime from the ``primes`` smallest
    primes. Raises ValueError unless length, primes, chains and max_exponent
    are positive ints, the seed fits in 64 unsigned bits, ``primes`` is at most
    10**6, and ``chains`` is at most ``primes``.
    """

    length: int
    seed: int
    primes: int = 20
    chains: int = 10
    max_exponent: int = 2

    def __post_init__(self) -> None:
        _positive("length", self.length)
        _check_seed(self.seed)
        _positive("primes", self.primes)
        if self.primes > _MAX_PRIMES:
            raise ValueError(f"primes must be at most {_MAX_PRIMES}, got {self.primes}")
        _positive("chains", self.chains)
        _positive("max_exponent", self.max_exponent)
        if self.chains > self.primes:
            raise ValueError(f"{self.chains} chains from a pool of {self.primes} primes")


def generate(params: GenParams) -> CodePrefix:
    """Pseudo-random code of the requested length that passes check_c1.

    Each of ``params.chains`` rounds draws a fresh prime from the first
    ``params.primes`` primes and a divisibility chain of indices, then
    multiplies prime powers (exponents in 1..max_exponent) into the chain
    members. Untouched codes stay 1, matching the sparse shape of the
    reference encodings.
    """
    rng = random.Random(params.seed)
    length = params.length
    codes = [1] * length
    pool = list(first_primes(params.primes))
    for _ in range(params.chains):
        q = pool.pop(rng.randrange(len(pool)))
        idx = rng.randint(1, length)
        while idx <= length:
            codes[idx - 1] *= q ** rng.randint(1, params.max_exponent)
            idx *= rng.randint(2, 4)
    return CodePrefix._trusted(tuple(codes))


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

    k = rng.randint(2, length)
    # k+1 (or length-1 when k == length) is always incomparable, so this is
    # never empty for length >= 3.
    partners = [n for n in range(2, length + 1) if n != k and n % k and k % n]

    # Each partner's primes up to the bound are the primes of one gcd; the
    # smallest of them is the one planted.
    carried = [g for g in (gcd(codes[n - 1], _PRIMORIAL) for n in partners) if g > 1]
    if carried:
        g = carried[rng.randrange(len(carried))]
        q = next(p for p in _FACTOR_PRIMES if g % p == 0)
        codes[k - 1] *= q
    else:
        n0 = partners[rng.randrange(len(partners))]
        q = _PLANT_PRIMES[rng.randrange(len(_PLANT_PRIMES))]
        codes[n0 - 1] *= q
        codes[k - 1] *= q
    return CodePrefix._trusted(tuple(codes))
