"""Division of wide integers in time that follows Karatsuba multiplication.

CPython before 3.12 divides long ints by schoolbook, in time quadratic in
their width. Burnikel and Ziegler ("Fast Recursive Division", 1998) cut the
dividend into divisor-wide digits and divide each two-digit step
recursively, so the cost follows Karatsuba multiplication; CPython 3.12's
``_pylong.int_divmod`` is the same algorithm. ``_divmod`` is the one
division routine and ``_mod`` keeps only its remainder.
"""

from __future__ import annotations

_BZ_BITS = 4000  # narrower divisors or quotients: builtin divmod is faster


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0, by Burnikel-Ziegler division when wide."""
    n = b.bit_length()
    if n <= _BZ_BITS or a.bit_length() - n <= _BZ_BITS:
        return divmod(a, b)
    mask = (1 << n) - 1
    q = r = 0
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):
        digit, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | digit
    return q, r


def _mod(a: int, b: int) -> int:
    """a % b for a >= 0 and b > 0: the remainder of ``_divmod``."""
    return _divmod(a, b)[1]


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and a < b << n."""
    if a.bit_length() - n <= _BZ_BITS:
        return divmod(a, b)
    pad = n & 1  # an odd width is doubled so that it halves evenly
    if pad:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, h: int) -> tuple[int, int]:
    """divmod(a12 << h | a3, b) for b = b1 << h | b2 and a quotient below 2**h."""
    if a12 >> h == b1:
        q, r = (1 << h) - 1, a12 - (b1 << h) + b1
    else:
        q, r = _div2n1n(a12, b1, h)
    r = (r << h | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r
