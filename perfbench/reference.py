"""Plain reference code for the outputs the benchmark expects from the CLI.

Everything here follows the definitions in the README and imports nothing
from ``gcdmorphic``, so an expectation derived with it does not come from the
code under test. Speed matters only as far as ``expect.py`` has to finish:
the divisor lists come from a sieve, and the (C1) scan skips unit codes on
both sides, because gcd(x, 1) = 1 can never witness a violation.
"""

from __future__ import annotations

from decimal import Decimal
from math import factorial, gcd


def format_values(values) -> str:
    """Wire format: one decimal integer per line.

    ``str`` refuses ints above 4300 digits on CPython >= 3.11; ``Decimal``
    converts exactly without that limit, and the benchmark never lifts it.
    """
    return "".join(str(Decimal(v)) + "\n" for v in values)


def parse_values(text: str) -> list[int]:
    return [int(line) for line in text.splitlines() if line and not line.startswith("#")]


def ok_line() -> str:
    return '{"ok":true}\n'


def c1_line(n: int, k: int, g: int) -> str:
    return f'{{"kind":"c1","n":{n},"k":{k},"g":"{g}"}}\n'


def morphic_line(n: int, m: int, got: int, expected: int) -> str:
    return f'{{"kind":"morphic","n":{n},"m":{m},"got":"{got}","expected":"{expected}"}}\n'


def _smallest_prime_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def emit(name: str, length: int) -> list[int]:
    """The catalog sequences the benchmark uses, straight from their definitions."""
    if name == "naturals":
        return list(range(1, length + 1))
    if name == "fibonacci":
        out, a, b = [], 1, 1
        for _ in range(length):
            out.append(a)
            a, b = b, a + b
        return out
    if name == "mersenne":
        return [2**n - 1 for n in range(1, length + 1)]
    if name == "factorial":
        return [factorial(n) for n in range(1, length + 1)]
    if name == "radical":
        spf = _smallest_prime_factors(length)
        out = []
        for n in range(1, length + 1):
            r, rest = 1, n
            while rest > 1:
                p = spf[rest]
                r *= p
                while rest % p == 0:
                    rest //= p
            out.append(r)
        return out
    raise KeyError(name)


def divisor_lists(length: int) -> list[list[int]]:
    """divs[n] = the divisors of n in ascending order, for 1 <= n <= length."""
    divs: list[list[int]] = [[] for _ in range(length + 1)]
    for d in range(1, length + 1):
        for m in range(d, length + 1, d):
            divs[m].append(d)
    return divs


def encode(seq: list[int]) -> list[int] | None:
    """c_n = F_n / prod of c_d over d | n, d < n; None if a division is inexact."""
    divs = divisor_lists(len(seq))
    code: list[int] = []
    for n, fn in enumerate(seq, start=1):
        den = 1
        for d in divs[n][:-1]:
            den *= code[d - 1]
        q, r = divmod(fn, den)
        if r:
            return None
        code.append(q)
    return code


def decode(code: list[int]) -> list[int]:
    """F_n = prod of c_d over d | n."""
    divs = divisor_lists(len(code))
    out = []
    for n in range(1, len(code) + 1):
        f = 1
        for d in divs[n]:
            f *= code[d - 1]
        out.append(f)
    return out


def c1_witness(code: list[int]) -> tuple[int, int, int] | None:
    """Smallest (n, k) by n then k with k < n, k not dividing n, gcd(c_n, c_k) > 1."""
    seen: list[int] = []  # indices k < n with c_k != 1, ascending
    for n, cn in enumerate(code, start=1):
        if cn == 1:
            continue
        for k in seen:
            if n % k:
                g = gcd(cn, code[k - 1])
                if g > 1:
                    return n, k, g
        seen.append(n)
    return None


def morphic_witness(seq: list[int]) -> tuple[int, int, int, int] | None:
    """Smallest (n, m) by n then m, m <= n, with gcd(F_n, F_m) != F_gcd(n,m)."""
    for n in range(1, len(seq) + 1):
        fn = seq[n - 1]
        for m in range(1, n + 1):
            got = gcd(fn, seq[m - 1])
            want = seq[gcd(n, m) - 1]
            if got != want:
                return n, m, got, want
    return None
