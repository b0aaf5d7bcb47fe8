"""Named reference sequences with exact prefix emitters.

``radical`` maps n to the product of the distinct primes dividing n; its
code is n at primes and 1 everywhere else, which makes it a handy golden
input for the encoder. ``factorial`` is the deliberate trap: it encodes
without error yet is not GCD-morphic, so anything claiming certification
from encode success alone will trip over it.

``emit`` also accepts the parameterized names of ``PARAMETERIZED_FORMS``.
They are emit patterns, not rows of ``entries()``: a listed entry must
carry a total emitter, which a placeholder template cannot.
"""

from __future__ import annotations

from itertools import repeat
from math import isqrt
from operator import floordiv
from typing import Callable

from .core import PrimarySpec, SeqPrefix, _decimal, _Frozen, _positive, primary_prefix


class UnknownName(KeyError):
    """Requested name is not in the catalog and matches no parameterized form."""


class CatalogEntry(_Frozen):
    name: str
    description: str
    emitter: Callable[[int], SeqPrefix]
    expected_morphic: bool


def _built(terms: tuple[int, ...]) -> SeqPrefix:
    # an emitter's terms are positive ints by construction, so only an empty prefix, of a
    # length below 1, goes to the public constructor, which refuses it
    return SeqPrefix._trusted(terms) if terms else SeqPrefix(terms)


def _ones(length: int) -> SeqPrefix:
    return _built((1,) * length)


def _naturals(length: int) -> SeqPrefix:
    return _built(tuple(range(1, length + 1)))


def _fibonacci(length: int) -> SeqPrefix:
    terms: list[int] = []
    a, b = 1, 1
    for _ in range(length):
        terms.append(a)
        a, b = b, a + b
    return _built(tuple(terms))


def _mersenne(length: int) -> SeqPrefix:
    return _built(tuple((1 << n) - 1 for n in range(1, length + 1)))


def _radical(length: int) -> SeqPrefix:
    # n keeps one factor of each prime p dividing it once p is divided out of
    # every multiple of p^k, for each k >= 2 with p^k <= length: about
    # 0.77 * length divisions, in about 100 slice updates at length 1e5.
    rad = list(range(1, length + 1))  # rad[i] becomes the radical of i + 1
    for p in range(2, isqrt(length) + 1):
        if all(p % d for d in range(2, isqrt(p) + 1)):  # p is prime
            power = p * p
            while power <= length:
                rad[power - 1::power] = map(floordiv, rad[power - 1::power], repeat(p))
                power *= p
    return _built(tuple(rad))


def _factorial(length: int) -> SeqPrefix:
    terms = []
    acc = 1
    for n in range(1, length + 1):
        acc *= n
        terms.append(acc)
    return _built(tuple(terms))


_ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry("ones", "all terms 1", _ones, True),
    CatalogEntry("naturals", "F_n = n", _naturals, True),
    CatalogEntry("fibonacci", "F_1 = F_2 = 1, F_n = F_{n-1} + F_{n-2}", _fibonacci, True),
    CatalogEntry("mersenne", "F_n = 2^n - 1", _mersenne, True),
    CatalogEntry("radical", "product of the distinct primes dividing n", _radical, True),
    CatalogEntry(
        "factorial",
        "F_n = n!; encodes cleanly but is not GCD-morphic",
        _factorial,
        False,
    ),
)

# (pattern, description, expected_morphic) rows for discovery; resolved by emit().
PARAMETERIZED_FORMS: tuple[tuple[str, str, bool], ...] = (
    ("primary:C:N", "value C at multiples of N, 1 elsewhere", True),
    ("constant:C", "constant sequence C, C, C, ...", True),
)


def entries() -> tuple[CatalogEntry, ...]:
    """All fixed catalog entries in stable order."""
    return _ENTRIES


def emit(name: str, length: int) -> SeqPrefix:
    """Exact prefix of the named sequence; raises UnknownName for bad names."""
    _positive("length", length)
    for entry in _ENTRIES:
        if entry.name == name:
            return entry.emitter(length)
    family, _, params = name.partition(":")
    if family == "constant":
        params += ":1"  # constant:C is primary:C:1
    elif family != "primary":
        raise UnknownName(name)
    try:
        value, period = map(_decimal, params.split(":"))
        spec = PrimarySpec(value, period)
    except ValueError:  # not two decimal parameters (see core._decimal), or a zero
        raise UnknownName(name) from None
    return primary_prefix(spec, length)
