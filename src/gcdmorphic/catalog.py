"""Named reference sequences with exact prefix emitters.

Fixed entries: ones, naturals, fibonacci, mersenne, radical, factorial.
``radical`` maps n to the product of the distinct primes dividing n; its
code is n at primes and 1 everywhere else, which makes it a handy golden
input for the encoder. ``factorial`` is the deliberate trap: it encodes
without error yet is not GCD-morphic, so anything claiming certification
from encode success alone will trip over it.

Two parameterized name families are accepted by ``emit`` as well:

    primary:C:N    value C at multiples of N, 1 elsewhere
    constant:C     the constant sequence C, C, C, ..., i.e. primary:C:1

The family names are emit patterns, not rows of ``entries()``: a listed
entry must carry a total emitter, which a placeholder template cannot.
"""

from __future__ import annotations

from typing import Callable

from .core import PrimarySpec, SeqPrefix, _decimal, _Frozen, _positive, primary_prefix


class UnknownName(KeyError):
    """Requested name is not in the catalog and matches no parameterized form."""


class CatalogEntry(_Frozen):
    name: str
    description: str
    emitter: Callable[[int], SeqPrefix]
    expected_morphic: bool


def _ones(length: int) -> SeqPrefix:
    return SeqPrefix((1,) * length)


def _naturals(length: int) -> SeqPrefix:
    return SeqPrefix(tuple(range(1, length + 1)))


def _fibonacci(length: int) -> SeqPrefix:
    terms: list[int] = []
    a, b = 1, 1
    for _ in range(length):
        terms.append(a)
        a, b = b, a + b
    return SeqPrefix(tuple(terms))


def _mersenne(length: int) -> SeqPrefix:
    return SeqPrefix(tuple((1 << n) - 1 for n in range(1, length + 1)))


def _radical(length: int) -> SeqPrefix:
    rad = [1] * length  # rad[i] is the radical of i + 1
    for p in range(2, length + 1):
        if rad[p - 1] == 1:  # no smaller prime divides p, so p is prime
            for i in range(p - 1, length, p):
                rad[i] *= p
    return SeqPrefix(tuple(rad))


def _factorial(length: int) -> SeqPrefix:
    terms = []
    acc = 1
    for n in range(1, length + 1):
        acc *= n
        terms.append(acc)
    return SeqPrefix(tuple(terms))


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
