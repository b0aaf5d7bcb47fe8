"""The prefix types and primary sequences.

Sequences and codes are finite 1-indexed prefixes of positive integers.
Values are plain Python ints, so arbitrary precision comes for free; the
Fibonacci and Mersenne reference sequences exceed 64 bits well inside the
lengths exercised by the test suite.

A prefix is validated once, where its values enter the program: by the
public constructors ``SeqPrefix(...)`` and ``CodePrefix(...)``, and by the
CLI's wire reader. Library code that builds a prefix from values it has
already validated (exact quotients and products of positive ints, primes)
uses the private ``_trusted`` constructor, which skips the walk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator, TypeVar

_P = TypeVar("_P", bound="_Prefix")


def _positive(name: str, value: int) -> None:
    """Raise ValueError unless ``value`` is an int >= 1 (a bool is not)."""
    if type(value) is not int or value < 1:  # not isinstance: True is an int
        raise ValueError(f"{name} must be positive, got {value!r}")


def _validated(values: Iterable[int], what: str) -> tuple[int, ...]:
    out = tuple(values)
    if not out:
        raise ValueError(f"{what} needs at least one value")
    # the walk runs only to name the first bad value
    if set(map(type, out)) != {int} or min(out) < 1:
        for i, v in enumerate(out, start=1):
            _positive(f"{what}[{i}]", v)
    return out


class _Prefix:
    """Body of the prefix types: their one dataclass field holds a non-empty
    tuple of positive ints, which ``_at`` reads with 1-based indices.

    The public constructor checks that on every call. ``_trusted`` does not,
    and is only for the library and the CLI's wire reader (see the module
    docstring).
    """

    @classmethod
    def _trusted(cls: type[_P], values: tuple[int, ...]) -> _P:
        """A prefix holding ``values`` as given, without ``__post_init__``'s walk.

        The caller vouches for what the walk checks: ``values`` is a non-empty
        tuple of ints (not bools), each >= 1.
        """
        prefix = object.__new__(cls)
        object.__setattr__(prefix, fields(cls)[0].name, values)
        return prefix

    @property
    def _values(self) -> tuple[int, ...]:
        return getattr(self, fields(self)[0].name)

    def __post_init__(self) -> None:
        name = fields(self)[0].name
        object.__setattr__(self, name, _validated(getattr(self, name), name))

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def _at(self, n: int) -> int:
        values = self._values
        if not 1 <= n <= len(values):
            raise IndexError(f"index {n} outside 1..{len(values)}")
        return values[n - 1]


@dataclass(frozen=True)
class SeqPrefix(_Prefix):
    """Finite prefix (F_1, ..., F_L) of a positive-integer sequence.

    Indexing is 1-based throughout: ``term(n)`` is F_n. The raw tuple is
    available as ``terms`` with the usual 0-based offsets.
    """

    terms: tuple[int, ...]

    def term(self, n: int) -> int:
        """F_n (1-based)."""
        return self._at(n)


@dataclass(frozen=True)
class CodePrefix(_Prefix):
    """Finite prefix (c_1, ..., c_L) of an encoding sequence, 1-indexed."""

    codes: tuple[int, ...]

    def code(self, n: int) -> int:
        """c_n (1-based)."""
        return self._at(n)


@dataclass(frozen=True)
class PrimarySpec:
    """A primary sequence: ``value`` at every multiple of ``period``, 1 elsewhere."""

    value: int
    period: int

    def __post_init__(self) -> None:
        _positive("value", self.value)
        _positive("period", self.period)


def primary_prefix(spec: PrimarySpec, length: int) -> SeqPrefix:
    """First ``length`` terms of the primary sequence described by ``spec``."""
    _positive("length", length)
    terms = [1] * length
    for i in range(spec.period, length + 1, spec.period):
        terms[i - 1] = spec.value
    return SeqPrefix._trusted(tuple(terms))


def pointwise_product(a: SeqPrefix, b: SeqPrefix) -> SeqPrefix:
    """Index-wise product of two equal-length prefixes."""
    if len(a) != len(b):
        raise ValueError(f"prefix lengths differ: {len(a)} vs {len(b)}")
    return SeqPrefix._trusted(tuple(x * y for x, y in zip(a.terms, b.terms)))
