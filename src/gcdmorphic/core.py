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

A prefix also carries a private *support*: one flag per stretch of
``_STRETCH`` consecutive values, set wherever a value other than 1 can lie.
The readers of non-unit values (``_nonunit``, the CLI's wire writer) look
only inside flagged stretches. A producer that knows where its non-units
went hands the support to ``_trusted``, and so vouches for it as well: a
stretch left unflagged must hold only 1s. Without one, the support is
computed on first use, by comparing each stretch with a stretch of 1s.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterator, TypeVar

_P = TypeVar("_P", bound="_Prefix")


def _shown(value: object) -> str:
    """``repr(value)`` for a library message; an int too wide for CPython's
    int-to-str digit limit is named by its sign and width instead
    (``a 16610-bit value``, ``a negative 16610-bit value``), and any other
    value whose ``repr`` fails by its type (``a list too wide to print``).
    """
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):  # e.g. a list holding a wide int
            return f"a {type(value).__name__} too wide to print"
        sign = "negative " if value < 0 else ""
        return f"a {sign}{value.bit_length()}-bit value"


def _positive(name: str, value: int) -> None:
    """Raise ValueError unless ``value`` is an int >= 1 (a bool is not)."""
    if type(value) is not int or value < 1:  # not isinstance: True is an int
        raise ValueError(f"{name} must be positive, got {_shown(value)}")


def _decimal(text: str) -> int:
    """``int(text)`` for ASCII decimal digits, the one rule for every integer a user
    types (wire lines, CLI options, catalog parameters); else ValueError, with CPython's
    own message past the int-to-str digit limit. Range checks are the caller's."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


class _Frozen:
    """Base of the value types: a frozen dataclass's ``__init__`` (then the hook
    ``__post_init__``), ``==``, ``hash`` and ``repr`` over the fields a subclass annotates.
    ``__dict__`` holds them first, in order, and may hold a private cache after them,
    which pickle and copy drop: they restore the fields without ``__setattr__``."""

    def __init_subclass__(cls) -> None:
        # inherited fields first; since 3.10 a class's __annotations__ are its own only
        cls._fields = (*getattr(cls, "_fields", ()), *cls.__annotations__)
        cls._bind = namedtuple(cls.__name__, cls._fields)  # binds __init__'s arguments

    def __init__(self, *args: object, **kwargs: object) -> None:
        self.__dict__.update(zip(self._fields, self._bind(*args, **kwargs)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._astuple() == other._astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __getstate__(self) -> dict[str, object]:
        return {name: self.__dict__[name] for name in self._fields}

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _refuse


class _Prefix(_Frozen):
    """Body of the prefix types: their one field holds a non-empty tuple of positive ints,
    which ``_at`` reads with 1-based indices. The public constructor's ``__post_init__``
    checks that on every call. ``_trusted`` does not, and is only for the library and the
    CLI's wire reader (see the module docstring)."""

    @classmethod
    def _trusted(cls: type[_P], values: tuple[int, ...], support: bytes | None = None) -> _P:
        """A prefix holding ``values`` as given, without ``__post_init__``'s walk.

        The caller vouches for what the walk checks: ``values`` is a non-empty
        tuple of ints (not bools), each >= 1. A ``support`` given (see ``_support``)
        is vouched for too: each stretch it leaves unflagged holds only 1s.
        """
        prefix = object.__new__(cls)
        prefix.__dict__[cls._fields[0]] = values
        if support is not None:
            prefix.__dict__["_support"] = bytes(support)
        return prefix

    @cached_property
    def _support(self) -> bytes:
        """Byte i is 1 if a value other than 1 can lie at the 0-based indices
        ``i * _STRETCH`` up to ``(i + 1) * _STRETCH``, else 0. Unless ``_trusted``
        was given it, it is computed here once, by one tuple compare per stretch with
        ``_UNIT_STRETCH`` (cut to the length of a short last stretch)."""
        values = self._values
        size = len(values)
        return bytes(values[at:at + _STRETCH] != _UNIT_STRETCH[:size - at]
                     for at in range(0, size, _STRETCH))

    def _runs(self) -> Iterator[tuple[int, int]]:
        """The maximal 0-based index ranges ``start:stop`` of flagged stretches, ascending;
        every value outside them is 1."""
        support, size = self._support, len(self._values)
        stop = 0
        while (start := support.find(1, stop)) >= 0:
            stop = support.find(0, start)
            if stop < 0:
                stop = len(support)
            yield start * _STRETCH, min(stop * _STRETCH, size)

    @property
    def _values(self) -> tuple[int, ...]:
        return self.__dict__[self._fields[0]]

    def __post_init__(self) -> None:
        name = self._fields[0]
        values = self.__dict__[name] = tuple(self.__dict__[name])
        if not values:
            raise ValueError(f"{name} needs at least one value")
        if set(map(type, values)) != {int} or min(values) < 1:  # walk only to name the bad one
            for i, v in enumerate(values, start=1):
                _positive(f"{name}[{i}]", v)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def _at(self, n: int) -> int:
        values = self._values
        if type(n) is not int or not 1 <= n <= len(values):  # not isinstance: True is an int
            raise IndexError(f"index {_shown(n)} outside 1..{len(values)}")
        return values[n - 1]


class SeqPrefix(_Prefix):
    """Finite prefix (F_1, ..., F_L) of a positive-integer sequence.

    Indexing is 1-based throughout: ``term(n)`` is F_n. The raw tuple is
    available as ``terms`` with the usual 0-based offsets.
    """

    terms: tuple[int, ...]

    def term(self, n: int) -> int:
        """F_n (1-based)."""
        return self._at(n)


class CodePrefix(_Prefix):
    """Finite prefix (c_1, ..., c_L) of an encoding sequence, 1-indexed."""

    codes: tuple[int, ...]

    def code(self, n: int) -> int:
        """c_n (1-based)."""
        return self._at(n)


class PrimarySpec(_Frozen):
    """A primary sequence: ``value`` at every multiple of ``period``, 1 elsewhere."""

    value: int
    period: int

    def __post_init__(self) -> None:
        _positive("value", self.value)
        _positive("period", self.period)


_STRETCH = 64
_UNIT_STRETCH = (1,) * _STRETCH


def _clear(length: int) -> bytearray:
    """The support of ``length`` values all 1, for a producer to flag."""
    return bytearray(-(-length // _STRETCH))


def _nonunit(prefix: _Prefix) -> list[int]:
    """The 1-based indices n, ascending, at which ``prefix``'s n-th value is not 1.

    Only the values in the flagged stretches of the prefix's support are scanned.
    """
    values = prefix._values
    found: list[int] = []
    for start, stop in prefix._runs():
        # faster than compress over map(ne, ...), on dense runs and sparse ones
        found += [n for n, v in enumerate(values[start:stop], start + 1) if v != 1]
    return found


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
