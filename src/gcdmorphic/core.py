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

from collections import namedtuple
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
    ``__dict__`` holds them in order; pickle and copy restore it without ``__setattr__``."""

    def __init_subclass__(cls) -> None:
        # inherited fields first; since 3.10 a class's __annotations__ are its own only
        cls._fields = (*getattr(cls, "_fields", ()), *cls.__annotations__)
        cls._bind = namedtuple(cls.__name__, cls._fields)  # binds __init__'s arguments

    def __init__(self, *args: object, **kwargs: object) -> None:
        self.__dict__.update(zip(self._fields, self._bind(*args, **kwargs)))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other: object) -> bool:
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({shown})"

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _refuse


class _Prefix(_Frozen):
    """Body of the prefix types: their one field holds a non-empty tuple of positive ints,
    which ``_at`` reads with 1-based indices. The public constructor's ``__post_init__``
    checks that on every call. ``_trusted`` does not, and is only for the library and the
    CLI's wire reader (see the module docstring)."""

    @classmethod
    def _trusted(cls: type[_P], values: tuple[int, ...]) -> _P:
        """A prefix holding ``values`` as given, without ``__post_init__``'s walk.

        The caller vouches for what the walk checks: ``values`` is a non-empty
        tuple of ints (not bools), each >= 1.
        """
        prefix = object.__new__(cls)
        prefix.__dict__[cls._fields[0]] = values
        return prefix

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


_UNIT_RUN = (1,) * 1024


def _nonunit(values: tuple[int, ...]) -> list[int]:
    """The 1-based indices n, ascending, at which ``values[n - 1] != 1``.

    Each run of ``len(_UNIT_RUN)`` values is compared whole with ``_UNIT_RUN``, so an
    all-unit run costs one C-level tuple compare; only a run that holds a non-unit is
    scanned value by value. A list never equals a tuple, so pass a tuple.
    """
    found: list[int] = []
    size = len(_UNIT_RUN)
    for start in range(0, len(values), size):
        run = values[start:start + size]
        if run != _UNIT_RUN[:len(run)]:
            # faster than compress over map(ne, ...), on dense runs and sparse ones
            found += [n for n, v in enumerate(run, start + 1) if v != 1]
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
