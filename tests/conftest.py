import os
import sys
from itertools import takewhile
from pathlib import Path

import pytest

import gcdmorphic
from gcdmorphic import core

# perfbench/reference.py: the benchmark's expected outputs, from definitions that import
# nothing from gcdmorphic; the tests compare the library and the CLI with it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

# the codes of the first terms of the naturals, Fibonacci and factorial sequences
NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
FIBONACCI_CODE_12 = (1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6)
FACTORIAL_CODE_6 = (1, 2, 6, 12, 120, 60)
# 1-based indices on both sides of the edges of a 64-value stretch and of a 1024-line piece
EDGES = (1, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 2048)


def first_primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division: independent of the library's sieves."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
        n += 1
    return primes


def child_env(**env):
    # the child imports the same package as this process, installed or not
    src = str(Path(gcdmorphic.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **env}


def digit_limit() -> int:
    """The running int<->str digit limit; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


# the widest value the running interpreter writes in decimal; one digit more is
# over the limit when there is one, and a width like any other when there is none
WIDEST = digit_limit() or 4300


def digit_limit_message(digits):
    # CPython's own text for an int() over its int<->str digit limit
    with pytest.raises(ValueError) as exc:
        int("9" * digits)
    return str(exc.value)


@pytest.fixture(autouse=True)
def vouched_supports_hold(monkeypatch):
    # The one check of what a caller of _Prefix._trusted vouches for, at every in-process
    # call (not those of a CLI run in a child process): the values are a non-empty tuple of
    # ints (not bools), each >= 1; and a support given is ceil(L / 64) bytes, each 0 or 1,
    # that flag each stretch the support computed from the values flags.
    trusted = core._Prefix._trusted.__func__

    def checked(cls, values, support=None):
        assert type(values) is tuple and values, f"{type(values).__name__} of {len(values)} values"
        assert set(map(type, values)) == {int} and min(values) >= 1, "(n, value) = " + core._shown(
            next((n, v) for n, v in enumerate(values, 1) if type(v) is not int or v < 1))
        prefix = trusted(cls, values, support)
        if support is not None:
            given, computed = prefix._support, core._Prefix._support.func(prefix)
            assert len(given) == len(computed), f"{len(given)}-byte support for L={len(values)}"
            assert set(given) <= {0, 1}, f"support bytes {sorted(set(given) - {0, 1})}"
            missed = [i for i, (g, c) in enumerate(zip(given, computed)) if c > g]
            assert not missed, f"stretches {missed} hold a value other than 1 but are unflagged"
        return prefix

    monkeypatch.setattr(core._Prefix, "_trusted", classmethod(checked))
