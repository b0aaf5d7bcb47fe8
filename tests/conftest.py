import os
import sys
from math import isqrt
from pathlib import Path

import pytest

import gcdmorphic
from gcdmorphic import core

# the codes of the first terms of the naturals, Fibonacci and factorial sequences
NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
FIBONACCI_CODE_12 = (1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6)
FACTORIAL_CODE_6 = (1, 2, 6, 12, 120, 60)


def is_prime_oracle(n: int) -> bool:
    # independent of the library's helpers on purpose
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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
    # Every support a producer hands _Prefix._trusted is checked against the support
    # computed from the values: it is ceil(L / 64) bytes and flags each stretch that one
    # flags. This sees in-process calls only, not those of a CLI run in a child process.
    trusted = core._Prefix._trusted.__func__

    def checked(cls, values, support=None):
        prefix = trusted(cls, values, support)
        if support is not None:
            given, computed = prefix._support, core._Prefix._support.func(prefix)
            assert len(given) == len(computed), f"{len(given)}-byte support for L={len(values)}"
            missed = [i for i, (g, c) in enumerate(zip(given, computed)) if c > g]
            assert not missed, f"stretches {missed} hold a value other than 1 but are unflagged"
        return prefix

    monkeypatch.setattr(core._Prefix, "_trusted", classmethod(checked))
