"""The bijection between sequences and their codes.

A code (c_1, ..., c_L) determines the sequence F_n = prod of c_j over j | n,
i.e. the pointwise product of the primary sequences (c_j at multiples of j).
``encode`` inverts that product one index at a time via

    c_n = F_n / (prod of c_k over k | n, k < n)

and fails fast at the first inexact division. ``peel_primary`` factors a
single primary sequence out of a prefix whose leading terms are already 1;
iterating it over n = 1..L reproduces the encoder term-by-term. Both raise EncodeFailure when a division fails, which
certifies that the input is not GCD-morphic; a broken precondition is a
ValueError. Their messages name an int too wide for CPython's int-to-str
digit limit by its sign and width (see ``core._shown``).

Encode success alone does NOT certify that the input is GCD-morphic: the
factorial sequence encodes cleanly yet fails the coprimality condition on
codes. Certification is encode + validator.check_c1 (see validator.certify).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import mul, ne

from .core import _STRETCH, CodePrefix, PrimarySpec, SeqPrefix, _clear, _nonunit, _shown

_RUN = 1024  # the most indices encode compares with their denominators at once
_UNIT_RUN = (1,) * _RUN


class EncodeFailure(ArithmeticError):
    """An exact division the factorization needs failed: F_index is not a
    multiple of ``denominator``. For ``encode`` that is the accumulated divisor
    product, for ``peel_primary`` the peeled term F_n with n | index. Either
    way the input is not a product of primary sequences and hence not
    GCD-morphic.
    """

    def __init__(self, index: int, numerator: int, denominator: int):
        super().__init__(index, numerator, denominator)
        self.index = index
        self.numerator = numerator
        self.denominator = denominator

    # formatted only on demand: a caller that reads the fields never pays for
    # writing wide values in decimal
    def __str__(self) -> str:
        return (f"term {self.index}: {_shown(self.numerator)} is not divisible by "
                f"{_shown(self.denominator)}")


def encode(f: SeqPrefix) -> CodePrefix:
    """Compute the code of ``f``; raise EncodeFailure at the first inexact division.

    Evaluates n in ascending order so failures are deterministic. Success
    means ``f`` is a product of primary sequences up to its length, not that
    it is GCD-morphic.
    """
    terms = f.terms
    length = len(terms)
    # One list: values[i] holds the denominator of n = i + 1 (the product of c_k over proper
    # divisors k of n) until n's run starts, and c_n after. Runs n0 <= n < 2 * n0 are at most
    # _RUN long: no index in a run divides another and every update lands at 2n or later, so
    # its denominators are final. They are taken out as ``under`` and the run is reset to 1s.
    # c_n != 1 exactly where F_n differs from its denominator: a run equal to them costs one
    # tuple compare, else only the indices that differ are visited; only n <= L/2 has a multiple.
    values = [1] * length
    support = _clear(length)
    start = 0
    while start < length:
        stop = min(2 * start + 1, start + _RUN, length)
        run, under = terms[start:stop], tuple(values[start:stop])
        values[start:stop] = _UNIT_RUN[:stop - start]
        if run != under:
            for i in compress(range(start, stop), map(ne, run, under)):
                q, r = divmod(terms[i], under[i - start])
                if r:
                    raise EncodeFailure(i + 1, terms[i], under[i - start])
                values[i] = q
                support[i // _STRETCH] = 1
                step = i + 1
                if i + step < length:
                    values[i + step::step] = map(mul, values[i + step::step], repeat(q))
        start = stop
    return CodePrefix._trusted(tuple(values), support)


def decode(c: CodePrefix) -> SeqPrefix:
    """Sequence determined by the code: F_n = prod of c_j over j | n.

    Equivalently the pointwise product over j <= L of the primary sequences
    (c_j, j); the product at each index is finite because only divisors of
    the index contribute.
    """
    codes = c.codes
    length = len(codes)
    terms = [1] * length
    support = _clear(length)  # F_n != 1 only at the multiples of a non-unit c_j
    for j in _nonunit(c):
        cj = codes[j - 1]
        for m in range(j - 1, length, j):
            terms[m] *= cj
            support[m // _STRETCH] = 1
    return SeqPrefix._trusted(tuple(terms), support)


def peel_primary(f: SeqPrefix, n: int) -> tuple[PrimarySpec, SeqPrefix]:
    """Factor the primary sequence (f_n, n) out of ``f`` as ``(spec, peeled)``.

    Requires f_1 .. f_{n-1} to all equal 1. The peeled prefix has term k

        1            if k <= n,
        f_k / f_n    if n | k,
        f_k          otherwise,

    so that pointwise_product(primary_prefix(spec, len(f)), peeled) == f.

    Raises ValueError if n is out of range or a leading term differs from 1,
    and EncodeFailure(k, f_k, f_n) if f_n does not divide some f_k with n | k
    (which certifies the input is not GCD-morphic). A peel that succeeds is
    arithmetic only; it does not certify anything about the input.
    """
    length = len(f)
    if type(n) is not int or not 1 <= n <= length:  # not isinstance: True is an int
        raise ValueError(f"peel index {_shown(n)} outside 1..{length}")
    terms = f.terms
    for k in range(1, n):
        v = terms[k - 1]
        if v != 1:
            raise ValueError(
                f"peel at {n} requires terms 1..{n - 1} to be 1, but term {k} is {_shown(v)}"
            )
    base = terms[n - 1]
    peeled = list(terms)
    peeled[n - 1] = 1  # terms 1..n-1 are 1 already
    if base != 1:
        for k in range(2 * n, length + 1, n):
            q, r = divmod(terms[k - 1], base)
            if r:
                raise EncodeFailure(k, terms[k - 1], base)
            peeled[k - 1] = q
    return PrimarySpec(base, n), SeqPrefix._trusted(tuple(peeled))
