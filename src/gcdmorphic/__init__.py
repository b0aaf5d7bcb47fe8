"""Toolkit for GCD-morphic sequences.

A sequence F of positive integers is GCD-morphic when

    gcd(F_n, F_m) == F_{gcd(n, m)}    for all indices n, m >= 1,

i.e. taking GCDs commutes with the sequence map. Every such sequence is the
pointwise product of primary sequences (a constant at the multiples of one
period, 1 elsewhere) and is therefore captured exactly by a code c_1, c_2,
... with F_n equal to the product of c_j over the divisors j of n. The
correspondence is a bijection onto the codes in which incomparable indices
carry coprime values.

This package provides the codec for that correspondence, two independent
validators with counterexample witnesses, a seeded generator of valid codes,
a catalog of reference sequences, and a line-oriented CLI.
"""

from .catalog import CatalogEntry, UnknownName, emit, entries
from .codec import EncodeFailure, decode, encode, peel_primary
from .core import CodePrefix, PrimarySpec, SeqPrefix, pointwise_product, primary_prefix
from .generator import corrupt, generate
from .validator import (
    C1Witness,
    Certificate,
    MorphicWitness,
    certify,
    check_c1,
    check_gcd_morphic,
)

__version__ = "0.1.0"

__all__ = [
    "C1Witness",
    "CatalogEntry",
    "Certificate",
    "CodePrefix",
    "EncodeFailure",
    "MorphicWitness",
    "PrimarySpec",
    "SeqPrefix",
    "UnknownName",
    "certify",
    "check_c1",
    "check_gcd_morphic",
    "corrupt",
    "decode",
    "emit",
    "encode",
    "entries",
    "generate",
    "peel_primary",
    "pointwise_product",
    "primary_prefix",
    "__version__",
]
