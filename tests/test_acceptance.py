"""Acceptance criteria, one test per criterion.

Each test re-states its contract, enforces exact values (zero tolerance) or
the property as stated, asserts the runtime budget, and prints one PASS line
with the measured time (visible with ``pytest -s`` or in captured output).
"""

import random
import time

from gcdmorphic.catalog import emit, entries
from gcdmorphic.codec import decode, encode, peel_primary
from gcdmorphic.core import (
    CodePrefix,
    PrimarySpec,
    SeqPrefix,
    pointwise_product,
    primary_prefix,
)
from gcdmorphic.generator import corrupt, generate
from gcdmorphic.validator import check_c1, check_gcd_morphic

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)
FIBONACCI_CODE_12 = (1, 1, 2, 3, 5, 4, 13, 7, 17, 11, 89, 6)
FACTORIAL_CODE_6 = (1, 2, 6, 12, 120, 60)

MORPHIC_NAMES = ("ones", "naturals", "fibonacci", "mersenne", "radical")


def report(criterion: int, elapsed: float, budget: float, label: str) -> None:
    assert elapsed < budget, f"criterion {criterion}: {elapsed:.3f}s exceeds {budget}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed * 1000:.1f} ms) {label}")


def is_prime_oracle(n: int) -> bool:
    # independent of the library's helpers on purpose
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_criterion_1_golden_naturals_encoding():
    f = emit("naturals", 17)
    start = time.perf_counter()
    code = encode(f)
    elapsed = time.perf_counter() - start
    assert code.codes == NATURALS_CODE_17
    report(1, elapsed, 0.010, "encode(1..17) reproduces the reference code exactly")


def test_criterion_2_golden_fibonacci_encoding():
    f = emit("fibonacci", 12)
    start = time.perf_counter()
    code = encode(f)
    elapsed = time.perf_counter() - start
    assert code.codes == FIBONACCI_CODE_12
    report(2, elapsed, 0.010, "encode(first 12 Fibonacci) reproduces the reference code")


def test_criterion_3_radical_code_law():
    start = time.perf_counter()
    code = encode(emit("radical", 200))
    for n in range(1, 201):
        expected = n if is_prime_oracle(n) else 1
        assert code.code(n) == expected, f"radical code at {n}"
    elapsed = time.perf_counter() - start
    report(3, elapsed, 1.0, "radical code is n at primes, 1 elsewhere, 200/200 exact")


def test_criterion_4_bijection_suite():
    rng = random.Random(20260809)
    start = time.perf_counter()
    for _ in range(1000):
        length = rng.randint(1, 128)
        codes = tuple(
            rng.randint(2, 10**9) if rng.random() < 0.2 else 1 for _ in range(length)
        )
        code = CodePrefix(codes)
        assert encode(decode(code)) == code
    for name in MORPHIC_NAMES:
        f = emit(name, 128)
        assert decode(encode(f)) == f
    elapsed = time.perf_counter() - start
    report(4, elapsed, 10.0, "1000 code round trips and catalog sequence round trips exact")


def test_criterion_5_generated_codes_decode_to_morphic_sequences():
    start = time.perf_counter()
    for seed in range(1000):
        code = generate(128, seed)
        witness = check_c1(code)
        assert witness is None, f"seed {seed}: {witness}"
        witness = check_gcd_morphic(decode(code))
        assert witness is None, f"seed {seed}: {witness}"
    elapsed = time.perf_counter() - start
    report(5, elapsed, 60.0, "1000 seeds: generate -> decode -> brute-force check all pass")


def test_criterion_6_converse_and_corruption():
    start = time.perf_counter()
    for e in entries():
        if e.expected_morphic:
            code = encode(e.emitter(128))  # must not raise
            assert check_c1(code) is None, e.name
    for seed in range(1000):
        base = generate(128, seed)
        broken = corrupt(base, seed=seed + 10_000_000)
        c1w = check_c1(broken)
        assert c1w is not None, f"seed {seed}: corruption passed c1"
        mw = check_gcd_morphic(decode(broken))
        assert mw is not None, f"seed {seed}: corruption passed brute force"
        assert {c1w.n, c1w.k} & {mw.n, mw.m}, f"seed {seed}: disjoint witnesses"
    elapsed = time.perf_counter() - start
    report(6, elapsed, 60.0, "morphic entries encode+pass c1; 1000 corruptions fail both")


def test_criterion_7_iterated_peeling_reconstruction():
    start = time.perf_counter()
    for name in ("naturals", "fibonacci", "mersenne", "radical"):
        f = emit(name, 64)
        expected_codes = encode(f).codes
        current = f
        for n in range(1, 65):
            spec, peeled = peel_primary(current, n)
            assert spec.period == n
            assert spec.value == expected_codes[n - 1], f"{name} at {n}"
            product = pointwise_product(primary_prefix(spec, 64), peeled)
            assert product == current, f"{name} reconstruction at {n}"
            current = peeled
        assert current.terms == (1,) * 64
    elapsed = time.perf_counter() - start
    report(7, elapsed, 5.0, "peeling n=1..64 matches the encoder term-by-term, exactly")


def test_criterion_8_primary_sequences_are_morphic():
    start = time.perf_counter()
    for value in range(1, 51):
        for period in range(1, 21):
            prefix = primary_prefix(PrimarySpec(value, period), 100)
            witness = check_gcd_morphic(prefix)
            assert witness is None, f"(value={value}, period={period}): {witness}"
    elapsed = time.perf_counter() - start
    report(8, elapsed, 30.0, "all primary prefixes for value<=50, period<=20 pass")


def test_criterion_9_factorial_negative_control():
    f = SeqPrefix((1, 2, 6, 24, 120, 720))
    code = encode(f)  # encode succeeds: success alone is not certification
    assert code.codes == FACTORIAL_CODE_6
    c1w = check_c1(code)
    assert (c1w.n, c1w.k) == (3, 2)
    mw = check_gcd_morphic(f)
    assert (mw.n, mw.m) == (3, 2)
    report(9, 0.0, 1.0, "factorial encodes yet both checkers reject it at (3,2)")
