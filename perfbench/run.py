"""Time gcdmorphic's CLI pipelines on one workload and check their output.

Run from the root of a checkout (no install needed; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload dense-c1 --seed 1 --seconds 25 --trace 0

Workloads: dense-c1, sparse-long, certify-mixed (see ``workloads.py`` and
README.md). One client runs the ops of a pass one after another (closed
loop) until ``--seconds`` have passed; each pass draws fresh seeds.

``--trace 0`` prints the end-to-end metrics: terms_per_kernel (median over
passes of the summed prefix length L of passed ops over the pass's op time
in kernel units, see ``KERNELS``), pass_ratio (passed ops / attempted ops),
setup_s (median start of a fresh interpreter that imports
``gcdmorphic.cli`` and runs ``catalog list``) and peak_rss_mb (a fresh
process running one pass). The wall-clock terms_per_s goes to stderr.
``--trace 1`` runs each op traced and untraced back to back and prints the
per-layer metrics, per pass; the spans go to ``perfbench/out/``.

Every op's stages are checked, outside the timed section, against
``expected.json``. The last line of stdout is one JSON object; a summary
goes to stderr. Exit status 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.util import find_spec
from math import gcd
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import COUNT_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_STARTS = 15  # timed fresh starts, after one that warms the bytecode cache
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); from gcdmorphic.cli import main; "
    "sys.exit(main(['catalog', 'list']))"
)
CATALOG_NAMES = ["ones", "naturals", "fibonacci", "mersenne", "radical", "factorial",
                 "primary:C:N", "constant:C"]
WARMUP = (
    (wl.emit_argv("naturals", 64), wl.ENCODE, wl.CHECK_C1),
    (["gen", "--length", "64", "--seed", "1"], ["corrupt", "--seed", "1"], wl.DECODE,
     wl.CERTIFY),
)


class BenchError(Exception):
    pass


# Kernels: small fixed computations that use only the standard library, never
# gcdmorphic. The speed of the shared machine drifts by tens of percent
# within minutes, and not alike for all kinds of work. So each workload has a
# kernel shaped like its own hot path; the benchmark times it between ops and
# divides each op's time by the kernel times around it.


def _big_gcds() -> None:
    """gcds of ~950-bit by ~1160-bit ints, like check_c1 on dense codes (~40 ms)."""
    big = 5**500
    for a in range(3**600, 3**600 + 5000):
        gcd(a, big)


def _wire_format() -> None:
    """Decimal text of 150000 lines into a tuple of ints: allocation and memory (~65 ms)."""
    text = "\n".join(str(i) for i in range(10**6, 10**6 + 150000))
    tuple(int(x) for x in text.split())


def _small_gcds() -> None:
    """A brute-force gcd-identity loop over ~64-bit ints, like the oracle (~60 ms)."""
    values = [(2**61 - 1) * (i % 97 + 1) for i in range(1, 501)]
    for n in range(1, 501):
        fn = values[n - 1]
        for m in range(1, n + 1):
            gcd(fn, values[m - 1]) == values[gcd(n, m) - 1]


KERNELS = {"dense-c1": _big_gcds, "sparse-long": _wire_format, "certify-mixed": _small_gcds}
SETUP_KERNEL = _wire_format
# SETUP_KERNEL's time on the machine expected.json was recorded on (55-85 ms);
# setup_s is given in seconds at that speed.
SETUP_KERNEL_REF_S = 0.065


class DriftMeter:
    """Converts seconds into kernel units, using the kernel runs on both sides."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.last = self._time_kernel()

    def _time_kernel(self) -> float:
        t0 = perf_counter()
        self.kernel()
        return perf_counter() - t0

    def to_kernels(self, seconds: float) -> float:
        now = self._time_kernel()
        kernels = seconds / ((self.last + now) / 2)
        self.last = now
        return kernels


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.known = 0
        self.notes: dict[str, str] = {}

    def add(self, op: wl.Op, outcome: str, reason: str) -> None:
        self.attempted += 1
        self.failed += outcome == wl.FAILED
        self.known += outcome == wl.KNOWN_DEFECT
        if outcome != wl.PASSED:
            self.notes.setdefault(op.key, f"{outcome}: {reason}")


def run_pass(main, ops, table, tally, tracer=None, meter=None) -> tuple[float, float, int]:
    """Run and check one pass.

    Returns the seconds spent in the ops, the same in kernel units (0 without
    a meter), and L summed over the passed ops.
    """
    seconds, kernels, terms = 0.0, 0.0, 0
    for op in ops:
        expected = table["ops"].get(op.key)
        if expected is None:
            raise BenchError(f"expected.json has no entry for {op.key}")
        gc.collect()
        first_span = 0
        if tracer is not None:
            tracer.op, first_span = op.key, len(tracer.spans)
        t0 = perf_counter()
        results = wl.run_stages(main, op.stages)
        elapsed = perf_counter() - t0
        seconds += elapsed
        if meter is not None:
            kernels += meter.to_kernels(elapsed)
        outcome, reason = wl.judge(op, results, expected)
        tally.add(op, outcome, reason)
        if outcome == wl.PASSED:
            terms += op.terms
        if tracer is not None:
            tracer.count_op(first_span, results)
    return seconds, kernels, terms


def measure_setup() -> float:
    """Median fresh start, in seconds at the speed SETUP_KERNEL_REF_S."""
    raw, scaled = [], []
    meter = DriftMeter(SETUP_KERNEL)
    for i in range(SETUP_STARTS + 1):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        elapsed = perf_counter() - t0
        names = [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]
        if proc.returncode != 0 or names != CATALOG_NAMES:
            raise BenchError(f"catalog list: exit {proc.returncode}, names {names}")
        kernels = meter.to_kernels(elapsed)
        if i:
            raw.append(elapsed)
            scaled.append(kernels * SETUP_KERNEL_REF_S)
    print(f"setup: median {statistics.median(raw):.4f} s on the clock", file=sys.stderr)
    return statistics.median(scaled)


def measure_peak_rss_mb(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--one-pass"],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"one-pass child exited {proc.returncode}: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_kb"] / 1024


def untraced_run(cli, plan, table, seconds, tally) -> dict:
    setup_s = measure_setup()
    peak_rss_mb = measure_peak_rss_mb(plan.workload, plan.seed)
    for stages in WARMUP:
        wl.run_stages(cli.main, stages)
    rates, per_kernel = [], []
    meter = DriftMeter(KERNELS[plan.workload])
    deadline = perf_counter() + seconds
    while not rates or perf_counter() < deadline:
        pass_s, pass_kernels, terms = run_pass(cli.main, plan.pass_ops(len(rates)), table,
                                               tally, meter=meter)
        rates.append(terms / pass_s)
        per_kernel.append(terms / pass_kernels)
    passed = tally.attempted - tally.failed - tally.known
    print(f"{len(rates)} passes; terms/kernel per pass: {[round(r, 1) for r in per_kernel]}",
          file=sys.stderr)
    # Wall-clock throughput drifts with the machine, so it is shown, not gated.
    print(f"{plan.workload} terms_per_s = {statistics.median(rates):.6g} 1/s "
          f"(per pass: {[round(r) for r in rates]})", file=sys.stderr)
    return {
        "terms_per_kernel": (statistics.median(per_kernel), "1/kernel"),
        "pass_ratio": (passed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(cli, plan, table, seconds, tally, spans_path) -> dict:
    from gcdmorphic import core, validator

    tracer = Tracer({"cli": cli, "validator": validator,
                     "SeqPrefix": core.SeqPrefix, "CodePrefix": core.CodePrefix})
    traced_main = tracer.wrap("cli.main", cli.main)
    for stages in WARMUP:
        wl.run_stages(cli.main, stages)
    traced_s = untraced_s = 0.0
    passes = 0
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        for i, op in enumerate(plan.pass_ops(passes)):
            # each op runs traced and untraced back to back, so the machine's
            # drifting speed cancels; which side goes first alternates
            for traced in ((True, False) if (passes + i) % 2 == 0 else (False, True)):
                if traced:
                    with tracer.installed():
                        traced_s += run_pass(traced_main, [op], table, tally, tracer)[0]
                else:
                    untraced_s += run_pass(cli.main, [op], table, tally)[0]
        passes += 1
    tracer.write(spans_path)
    metrics = {name: (value / passes, "s") for name, value in tracer.self_times().items()}
    units = {"cli.bytes_in": "chars", "cli.bytes_out": "chars", "validator.c1_bits": "bits"}
    for name in COUNT_METRICS:
        metrics[name] = (tracer.counts[name] / passes, units.get(name, "count"))
    metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    metrics["trace.traced_pass_s"] = (traced_s / passes, "s")
    metrics["trace.untraced_pass_s"] = (untraced_s / passes, "s")
    print(f"{passes} traced and {passes} untraced passes; spans in {spans_path}",
          file=sys.stderr)
    return metrics


def _peak_rss_kb() -> int:
    """Peak resident memory of this process image, in KiB.

    VmHWM starts afresh at exec. ru_maxrss does not: on Linux it keeps the
    resident size the parent had when it forked this child.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("/proc/self/status has no VmHWM line")


def one_pass(cli, plan) -> int:
    """Child of measure_peak_rss_mb: run pass 0 unchecked and report the peak RSS."""
    for op in plan.pass_ops(0):
        wl.run_stages(cli.main, op.stages)
    print(json.dumps({"peak_rss_kb": _peak_rss_kb()}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gcdmorphic" / "cli.py").is_file():
        print(f"error: no gcdmorphic sources under {SRC}", file=sys.stderr)
        return 2
    if not wl.EXPECTED_PATH.is_file():
        print(f"error: {wl.EXPECTED_PATH} is missing; run perfbench/expect.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from gcdmorphic import cli

    table = wl.load_expected()
    plan = wl.Plan(args.workload, args.seed, table["pools"])
    if args.one_pass:
        return one_pass(cli, plan)

    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"gmpy2 {'present' if find_spec('gmpy2') else 'absent'}, "
          f"expectations recorded at {table['recorded_at'][:12]}", file=sys.stderr)
    tally = Tally()
    try:
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced_run(cli, plan, table, args.seconds, tally, spans_path)
        else:
            metrics = untraced_run(cli, plan, table, args.seconds, tally)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, note in sorted(tally.notes.items()):
        print(f"{key}: {note}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"{tally.attempted} ops attempted, {tally.failed} failed, "
          f"{tally.known} hit the known defect", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
