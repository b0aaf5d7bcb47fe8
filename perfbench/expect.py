"""Build ``expected.json``: the seed pools and every stage's expected output.

Run from the repository root:

    python3 perfbench/expect.py

Stages whose output the README defines (catalog emit, encode, decode,
check c1, check certify) get their expectation from ``reference.py`` alone.
``gen`` and ``corrupt`` are seeded constructions with no independent
definition, so their bytes are recorded from the program and then checked
against the properties the README promises: a ``gen`` code passes (C1), a
``corrupt`` output multiplies some codes and fails (C1). Each op is then run
through the program and any disagreement is printed; at the defining commit
the only one is the factorial L=1700 digit-limit crash.

A corrupted op enters its pool only when its witness index n lies within
L/20 of L/2, so that it stops mid-scan, as the workload intends, and its
cost does not swing between almost none and a full scan from seed to seed.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

import reference as ref
from workloads import (
    EXPECTED_PATH,
    PASSED,
    WORKLOADS,
    judge,
    make_op,
    run_stages,
    stage_record,
)

POOL_SIZE = 32
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from gcdmorphic import cli  # noqa: E402


def _recorded(argv, stdin_text: str) -> str:
    """stdout of one program stage; gen and corrupt have no reference to derive it from."""
    res = run_stages(cli.main, [argv], stdin_text)[0]
    if res.exit != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {res.exit} ({res.error!r})")
    return res.stdout


def derive(stages) -> tuple[list[dict], int | None]:
    """Expected record of each stage, and the witness index n of the last one."""
    records = []
    values: list[int] = []
    text = ""
    witness_n = None
    for argv in stages:
        cmd = argv[0]
        exit_code = 0
        if cmd == "catalog":
            values = ref.emit(argv[2], int(argv[4]))
            text = ref.format_values(values)
        elif cmd == "gen":
            text = _recorded(argv, "")
            seed = argv[argv.index("--seed") + 1]
            if not text.startswith(f"# rng=mt19937 seed={seed}\n"):
                raise AssertionError(f"{argv}: unexpected header {text[:40]!r}")
            values = ref.parse_values(text)
            if len(values) != int(argv[2]) or ref.c1_witness(values) is not None:
                raise AssertionError(f"{argv}: not a (C1) code of the requested length")
        elif cmd == "corrupt":
            text = _recorded(argv, text)
            new = ref.parse_values(text)
            if len(new) != len(values) or new == values or any(b % a for a, b in zip(values, new)):
                raise AssertionError(f"{argv}: output is not a multiplied copy of its input")
            if ref.c1_witness(new) is None:
                raise AssertionError(f"{argv}: output still passes (C1)")
            values = new
        elif cmd == "encode":
            code = ref.encode(values)
            if code is None:
                raise AssertionError("workload input does not encode")
            values = code
            text = ref.format_values(values)
        elif cmd == "decode":
            values = ref.decode(values)
            text = ref.format_values(values)
        elif list(argv) == ["check", "c1"]:
            w = ref.c1_witness(values)
            text = ref.ok_line() if w is None else ref.c1_line(*w)
            exit_code, witness_n = (0, None) if w is None else (1, w[0])
        elif list(argv) == ["check", "certify"]:
            w = ref.morphic_witness(values)
            code = ref.encode(values)
            if (code is not None and ref.c1_witness(code) is None) != (w is None):
                raise AssertionError("reference routes disagree")
            text = ref.ok_line() if w is None else ref.morphic_line(*w)
            exit_code, witness_n = (0, None) if w is None else (1, w[0])
        else:
            raise ValueError(f"no reference for {argv}")
        records.append(stage_record(exit_code, text, argv))
    return records, witness_n


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def build() -> dict:
    pools: dict[str, list[int]] = {}
    ops: dict[str, list[dict]] = {}
    for workload, templates in WORKLOADS.items():
        for t in templates:
            if not t.per_pass:
                ops[make_op(workload, t, None).key] = derive(t.stages)[0]
                continue
            corrupted = any(argv[0] == "corrupt" for argv in t.stages)
            lo, hi = 0.45 * t.length, 0.55 * t.length
            pool = []
            seed = 0
            while len(pool) < POOL_SIZE:
                seed += 1
                op = make_op(workload, t, seed)
                records, n = derive(op.stages)
                if corrupted and not (n is not None and lo <= n <= hi):
                    continue
                pool.append(seed)
                ops[op.key] = records
            pools[f"{workload}/{t.name}"] = pool
            print(f"{workload}/{t.name}: pool {pool} (tried seeds 1..{seed})", flush=True)
    return {
        "recorded_at": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": find_spec("gmpy2") is not None,
        "pools": pools,
        "ops": ops,
    }


def cross_check(table: dict) -> int:
    """Run every op through the program and report where it disagrees."""
    disagreements = 0
    for workload, templates in WORKLOADS.items():
        for t in templates:
            seeds = table["pools"].get(f"{workload}/{t.name}", [None])
            for seed in seeds:
                op = make_op(workload, t, seed)
                outcome, reason = judge(op, run_stages(cli.main, op.stages), table["ops"][op.key])
                if outcome != PASSED:
                    disagreements += 1
                    print(f"{op.key}: {outcome}: {reason}", flush=True)
    return disagreements


def main() -> int:
    start = time.perf_counter()
    table = build()
    with EXPECTED_PATH.open("w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH.name} in {time.perf_counter() - start:.0f} s", flush=True)
    n = cross_check(table)
    print(f"{n} op(s) where the program disagrees with the reference", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
