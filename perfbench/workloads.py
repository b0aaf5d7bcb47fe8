"""The benchmark's workloads, how one op runs, and how its output is checked.

An op is one CLI pipeline run in-process through ``gcdmorphic.cli.main``:
each stage's stdout text becomes the next stage's stdin, so decimal parsing,
formatting and prefix validation stay in the measured path, in one process
and one thread. Ops that take a seed draw it from a pool shipped in
``expected.json``; the workload seed given to the benchmark only chooses
which pool seeds each pass uses. Every stage of every op has its expected
exit code and stdout recorded there, derived with ``reference.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# CPython's message when int <-> str conversion passes sys.get_int_max_str_digits().
DIGIT_LIMIT_MESSAGE = "integer string conversion"


def emit_argv(name: str, length: int) -> list[str]:
    return ["catalog", "emit", name, "--length", str(length)]


def gen_argv(length: int) -> list[str]:
    return ["gen", "--length", str(length), "--seed", "{s}"]


ENCODE, DECODE, CORRUPT = ["encode"], ["decode"], ["corrupt", "--seed", "{s}"]
CHECK_C1, CERTIFY = ["check", "c1"], ["check", "certify"]


@dataclass(frozen=True)
class Template:
    """One kind of op in a workload.

    ``per_pass`` > 0 means the stages contain ``{s}`` and each pass runs that
    many ops with distinct seeds from the template's pool. ``roundtrip``
    names two stages whose stdout must match once ``#`` lines are dropped.
    ``known_defect`` names the one failure the op is known to hit at the
    commit the benchmark was defined on; that failure is counted apart.
    """

    name: str
    stages: tuple[tuple[str, ...], ...]
    per_pass: int = 0
    roundtrip: tuple[int, int] | None = None
    known_defect: str | None = None

    @property
    def length(self) -> int:
        first = self.stages[0]
        return int(first[first.index("--length") + 1])


def _t(name, *stages, **kw) -> Template:
    return Template(name, tuple(tuple(s) for s in stages), **kw)


WORKLOADS: dict[str, tuple[Template, ...]] = {
    # check_c1's O(L^2) gcds on 1000-1500-bit codes take almost the whole pass.
    # The corrupted ops stop at a mid-scan witness. factorial L=1700 is 4756
    # digits wide and crashes on the int<->str digit limit at the defining commit.
    "dense-c1": (
        _t("fibonacci", emit_argv("fibonacci", 1500), ENCODE, CHECK_C1),
        _t("mersenne", emit_argv("mersenne", 1500), ENCODE, CHECK_C1),
        _t("fibonacci-corrupt", emit_argv("fibonacci", 1500), ENCODE, CORRUPT, CHECK_C1, per_pass=1),
        _t("mersenne-corrupt", emit_argv("mersenne", 1500), ENCODE, CORRUPT, CHECK_C1, per_pass=1),
        _t("factorial", emit_argv("factorial", 1700), ENCODE, CHECK_C1,
           known_defect="int<->str digit limit (ROADMAP item 1)"),
    ),
    # Long prefixes of small ints, mostly unit codes: the wire format, prefix
    # validation, catalog, codec and generator share the pass with a
    # check_c1 whose inner loop runs over unit codes.
    "sparse-long": (
        _t("naturals", emit_argv("naturals", 8000), ENCODE, CHECK_C1),
        _t("radical", emit_argv("radical", 8000), ENCODE, CHECK_C1),
        _t("radical-emit", emit_argv("radical", 100000), ENCODE),
        _t("gen", gen_argv(100000), DECODE, ENCODE, CHECK_C1, per_pass=2, roundtrip=(0, 2)),
        _t("gen-corrupt", gen_argv(100000), CORRUPT, DECODE, ENCODE, CHECK_C1,
           per_pass=2, roundtrip=(1, 3)),
    ),
    # The brute-force oracle does most of the work; generated codes have few
    # non-unit entries, so check_c1 is near zero here.
    "certify-mixed": (
        _t("gen", gen_argv(3000), DECODE, CERTIFY, per_pass=3),
        _t("gen-corrupt", gen_argv(3000), CORRUPT, DECODE, CERTIFY, per_pass=3),
        _t("naturals", emit_argv("naturals", 2000), CERTIFY),
        _t("factorial", emit_argv("factorial", 300), CERTIFY),
    ),
}


@dataclass(frozen=True)
class Op:
    key: str  # "<workload>/<template>" or "<workload>/<template>/<seed>"
    template: Template
    stages: tuple[tuple[str, ...], ...]

    @property
    def terms(self) -> int:
        return self.template.length


def make_op(workload: str, template: Template, seed: int | None) -> Op:
    if seed is None:
        return Op(f"{workload}/{template.name}", template, template.stages)
    stages = tuple(tuple(a.replace("{s}", str(seed)) for a in argv) for argv in template.stages)
    return Op(f"{workload}/{template.name}/{seed}", template, stages)


def load_expected() -> dict:
    with EXPECTED_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


class Plan:
    """The ops of each pass of one workload, fixed by the workload seed.

    Each pooled template walks its pool in an order shuffled by the seed, so
    successive passes use different inputs and a run covers many of them.
    """

    def __init__(self, workload: str, seed: int, pools: dict[str, list[int]]):
        self.workload, self.seed = workload, seed
        self.templates = WORKLOADS[workload]
        rng = random.Random(f"{workload}/{seed}")
        self._draws = {}
        for t in self.templates:
            if t.per_pass:
                pool = list(pools[f"{workload}/{t.name}"])
                rng.shuffle(pool)
                self._draws[t.name] = cycle(pool)
        self._passes: list[list[Op]] = []

    def pass_ops(self, index: int) -> list[Op]:
        while len(self._passes) <= index:
            ops = []
            for t in self.templates:
                if t.per_pass:
                    draw = self._draws[t.name]
                    ops += [make_op(self.workload, t, next(draw)) for _ in range(t.per_pass)]
                else:
                    ops.append(make_op(self.workload, t, None))
            self._passes.append(ops)
        return self._passes[index]


@dataclass
class StageResult:
    argv: tuple[str, ...]
    stdin_chars: int
    exit: int | None  # None when main() raised
    stdout: str
    error: BaseException | None


def run_stages(main, stages, data: str = "") -> list[StageResult]:
    """Run one pipeline; stop after a stage that raises or exits non-zero."""
    results = []
    for argv in stages:
        out, err = io.StringIO(), io.StringIO()
        try:
            code = main(list(argv), stdin=io.StringIO(data), stdout=out, stderr=err)
        except Exception as exc:  # a crash escaping main() is a measured outcome
            results.append(StageResult(argv, len(data), None, out.getvalue(), exc))
            break
        results.append(StageResult(argv, len(data), code, out.getvalue(), None))
        if code != 0:
            break
        data = out.getvalue()
    return results


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def stage_record(exit_code: int, stdout: str, argv) -> dict:
    """How an expected stage is stored: check verdicts in full, bulk output by digest."""
    if argv[0] == "check":
        return {"exit": exit_code, "stdout": stdout}
    return {"exit": exit_code, "chars": len(stdout), "sha256": digest(stdout)}


def _body(text: str) -> str:
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))


PASSED, FAILED, KNOWN_DEFECT = "passed", "failed", "known defect"


def judge(op: Op, results: list[StageResult], expected: list[dict]) -> tuple[str, str]:
    """Compare one op's stages with their expected records; return (outcome, reason)."""
    for i, (res, want) in enumerate(zip(results, expected)):
        where = f"stage {i} ({' '.join(res.argv)})"
        if res.error is not None:
            reason = f"{where} raised {type(res.error).__name__}: {str(res.error)[:120]}"
            if (op.template.known_defect and isinstance(res.error, ValueError)
                    and DIGIT_LIMIT_MESSAGE in str(res.error)):
                return KNOWN_DEFECT, reason
            return FAILED, reason
        if stage_record(res.exit, res.stdout, res.argv) != want:
            return FAILED, f"{where} exit {res.exit}, stdout differs from the expected bytes"
    if len(results) != len(expected):
        return FAILED, f"stopped after {len(results)} of {len(expected)} stages"
    if op.template.roundtrip:
        a, b = op.template.roundtrip
        if _body(results[a].stdout) != results[b].stdout:
            return FAILED, f"stage {b} does not reproduce stage {a} byte for byte"
    return PASSED, ""
