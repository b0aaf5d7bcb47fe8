import argparse
import bisect
import concurrent.futures
import errno
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
import reference
from conftest import (EDGES, NATURALS_CODE_17, WIDEST, child_env, digit_limit,
                      digit_limit_message, first_primes, run)
from hypothesis import example, given, settings, strategies as st

import gcdmorphic
from gcdmorphic import cli
from gcdmorphic.catalog import UnknownName, emit
from gcdmorphic.cli import (
    EX_CHECK_FAILED,
    EX_DATAERR,
    EX_ENCODE_FAILED,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    MalformedInput,
    _int_arg,
    _parse_lines,
    _read_values,
    _write_values,
    build_parser,
    main,
)
from gcdmorphic.core import SeqPrefix
from gcdmorphic.generator import generate
from gcdmorphic.validator import C1Witness


class Row(NamedTuple):
    """A pipeline of gcdmorphic commands (a shell line without the program's name) run on
    ``stdin`` with ``env``, its last stage under a condition of its streams (a key of
    REDIRECTS). It maps to the last stage's exit code, stdout and stderr, "" for a stream the
    condition takes away. Every earlier stage must exit 0 with nothing on stderr."""
    command: str
    stdin: str | bytes = ""
    code: int = EX_OK
    out: str = ""  # or "sha256:" and the digest of bulk output
    err: str = ""
    stream: str = "normal"
    env: dict = {}
    known_defect: bool = False


# each condition's sh redirection for a real process; "stdout reader gone" is a pipe with
# its read end closed. In this process a closed stream is None, as Python leaves it, and
# a full one (ENOSPC) or a pipe with no reader (EPIPE) fails on write, or on the flush
# when PYTHONUNBUFFERED is empty and the write only fills a buffer
REDIRECTS = {"normal": "", "stdin closed": "<&-", "stdout closed": ">&-",
             "stdout full": ">/dev/full", "stdout reader gone": "", "stderr closed": "2>&-",
             "stderr full": "2>/dev/full"}
UNBUFFERED, BUFFERED = {"PYTHONUNBUFFERED": "1"}, {"PYTHONUNBUFFERED": ""}
COLUMNS_80 = {"COLUMNS": "80"}  # argparse wraps --help at the terminal's width
# what every real process starts with, taken before any test sets a variable; in
# development mode, a file left open warns on stderr
REAL_ENV = child_env(PYTHONINTMAXSTRDIGITS=str(digit_limit()), PYTHONDEVMODE="1")
KNOWN_DEFECT = pytest.mark.xfail(condition=bool(digit_limit()), strict=True,
                                 reason="ROADMAP item 1")


def in_process(argv, data, stream, env):
    """One stage through main, on standard streams as a process would hold them."""
    encoding, _, errors = env.get("PYTHONIOENCODING", "utf-8:strict").partition(":")
    streams = {"stdin": io.TextIOWrapper(io.BytesIO(data), encoding, errors),
               "stdout": io.StringIO(), "stderr": io.StringIO()}
    taken, _, state = stream.partition(" ")
    if state == "closed":
        streams[taken] = None
    elif state:
        def fail(*args):
            code = errno.ENOSPC if state == "full" else errno.EPIPE
            raise OSError(code, os.strerror(code))  # EPIPE makes a BrokenPipeError

        setattr(streams[taken], "write" if env.get("PYTHONUNBUFFERED") else "flush", fail)
    with pytest.MonkeyPatch.context() as patch:
        for key, value in env.items():
            patch.setenv(key, value)
        for name, value in streams.items():
            patch.setattr(sys, name, value)
        code = main(argv)
    out, err = ("" if name == taken else streams[name].getvalue() for name in ("stdout", "stderr"))
    return code, out, err


def in_a_real_process(argv, data, stream, env):
    """One stage as `python -m gcdmorphic.cli` at this process's digit limit, started by
    sh with the condition's redirection."""
    command = shlex.join([sys.executable, "-m", "gcdmorphic.cli", *argv])
    stdout = subprocess.PIPE
    if stream == "stdout reader gone":
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        proc = subprocess.run(["sh", "-c", f"exec {command} {REDIRECTS[stream]}"], input=data,
                              stdout=stdout, stderr=subprocess.PIPE,
                              env={**REAL_ENV, **env})
    finally:
        if stdout != subprocess.PIPE:
            os.close(stdout)
    return proc.returncode, (proc.stdout or b"").decode(), proc.stderr.decode()


def check(row, stage):
    """Assert ``row``, its stages run one after another by ``stage``, one of the two above."""
    data = row.stdin if isinstance(row.stdin, bytes) else row.stdin.encode()
    stages = [shlex.split(argv) for argv in row.command.split("|")]
    for n, argv in enumerate(stages, 1):
        code, out, err = stage(argv, data, row.stream if n == len(stages) else "normal", row.env)
        if n < len(stages):
            assert (code, err) == (EX_OK, ""), f"stage {n}: {argv}"
            data = out.encode()
    if row.out.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == (row.code, row.out, row.err)


def rows(*cases, ids=None):
    """A test that checks rows of the exit-code contract through main in this process:
    one test per case when ``ids`` names them, else one for all. A case is a row or a list
    of rows. test_every_row_in_a_real_process runs every row in a real process too."""
    cases = [case if isinstance(case, list) else [case] for case in cases]
    if ids is None:
        def test(self):
            for row in itertools.chain(*cases):
                check(row, in_process)
    else:
        @pytest.mark.parametrize("case", [
            pytest.param(case, id=i, marks=[KNOWN_DEFECT] * any(row.known_defect for row in case))
            for i, case in zip(ids, cases, strict=True)])
        def test(self, case):
            for row in case:
                check(row, in_process)
    test.rows = [(str(i) if len(case) == 1 else f"{i}/{n}", row)
                 for i, case in zip(ids or itertools.count(), cases) for n, row in enumerate(case)]
    return test


def over_the_limit(row, code, prefix):
    """``row``, whose input is one digit over the running int<->str limit, as it runs
    with no limit; under a limit the input exits ``code`` with CPython's message, which
    names the limit and never the value."""
    if digit_limit():
        message = digit_limit_message(WIDEST + 1)
        assert f"({WIDEST} digits)" in message and "9" * 20 not in message
        return row._replace(code=code, out="", err=f"{prefix}{message}\n")
    return row


OK_LINE = '{"ok":true}\n'
C1_AT_3_2 = '{"kind":"c1","n":3,"k":2,"g":"2"}\n'
MORPHIC_AT_3_2 = '{"kind":"morphic","n":3,"m":2,"got":"2","expected":"1"}\n'
NO_SPACE = f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"
FACTORIAL_6 = "1\n2\n6\n24\n120\n720\n"
NATURALS_17 = "".join(f"{v}\n" for v in NATURALS_CODE_17)
INVALID_COMMAND = ("argument COMMAND: invalid choice: '{}' "
                   "(choose from 'encode', 'decode', 'check', 'gen', 'corrupt', 'catalog')")
LENGTH_RANGE = f"usage error: argument --length: must be >= 1 and <= {sys.maxsize}, got "
# gen --length 100000 --seed 1 without its "# rng=" line
GEN_100000 = "sha256:4011d9feee48717a879aeec40180a012ed11b4d76e09ae7b6f765c87fc9cd40d"


def decoded_100000(edit):  # the sequence of that code, with line 50000 edited
    lines = [f"{v}\n" for v in gcdmorphic.decode(generate(100000, 1))]
    lines[49999] = edit(lines[49999])
    return "".join(lines)


def json_line(role, values):
    return json.dumps({"role": role, "values": values}, separators=(",", ":")) + "\n"


class TestEncodeDecode:
    test_emit_pipe_encode_matches_reference_code = rows(
        Row("catalog emit naturals --length 17 | encode", out=NATURALS_17))
    test_decode_then_encode_is_identity = rows(Row("decode | encode", NATURALS_17, out=NATURALS_17))
    test_encode_failure_diagnostic = rows(Row(
        "encode", "1\n2\n3\n5\n", EX_ENCODE_FAILED,
        err='{"kind":"encode","n":4,"numerator":"5","denominator":"2"}\n'))
    test_round_trips_at_length_100000 = rows(
        Row("gen --length 100000 --seed 1 | decode | encode", out=GEN_100000),
        Row("encode", decoded_100000(lambda line: "# note\n\n " + line), out=GEN_100000),
        Row("encode", decoded_100000(lambda line: line).replace("\n", "\r\n"), out=GEN_100000),
        Row("catalog emit radical --length 100000 | encode | decode",
            out="sha256:6182e1bf43c306de204c509b9e2a933d876b46ffd2d2637dcf7416c80bc0e390"))
    test_encode_failure_at_index_100000 = rows(Row(
        "encode", decoded_100000(lambda line: line[:-1] + "1\n"), EX_ENCODE_FAILED,
        err='{"kind":"encode","n":100000,"numerator":"1","denominator":"11"}\n'))
    test_comments_and_blank_lines_ignored = rows(
        Row("decode", "# a comment\n\n1\n 2 \n# another\n3\n", out="1\n2\n3\n"))
    # values are decimal strings, in one compact JSON line: no "# rng=" comment from gen
    test_json_output_uses_string_values = rows(*(
        Row(f"{argv} --json", text, out=json_line(role, values.split()))
        for argv, text, role, values in [
            ("encode", "1\n1\n2\n3\n5\n8\n13\n21\n", "code", "1 1 2 3 5 4 13 7"),
            ("decode", "1\n2\n3\n2\n5\n1\n", "sequence", "1 2 3 4 5 6"),
            ("gen --length 8 --seed 1", "", "code", "699548 4477 134749 242 53 119 59 494209"),
            ("corrupt --seed 3", "699548\n4477\n134749\n242\n53\n119\n59\n494209\n", "code",
             "699548 4477 2560231 242 53 119 59 494209"),
            ("catalog emit fibonacci --length 8", "", "sequence", "1 1 2 3 5 8 13 21")]),
        ids=["encode", "decode", "gen", "corrupt", "catalog-emit"])
    test_json_survives_huge_values = rows(Row(
        "catalog emit mersenne --length 80 --json",
        out=json_line("sequence", [str(2**n - 1) for n in range(1, 81)])))


# lines that are not one canonical value: a comment, blank and padded lines, leading
# zeros, and tokens the wire rule rejects, among them some that JSON reads, a digit
# that str.isdigit accepts (U+00B2), and CRs that are not the CR of a CRLF
_ODD_LINES = ["# note\n", "\n", "5\r\n", "007\n", "00\n", "\r0\n", "+5\n", " 5\n",
              "\u0663\n", "\u00b2\n", "0\n", "-0\n", "1,2\n", "1.0\n", "1e3\n", "1_000\n",
              "-3\n", "true\n", "null\n", '"7"\n', "[3]\n", "NaN\n", "Infinity\n", "\t9 \n",
              "5\r\r\n", "1\r2\n", "\r\n"]
# canonical, at and just over the running int<->str digit limit
_WIDE_LINES = ["7" * WIDEST + "\n", "7" * (WIDEST + 1) + "\n"]
# lines right after a run of unit lines that send its block to the line loop
_AFTER_RUN = ["0\n", "01\n", "# note\n", _WIDE_LINES[1]]
# lengths around the 1024-value output chunk
_WIRE_LENGTHS = [1023, 1024, 1025, 2049]


def block_edges(lines, block):
    """Indices of the lines at each edge of the read blocks: line 1 is read alone, then
    each block is ``block`` chars and the rest of the line its last char falls on."""
    ends = list(itertools.accumulate(map(len, lines)))
    edges, start = [1], ends[0]
    while start < ends[-1]:
        # readline completes the line holding the first char past the block
        last = min(bisect.bisect_right(ends, start + block), len(lines) - 1)
        edges += [last, last + 1]
        start = ends[last]
    return [i for i in edges if i < len(lines)]


@st.composite
def wire_texts(draw):
    """A read-block size of a few dozen chars, a unit-run length R of a few lines, and a
    text of canonical lines with up to three runs of R - 1, R or R + 1 lines "1" (or
    "1\r"), each maybe followed by a line that the reader refuses, and a few
    non-canonical, malformed, JSON-only or very wide lines. Runs and lines often sit on
    the first lines or at a block edge, which a run may end at or cross."""
    block, run = draw(st.integers(8, 48)), draw(st.integers(2, 6))
    lines = [f"{i}\n" for i in range(1, draw(st.integers(1, 300)) + 1)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)) | st.sampled_from([0, *block_edges(lines, block)]))
        at = max(0, at - draw(st.integers(0, run + 1)))  # so that an edge may cut the run
        after = draw(st.just([]) | st.sampled_from(_AFTER_RUN).map(lambda line: [line]))
        unit = draw(st.sampled_from(["1\n", "1\r\n"]))
        lines[at:at] = [unit] * draw(st.sampled_from([run - 1, run, run + 1])) + after
    for _ in range(draw(st.integers(0, 3))):
        edges = [0, *block_edges(lines, block)]
        at = draw(st.integers(0, len(lines) - 1) | st.sampled_from(edges))
        lines[at] = draw(st.sampled_from(_ODD_LINES + _WIDE_LINES))
    text = "".join(lines)
    return block, run, text[:-1] if draw(st.booleans()) else text


def unit_run_wire(where, size, unit="1\n", after="", block=16, run=4):
    """(block, run, text) for wire_texts' test: lines "2" with one run of ``size`` lines
    ``unit`` that starts the second read block, ends the first or is cut by its end, or
    ends the text unterminated, followed by the line ``after``. A "1" line is as wide as a
    "2" line, so the blocks end where they do without the run."""
    lines = ["2\n"] * 40
    last = block_edges(lines, block)[1]  # the first block's last line
    at = {"starts a block": last + 1, "ends a block": last + 1 - size,
          "cut by a block end": last + 1 - size // 2, "unterminated": len(lines) - size}[where]
    lines[at:at + size] = [unit] * size + [after]
    text = "".join(lines)
    return block, run, text[:-1] if where == "unterminated" else text


def values_or_error(read, text):
    try:
        return read(text)
    except MalformedInput as exc:
        return str(exc)


def _unit_run_examples(test):
    for where in ["starts a block", "ends a block", "cut by a block end", "unterminated"]:
        for size in [3, 4, 5, 8]:
            test = example(unit_run_wire(where, size))(test)
    test = example(unit_run_wire("starts a block", 5, unit="1\r\n"))(test)
    for after in _AFTER_RUN:
        test = example(unit_run_wire("starts a block", 4, after=after))(test)
    return test


class TestWireFormat:
    @settings(max_examples=300, deadline=None)
    @given(wire_texts())
    @_unit_run_examples
    def test_chunked_read_matches_line_loop(self, wire):
        block, run, text = wire
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CHARS", block)
            patch.setattr(cli, "_UNITS", "\n" + "1\n" * run)
            blocks = values_or_error(lambda t: list(_read_values(io.StringIO(t))[0]), text)
        line_loop = values_or_error(lambda t: _parse_lines(list(io.StringIO(t)), 1), text)
        # no value at all is the one error the reader adds to the line loop's
        assert blocks == (line_loop or "input is empty: need at least one value")

    # a gen code is mostly long runs of unit lines
    @pytest.mark.parametrize("values, end", [
        (range(1, 30001), "\n"), (range(1, 30001), "\r\n"), (generate(100000, 1).codes, "\n")],
        ids=["LF", "CRLF", "gen"])
    def test_canonical_blocks_skip_the_line_loop(self, values, end, monkeypatch):
        # only line 1 is read line by line; every block after it is kept, and the JSON
        # decoder never gets 128 unit lines in a row
        firsts, decoded, loads = [], [], json.loads

        def line_loop(lines, first):
            firsts.append(first)
            return _parse_lines(lines, first)

        monkeypatch.setattr(cli, "_parse_lines", line_loop)
        monkeypatch.setattr(cli.json, "loads", lambda s: decoded.append(loads(s)) or decoded[-1])
        text = "".join(f"{v}{end}" for v in values)
        assert len(text) > 2 * cli._BLOCK_CHARS
        assert _read_values(io.StringIO(text))[0] == tuple(values)
        assert firsts == [1]
        runs = [len(list(same)) for got in decoded for v, same in itertools.groupby(got) if v == 1]
        assert max(runs, default=0) < 128

    # a JSON nesting deep enough to overflow the decoder's recursion, on line 1 (read
    # alone), in the first block and in a later one
    @pytest.mark.parametrize("before", [0, 1, 70000])
    def test_deep_json_nesting_is_65_with_its_line(self, before):
        deep = "[" * 100000
        text = "1\n" * before + deep + "\n2\n"
        expected = f"line {before + 1}: not a decimal integer: {deep!r}"
        assert values_or_error(lambda t: _read_values(io.StringIO(t)), text) == expected
        assert run(["decode"], text) == (EX_DATAERR, "", f"error: {expected}\n")

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_WIRE_LENGTHS), st.integers(0, 2**32), st.booleans(),
           st.lists(st.tuples(st.integers(0, 8192), st.integers(1, 10**WIDEST - 1)), max_size=3))
    @example(2049, 0, True, [])  # whole unit chunks and a unit tail chunk
    @example(2049, 0, True, [(1500, 7)])  # one non-unit value in an otherwise unit chunk
    def test_write_then_read_round_trips(self, length, seed, units, planted):
        # values all 1, or from the seed, one in a hundred up to the digit limit wide;
        # then up to three more of any width up to the limit planted anywhere
        rng = random.Random(seed)
        values = [1 if units else
                  rng.randint(1, 10 ** (WIDEST if rng.random() < 0.01 else rng.randint(1, 40)) - 1)
                  for _ in range(length)]
        for at, value in planted:
            values[at % length] = value
        out = io.StringIO()
        assert _write_values(SeqPrefix(tuple(values)), argparse.Namespace(json=False), out) == EX_OK
        text = out.getvalue()
        assert text == "".join(f"{v}\n" for v in values)
        assert _read_values(io.StringIO(text))[0] == tuple(values)

    test_chunked_write_is_one_line_per_value = rows(*(
        Row(f"catalog emit naturals --length {n}", out="".join(f"{i}\n" for i in range(1, n + 1)))
        for n in _WIRE_LENGTHS), ids=list(map(str, _WIRE_LENGTHS)))


def _decimal_reference(token):
    """The value of a token by the wire format's rule, read without the library."""
    if not token or any(c not in "0123456789" for c in token):
        return None
    try:
        value = int(token)
    except ValueError:  # past the running int<->str digit limit
        return None
    return value if value >= 1 else None


def _read_as_wire_line(token):
    try:
        values = _parse_lines([token + "\n"], 1)
    except MalformedInput:
        return None
    return values[0] if values else None  # an empty line holds no value


def _read_as_option(token):
    try:
        return _int_arg(1, sys.maxsize)(token)
    except argparse.ArgumentTypeError:
        return None


def _read_as_catalog_parameter(token):
    try:
        return emit(f"primary:{token}:1", 1).terms[0]
    except UnknownName:
        return None


_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=25)
integer_tokens = st.one_of(
    st.integers(0, 2**80).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 3), st.integers(0, 2**70)),
    st.builds(lambda sign, digits: sign + digits, st.sampled_from("+-"), _DIGITS),
    st.builds(lambda a, b: f"{a}_{b}", _DIGITS, _DIGITS),
    st.builds(lambda a, b: f"{a} {b}", _DIGITS, _DIGITS),
    st.text(alphabet="0123456789\u0663\u06f3\u0969\uff13", min_size=1, max_size=8),
    st.just(""),
    st.builds(lambda lead, width: lead + "9" * (width - len(lead)),
              st.sampled_from(["", "1", "0"]),
              st.sampled_from([WIDEST - 1, WIDEST, WIDEST + 1])),
)


class TestOneIntegerRule:
    # a wire value, an option value and a catalog parameter are read by one rule;
    # only the range each reader accepts differs
    @settings(max_examples=300, deadline=None)
    @given(integer_tokens)
    def test_every_reader_accepts_the_same_tokens(self, token):
        expected = _decimal_reference(token)
        assert _read_as_wire_line(token) == expected
        assert _read_as_catalog_parameter(token) == expected
        in_range = expected is not None and expected <= sys.maxsize
        assert _read_as_option(token) == (expected if in_range else None)

    test_length_past_the_longest_list_is_64 = rows(*(
        Row(f"{argv} --length 10000000000000000000", code=EX_USAGE,
            err=f"{LENGTH_RANGE}10000000000000000000\n")
        for argv in ("gen --seed 1", "catalog emit naturals")), ids=["argv0", "argv1"])
    # with no limit, the same length is read, and is past the longest list
    test_length_past_the_digit_limit_is_64_without_its_digits = rows(*(
        over_the_limit(Row(f"{argv} --length {'9' * (WIDEST + 1)}", code=EX_USAGE,
                           err=f"{LENGTH_RANGE}{'9' * (WIDEST + 1)}\n"),
                       EX_USAGE, "usage error: argument --length: ")
        for argv in ("gen --seed 1", "catalog emit naturals")), ids=["argv0", "argv1"])
    test_seed_range_exact_bytes = rows(Row(
        "gen --length 3 --seed 18446744073709551616", code=EX_USAGE,
        err=("usage error: argument --seed: must be >= 0 and <= 18446744073709551615, "
             "got 18446744073709551616\n")))


class TestMachineFailures:
    # the machine failed, not the input or a check: exit 70 with one stderr line
    test_full_disk_on_stdout_is_70 = rows(*(
        Row("decode", "1\n2\n", EX_SOFTWARE, err=NO_SPACE, stream="stdout full", env=env)
        for env in (UNBUFFERED, BUFFERED)), ids=["write", "flush"])

    def test_out_of_memory_is_70(self, monkeypatch):
        def no_memory(length, seed):
            raise MemoryError

        monkeypatch.setattr(gcdmorphic.cli, "generate", no_memory)
        assert run(["gen", "--length", "3", "--seed", "1"]) == (
            EX_SOFTWARE, "", "error: out of memory\n")

    # fibonacci, mersenne and factorial build their terms one at a time: never run
    # them at this length, they would take memory until the process is killed
    test_longest_length_is_out_of_memory = rows(*(
        Row(f"{argv} --length {sys.maxsize}", code=EX_SOFTWARE, err="error: out of memory\n")
        for argv in [*(f"catalog emit {name}" for name in
                       ("radical", "ones", "naturals", "primary:2:3", "constant:3")),
                     "gen --seed 1"]), ids=[f"argv{i}" for i in range(6)])


# commands that fail with one line on stderr, and their codes
_FAILING = [("encode", "1\n2\n3\n5\n", EX_ENCODE_FAILED), ("gen --length 0 --seed 1", "", EX_USAGE),
            ("catalog emit unobtainium --length 4", "", EX_USAGE), ("decode", "1\nx\n", EX_DATAERR)]


class TestBrokenStreams:
    # a closed or full stderr loses the diagnostic line, never the exit code, and the line
    # never goes to stdout instead
    test_closed_stderr_keeps_the_code = rows(
        *(Row(argv, text, code, stream=stream, env=env) for stream, env in
          [("stderr full", UNBUFFERED), ("stderr closed", {})] for argv, text, code in _FAILING),
        ids=[f"{label}-argv{i}-{text}-{code}" for label in ("write fails", "sys.stderr is None")
             for i, (_, text, code) in enumerate(_FAILING)])
    test_closed_stdout_discards_the_output = rows(
        Row("check c1", "1\n2\n", stream="stdout closed"),
        Row("check c1", "1\n2\n2\n", EX_CHECK_FAILED, stream="stdout closed"),
        Row("gen --length 3 --seed 1", stream="stdout closed"),
        ids=["argv0-1\n2\n-0", "argv1-1\n2\n2\n-1", "argv2--0"])
    # an empty PYTHONUNBUFFERED leaves stderr buffered, so the failed line stays in its
    # buffer for the interpreter's exit-time flush
    test_closed_or_full_stderr_in_a_real_process = rows(
        *([Row(argv, text, code, stream=stream, env=env)
           for argv, text, code in _FAILING[:2] + _FAILING[3:]]
          for stream in ("stderr closed", "stderr full") for env in (UNBUFFERED, BUFFERED)),
        ids=["2>&--1", "2>&--", "2>/dev/full-1", "2>/dev/full-"])
    test_closed_stdout_in_a_real_process = rows(
        Row("decode", "1\n2\n", stream="stdout closed"),
        Row("check morphic", FACTORIAL_6, EX_CHECK_FAILED, stream="stdout closed"),
        Row("catalog list", stream="stdout closed"))


class TestChecks:
    test_check_c1_pass = rows(
        Row("check c1", NATURALS_17, out=OK_LINE),
        Row("catalog emit mersenne --length 1500 | encode | check c1", out=OK_LINE))
    test_check_c1_failure_witness = rows(
        Row("check c1", "1\n2\n6\n12\n120\n60\n", EX_CHECK_FAILED, out=C1_AT_3_2))
    test_check_morphic_witness_exact_bytes = rows(
        Row("check morphic", FACTORIAL_6, EX_CHECK_FAILED, out=MORPHIC_AT_3_2))
    # A code this wide is checked by the process and one forked child, where two CPUs
    # are usable and no other thread runs: in a real process, not in this one, whose
    # real_runs pool has threads. corrupt --seed 20 plants in the child's range.
    test_fibonacci_pipeline_passes_c1 = rows(
        Row("catalog emit fibonacci --length 1500 | encode | check c1", out=OK_LINE))
    test_wide_code_witness_in_the_childs_range = rows(
        Row("catalog emit fibonacci --length 1500 | encode | corrupt --seed 20 | check c1",
            code=EX_CHECK_FAILED, out='{"kind":"c1","n":1482,"k":79,"g":"157"}\n'))
    test_certify_pass_and_fail = rows(
        Row("check certify", "1\n1\n2\n3\n5\n8\n", out=OK_LINE),
        Row("check certify", FACTORIAL_6, EX_CHECK_FAILED, out=MORPHIC_AT_3_2))

    def test_certify_disagreement_is_70(self, monkeypatch):
        # routes that disagree are a bug, so they must not exit 1 like a failed check, and
        # a closed or full stderr must not change that
        monkeypatch.setattr(gcdmorphic.validator, "check_c1", lambda c: C1Witness(3, 2, 2))
        row = Row("check certify", "1\n2\n3\n4\n5\n6\n", EX_SOFTWARE)
        check(row._replace(err="internal error: validator routes disagree; this is a bug\n"),
              in_process)
        check(row._replace(stream="stderr full", env=UNBUFFERED), in_process)
        check(row._replace(stream="stderr closed"), in_process)

    def test_library_calls_go_through_module_globals(self, monkeypatch):
        # perfbench/spans.py traces a run by swapping these names in the cli module
        names = ["emit", "encode", "decode", "generate", "corrupt", "check_c1",
                 "check_gcd_morphic", "certify"]
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(gcdmorphic.cli, name, counting(name, getattr(gcdmorphic.cli, name)))
        code = "1\n2\n3\n2\n5\n"
        for argv, input_text in [
            (["catalog", "emit", "naturals", "--length", "5"], ""),
            (["encode"], "1\n2\n3\n4\n5\n"),
            (["decode"], code),
            (["gen", "--length", "5", "--seed", "1"], ""),
            (["corrupt", "--seed", "1"], code),
            (["check", "c1"], code),
            (["check", "morphic"], "1\n2\n3\n4\n5\n"),
            (["check", "certify"], "1\n2\n3\n4\n5\n"),
        ]:
            assert run(argv, input_text)[0] == EX_OK
        assert calls == Counter(dict.fromkeys(names, 1))


class TestGenCorrupt:
    test_gen_decode_check_pipeline = rows(*(
        Row(f"gen --length 64 --seed {seed} | decode | check morphic", out=OK_LINE)
        for seed in (0, 1, 42, 9999)))

    # gen has no density options; each is an unrecognized argument
    test_gen_rejects_bad_params = rows(
        Row("gen --length 0 --seed 1", code=EX_USAGE, err=f"{LENGTH_RANGE}0\n"),
        *(Row(f"gen --length 3 --seed 1 {option} 100000", code=EX_USAGE,
              err=f"usage error: unrecognized arguments: {option} 100000\n")
          for option in ("--primes", "--chains", "--max-exp")))
    test_corrupt_pipeline_fails_c1 = rows(
        Row("gen --length 48 --seed 5 | corrupt --seed 6 | check c1", code=EX_CHECK_FAILED,
            out='{"kind":"c1","n":46,"k":38,"g":"67"}\n'),
        Row("gen --length 100000 --seed 1 | corrupt --seed 1 | check c1", code=EX_CHECK_FAILED,
            out='{"kind":"c1","n":17613,"k":1207,"g":"37"}\n'),
        Row("catalog emit fibonacci --length 1500 | encode | corrupt --seed 3 | check c1",
            code=EX_CHECK_FAILED, out='{"kind":"c1","n":718,"k":489,"g":"719"}\n'))
    test_corrupt_short_input_is_data_error = rows(Row(
        "corrupt --seed 1", "1\n2\n", EX_DATAERR,
        err="error: need at least 3 codes to corrupt, got 2\n"))
    # any change here breaks seeded reproducibility
    test_output_bytes_are_pinned = rows(
        Row("gen --length 1000 --seed 42",
            out="sha256:5154b14500154d3b0779747ba61ad1270ee145fe241fc5c6ee6d814bc50021b8"),
        Row("gen --length 1000 --seed 42 | corrupt --seed 42",
            out="sha256:ff7dbe6a6f030dd0c6f171d70c1484b4d90d74fbb0b55b3dd47ec56b5d29e632"),
        Row("catalog emit ones --length 100000 | encode | corrupt --seed 3",
            out="sha256:ff2aeb6144ceb52f1aa1220da10f61ae6e3f2da3982234296c9f3e88db40b37f"))


class TestCatalogCommands:
    test_list_exact_bytes = rows(Row("catalog list", out=(
        "ones         morphic      all terms 1\n"
        "naturals     morphic      F_n = n\n"
        "fibonacci    morphic      F_1 = F_2 = 1, F_n = F_{n-1} + F_{n-2}\n"
        "mersenne     morphic      F_n = 2^n - 1\n"
        "radical      morphic      product of the distinct primes dividing n\n"
        "factorial    not-morphic  F_n = n!; encodes cleanly but is not GCD-morphic\n"
        "primary:C:N  morphic      value C at multiples of N, 1 elsewhere\n"
        "constant:C   morphic      constant sequence C, C, C, ...\n")))
    test_emit_parameterized = rows(
        Row("catalog emit primary:3:2 --length 6", out="1\n3\n1\n3\n1\n3\n"))
    test_emit_unknown_name_is_usage_error = rows(Row(
        "catalog emit unobtainium --length 4", code=EX_USAGE,
        err="usage error: unknown catalog name: unobtainium\n"))


class TestRealProcess:
    test_pipeline_through_os_pipes = rows(
        Row("catalog emit fibonacci --length 12 | encode | check c1", out=OK_LINE))
    test_exit_codes_cross_process = rows(
        Row("catalog emit factorial --length 6 | check morphic", code=EX_CHECK_FAILED,
            out=MORPHIC_AT_3_2),
        Row("encode", "2\n3\n", EX_ENCODE_FAILED,
            err='{"kind":"encode","n":2,"numerator":"3","denominator":"2"}\n'),
        Row("bogus", code=EX_USAGE, err=f"usage error: {INVALID_COMMAND.format('bogus')}\n"),
        Row("decode", "zero\n", EX_DATAERR, err="error: line 1: not a decimal integer: 'zero'\n"))

    def test_crlf_input_reads_as_lf(self):
        # line 1 is read alone; the next 65536 chars of the raw stream end on the "\r"
        # of "345\r\n", so that line's "\r\n" is split across the first read's end
        lines = ["1"] + ["2"] * 21844 + ["345"] + ["7"] * 1000
        outputs = []
        for end in (b"\r\n", b"\n"):
            wire = end.join(line.encode() for line in lines) + end
            if end == b"\r\n":
                assert len(wire) > 65536 and wire[3 + 65535:3 + 65537] == b"\r\n"
            proc = subprocess.run([sys.executable, "-m", "gcdmorphic.cli", "decode"],
                                  input=wire, capture_output=True, env=child_env())
            assert (proc.returncode, proc.stderr) == (EX_OK, b"")
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    # an empty PYTHONUNBUFFERED leaves stdout block-buffered, so the write fails in a flush
    test_full_disk_is_70_with_one_line = rows(*(
        Row("gen --length 3 --seed 1", code=EX_SOFTWARE, err=NO_SPACE, stream="stdout full",
            env=env) for env in (UNBUFFERED, BUFFERED)), ids=["1", ""])
    # argparse writes --help itself: its failed write must not be swallowed or left to
    # the interpreter's exit-time flush
    test_help_on_a_full_disk_is_70_with_one_line = rows(*(
        Row(argv, code=EX_SOFTWARE, err=NO_SPACE, stream="stdout full", env=env)
        for argv in ("--help", "catalog --help") for env in (UNBUFFERED, BUFFERED)),
        ids=["args0-1", "args0-", "args1-1", "args1-"])
    test_closed_reader_is_0_with_nothing_on_stderr = rows(*(
        Row("catalog emit naturals --length 20", stream="stdout reader gone", env=env)
        for env in (UNBUFFERED, BUFFERED)), ids=["1", ""])
    test_digit_limit_input_cross_process = rows(
        Row("decode", f"1\n{'9' * WIDEST}\n", out=f"1\n{'9' * WIDEST}\n"),
        over_the_limit(Row("check c1", f"1\n{'9' * (WIDEST + 1)}\n", out=OK_LINE),
                       EX_DATAERR, "error: line 2: "))


class TestParserReuse:
    # main builds its parser once per process; no call may leak into the next
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_and_usage_errors_do_not_leak_into_the_next_call(self):
        default = ["gen", "--length", "200", "--seed", "3"]
        build_parser.cache_clear()
        fresh = run(default)
        assert fresh[0] == EX_OK
        assert run(default + ["--json"]) != fresh
        assert run(default) == fresh
        assert run(default + ["--primes", "2"])[0] == run(["gen", "--length", "8"])[0] == EX_USAGE
        assert run(default) == fresh

    def test_help_twice_is_byte_identical(self):
        first = run(["gen", "--help"])
        assert first[0] == EX_OK and first[1]
        assert run(["gen", "--help"]) == first


# one digit over the running limit; X and Y are as wide as it allows, and X * Y is not
_WIDE = "7" * (WIDEST + 1)
_X, _Y = f"1{'0' * (WIDEST - 2)}1", f"1{'0' * (WIDEST - 2)}3"


class TestExitCodes:
    test_malformed_input_is_65 = rows(*(
        Row("decode", text, EX_DATAERR, err=f"error: {message}\n") for text, message in [
            ("abc\n", "line 1: not a decimal integer: 'abc'"),
            ("0\n", "line 1: values must be >= 1, got 0"),
            ("1\n0\n", "line 2: values must be >= 1, got 0"),
            ("-3\n", "line 1: not a decimal integer: '-3'"),
            ("1\n2\nx\n", "line 3: not a decimal integer: 'x'"),
            ("", "input is empty: need at least one value"),
            ("# only comments\n\n", "input is empty: need at least one value"),
            ("1\n" * 4096 + "0\n", "line 4097: values must be >= 1, got 0"),
            # a 0 that the JSON codec parses: between two unit runs, after a block's last
            # run, padded by "\r", and on the first block's second line
            ("1\n" * 200 + "0\n" + "1\n" * 200, "line 201: values must be >= 1, got 0"),
            ("1\n" * 300 + "0\n2\n", "line 301: values must be >= 1, got 0"),
            ("1\n" * 200 + "0\r\n" + "1\n" * 200, "line 201: values must be >= 1, got 0"),
            ("1\n2\n0\n" + "1\n" * 200, "line 3: values must be >= 1, got 0")]),
        ids=["abc\n", "0\n", "1\n0\n", "-3\n", "1\n2\nx\n", "", "# only comments\n\n",
             "zero-on-line-4097", "zero-between-unit-runs", "zero-after-the-last-run",
             "zero-with-cr", "zero-on-line-3"])
    # argv integers follow the wire format: ASCII decimal digits only
    test_usage_error_is_64 = rows(*(Row(argv, code=EX_USAGE, err=f"usage error: {message}\n")
                                    for argv, message in [
        ("frobnicate", INVALID_COMMAND.format("frobnicate")),
        ("", "the following arguments are required: COMMAND"),
        ("check", "the following arguments are required: WHAT"),
        ("gen --length 8", "the following arguments are required: --seed"),
        ("gen --length 8 --seed \u0663", "argument --seed: not a decimal integer: '\u0663'"),
        ("gen --length 1_0 --seed 1", "argument --length: not a decimal integer: '1_0'")]))
    # the reader went away (e.g. `| head`): nothing left to report to
    test_broken_pipe_on_stdout_is_0 = rows(*(
        [Row(argv, text, stream="stdout reader gone", env=env) for env in (UNBUFFERED, BUFFERED)]
        for argv, text in [("catalog list", ""), ("decode", "1\n2\n"), ("check c1", "1\n2\n")]),
        ids=["argv0-", "argv1-1\n2\n", "argv2-1\n2\n"])
    test_help_goes_to_given_stdout = rows(
        Row("--help", env=COLUMNS_80,
            out="sha256:d7d7f6ea008e520038100d791429d5a350b9a29b1dcced0805bd5eb6fba45f5c"),
        Row("gen --help", env=COLUMNS_80,
            out="sha256:ee0abcc1c4e14d473d5c6e75df1e85a1b974dca26e5f85b659675fa6b6629528"),
        Row("catalog --help", env=COLUMNS_80,
            out="sha256:befff98b35aaed38f0e4bf38cbde291a29007073892b83a465d5764667a09d40"))
    # a strict UTF-8 locale's stdin; the wire is read with surrogateescape instead
    test_non_utf8_stdin_is_65 = rows(*(
        Row("decode", b"1\n" * (line - 1) + b"\xff\n", EX_DATAERR,
            err=f"error: line {line}: not a decimal integer: '\\udcff'\n",
            env={"PYTHONIOENCODING": "utf-8:strict"}) for line in (5001, 2)))
    test_closed_stdin_is_an_empty_stream = rows(
        Row("decode", code=EX_DATAERR, err="error: input is empty: need at least one value\n",
            stream="stdin closed"),
        Row("gen --length 3 --seed 1", out="# rng=mt19937 seed=1\n132023\n9849\n12506230\n",
            stream="stdin closed"))
    test_diagnostic_lines_exact_bytes = rows(
        Row("encode", "1\n2\n3\n4\n5\n7\n", EX_ENCODE_FAILED,
            err='{"kind":"encode","n":6,"numerator":"7","denominator":"6"}\n'),
        Row("gen --length 8 --seed 1 --primes 2", code=EX_USAGE,
            err="usage error: unrecognized arguments: --primes 2\n"),
        Row("catalog emit primary:0:2 --length 4", code=EX_USAGE,
            err="usage error: unknown catalog name: primary:0:2\n"),
        Row("decode", "1\n" * 70000 + "0\n", EX_DATAERR,
            err="error: line 70001: values must be >= 1, got 0\n"))
    # these rows go one digit over the running limit; with no limit, the same value is
    # read or written
    test_catalog_parameter_over_digit_limit_is_64 = rows(
        Row(f"catalog emit primary:{_WIDE}:2 --length 3", code=EX_USAGE,
            err=f"usage error: unknown catalog name: primary:{_WIDE}:2\n") if digit_limit() else
        Row(f"catalog emit primary:{_WIDE}:2 --length 3", out=f"1\n{_WIDE}\n1\n"))
    # the last row's wide value is in the second read block, which starts at line 32771
    # here, after canonical lines of that block
    test_value_over_digit_limit_is_65_with_line_number = rows(
        Row("decode", f"# header\n1\n{'9' * WIDEST}\n", out=f"1\n{'9' * WIDEST}\n"),
        *(over_the_limit(Row(argv, f"# header\n1\n{_WIDE}\n2\n", out=out), EX_DATAERR,
                         "error: line 3: ") for argv, out in [
            ("decode", f"1\n{_WIDE}\n2\n"), ("encode", f"1\n{_WIDE}\n2\n"), ("check c1", OK_LINE),
            ("corrupt --seed 1", f"1\n1{'5' * WIDEST}4\n2\n")]),  # 2 * _WIDE
        over_the_limit(Row("decode", "1\n" * 40000 + f"{_WIDE}\n2\n",
                           out="1\n" * 40000 + f"{_WIDE}\n2\n"), EX_DATAERR, "error: line 40001: "))

    def test_output_over_digit_limit_writes_nothing(self):
        # the wide value sits past the first 4096-value output chunk
        wide, out = 10**WIDEST, io.StringIO()
        if digit_limit():
            with pytest.raises(ValueError):
                _write_values(SeqPrefix((1,) * 4096 + (wide,)), argparse.Namespace(json=False), out)
            assert out.getvalue() == ""
        else:
            assert _write_values(SeqPrefix((1,) * 4096 + (wide,)),
                                 argparse.Namespace(json=False), out) == EX_OK
            assert out.getvalue() == "1\n" * 4096 + f"{wide}\n"

    def test_values_whose_sum_is_over_digit_limit_are_written(self):
        # each value is as wide as the limit allows, their sum one digit wider
        widest, out = 10**WIDEST - 1, io.StringIO()
        assert _write_values(SeqPrefix((widest,) * 11), argparse.Namespace(json=False),
                             out) == EX_OK
        assert out.getvalue() == f"{'9' * WIDEST}\n" * 11

    # what ROADMAP items 1 and 2 promise; under a digit limit both end in a ValueError
    # traceback today, the first in emit's output and the second in encode's diagnostic
    test_known_defects = rows(
        Row("catalog emit factorial --length 1700 | encode | check c1", code=EX_CHECK_FAILED,
            out=C1_AT_3_2, known_defect=True),
        Row("encode", f"1\n{_X}\n{_Y}\n{_X}\n7\n1\n", EX_ENCODE_FAILED, known_defect=True,
            err=('{"kind":"encode","n":6,"numerator":"1","denominator":"'
                 f"1{'0' * (WIDEST - 2)}4{'0' * (WIDEST - 2)}3" '"}\n')),  # X * Y
        ids=["factorial-1700", "encode-wide-denominator"])


# every row above, named by the test that checks it in this process; a row that two of
# them share is run once
ROWS = list({repr(row): pytest.param(row, id=f"{cls.__name__}.{name}[{case}]",
                                      marks=[KNOWN_DEFECT] * row.known_defect)
             for cls in (TestEncodeDecode, TestWireFormat, TestOneIntegerRule, TestMachineFailures,
                         TestBrokenStreams, TestChecks, TestGenCorrupt, TestCatalogCommands,
                         TestRealProcess, TestExitCodes)
             for name, test in vars(cls).items() for case, row in getattr(test, "rows", ())
             }.values())
EXIT_CODES = {param.values[0].code for param in ROWS}


@pytest.fixture(scope="module", autouse=True)
def real_runs():
    # most of each run is the interpreter's start, so two rows run at a time, from the
    # module's first test on
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)
    try:
        yield {repr(param.values[0]): pool.submit(check, param.values[0], in_a_real_process)
               for param in ROWS}
    finally:
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("row", ROWS)
def test_every_row_in_a_real_process(row, real_runs):
    real_runs[repr(row)].result()


ROOT = Path(__file__).resolve().parents[1]


def test_exit_codes_are_stated_once():
    # the codes the rows expect, the cli module's EX_* names and README's table agree
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = {int(code) for code in re.findall(r"^\| (\d+) +\|", readme, re.MULTILINE)}
    assert EXIT_CODES == {v for k, v in vars(cli).items() if k.startswith("EX_")} == table


def test_ci_runs_readme_lines_and_pinned_digests():
    # each line of ci.yml's README step is a line of README's sh blocks, or tests the digest
    # of a pinned row's output, through the installed script, against that row's digest
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sh_lines = {line for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.M | re.S)
                for line in block.splitlines()}
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    step = re.search(r"- name: README .*\n.*\n +run: \|\n((?: {10}.*\n)+)", ci).group(1)
    pinned = {row.out: row.command for _, row in TestGenCorrupt.test_output_bytes_are_pinned.rows}
    digests = []
    for line in step.splitlines():
        line = line.strip()
        test = re.fullmatch(r'test "\$\((.*) \| sha256sum \| cut -c1-64\)" = ([0-9a-f]{64})', line)
        if test is None:
            assert line in sh_lines
        else:
            command, digest = test.groups()
            stages = pinned["sha256:" + digest].split(" | ")
            assert command == " | ".join(f"gcdmorphic {stage}" for stage in stages)
            digests.append(digest)
    assert digests


# Fuzz of main. Wire values have at most 30 digits and lengths are at most 40, so
# every output value (decode's longest product is over the 9 divisors of 36) stays
# under 640 digits, the lowest int<->str limit CPython accepts: by construction the
# fuzz never meets the known defect of a value too wide for the output conversion.
_FUZZ_JUNK = ["", "-", "x", "+5", "\u0663", "1_0", "0", "-1", "--bogus", "--json",
              "--length", "--seed", "--help", "catalog", "check"]
_FUZZ_LINES = ["0", "+5", "\u0663", "1_0", "", "# note", " 7 ", "-3", "x", "007"]


def _mostly(good, junk):
    # about three draws in four from good, so that most cases get past the parser;
    # hypothesis favours the ends of a range, so junk sits in its middle
    return st.integers(0, 3).flatmap(lambda pick: junk if pick == 2 else good)


@st.composite
def fuzz_argvs(draw):
    junk = st.sampled_from(_FUZZ_JUNK)
    lengths = _mostly(st.integers(1, 40).map(str), junk)
    seeds = _mostly(st.integers(0, 2**64).map(str), junk)
    params = st.integers(0, 10**30 - 1).map(str)
    names = _mostly(st.sampled_from([entry.name for entry in gcdmorphic.entries()])
                    | st.builds("primary:{}:{}".format, params, params)
                    | params.map("constant:{}".format), junk)
    argv = draw(st.sampled_from([["encode"], ["decode"], ["check", "c1"], ["check", "morphic"],
                                 ["check", "certify"], ["catalog", "list"]])
                | st.builds(lambda n, s: ["gen", "--length", n, "--seed", s], lengths, seeds)
                | st.builds(lambda s: ["corrupt", "--seed", s], seeds)
                | st.builds(lambda a, n: ["catalog", "emit", a, "--length", n], names, lengths))
    if draw(st.integers(0, 3)) == 2:
        argv.append("--json")
    if draw(st.integers(0, 3)) == 2:
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@st.composite
def fuzz_wires(draw):
    # a catalog prefix (27! is the last factorial under 30 digits) or random lines,
    # then a few odd lines; CRLF or LF endings; sometimes a byte-order mark
    values = st.integers(1, 6) | st.integers(1, 10**30 - 1)
    catalog = st.builds(lambda name, n: list(map(str, emit(name, n))),
                        st.sampled_from([entry.name for entry in gcdmorphic.entries()]),
                        st.integers(1, 27))
    lines = draw(catalog | st.lists(values.map(str), max_size=40))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(_FUZZ_LINES) | values.map(str)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "", "", "\ufeff"])) + "".join(ln + end for ln in lines)


class TestFuzzExitCodes:
    @settings(max_examples=300, deadline=None)
    @given(fuzz_argvs(), fuzz_wires())
    def test_exit_code_matches_its_output(self, argv, wire):
        rc, out, err = run(argv, wire)  # an exception escaping main fails the test here
        assert rc in EXIT_CODES
        if rc == EX_OK:
            assert err == ""
        elif rc == EX_CHECK_FAILED:
            assert err == "" and out.endswith("\n") and out.count("\n") == 1
            assert json.loads(out)["kind"] in ("c1", "morphic")
        elif rc == EX_ENCODE_FAILED:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1
            assert json.loads(err)["kind"] == "encode"
        elif rc in (EX_USAGE, EX_DATAERR):
            assert out == "" and err.endswith("\n") and err.count("\n") == 1


# The CLI against perfbench/reference.py, which imports nothing from gcdmorphic: exit code
# and stdout bytes on short codes and sequences whose runs of 1s cross the 64-value stretch
# and 1024-line piece edges. Codes hold values up to 10^6 (check c1 reads values up to the
# digit limit wide too), and L <= 2100, so no decoded term is over 640 digits. A sequence is
# the decode of such a code, maybe with terms multiplied by a small factor, which breaks
# its code where it has a multiple, or past L/2 replaced by a value up to the running digit
# limit wide: no output of encode or of a check is then wider than the limit, and no encode
# failure's denominator either.
_COMMANDS = ["encode", "decode", "check c1", "check morphic", "check certify", "gen"]
_ANY_WIDTH = st.integers(1, WIDEST).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))


def _indices(length):
    return (st.integers(1, length) | st.sampled_from(EDGES)).filter(lambda n: n <= length)


@st.composite
def reference_cases(draw):
    """(argv, values, stdin): values is the code or sequence on stdin, with comment, blank
    and padded lines, or gen's (L, seed)."""
    argv = draw(st.sampled_from(_COMMANDS)).split()
    if argv == ["gen"]:
        length, seed = draw(st.integers(1, 2100)), draw(st.integers(0, 2**64 - 1))
        return [*argv, "--length", str(length), "--seed", str(seed)], (length, seed), ""
    # the brute-force oracle scans L^2 pairs, in the CLI and in the reference
    oracle = argv[-1] in ("morphic", "certify")
    length = draw(st.integers(1, 300) if oracle else st.integers(1, 2100) | st.sampled_from(EDGES))
    nonunit = st.integers(2, 100) | st.integers(2, 10**6)
    if argv == ["check", "c1"]:
        nonunit |= _ANY_WIDTH
    code = [1] * length
    for _ in range(draw(st.integers(0, 8))):
        code[draw(_indices(length)) - 1] = draw(nonunit)
    if argv in (["decode"], ["check", "c1"]):
        values = code
    else:
        terms = reference.decode(code)
        values = terms.copy()
        for _ in range(draw(st.integers(0, 3))):
            n = draw(_indices(length))
            wide = _ANY_WIDTH if 2 * n > length else st.nothing()  # in no encode denominator
            values[n - 1] = draw(st.integers(2, 100).map(terms[n - 1].__mul__) | wide)
    lines = [str(v) for v in values]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(min(draw(_indices(length)), len(lines)), draw(st.sampled_from(["# note", ""])))
    for _ in range(draw(st.integers(0, 2))):
        n = draw(_indices(len(lines)))
        lines[n - 1] = f" {lines[n - 1]}\t"
    return argv, values, "".join(f"{line}\n" for line in lines)


# each prime below 100 is the one non-unit code in its stretch, at its first index
_LONE_PRIMES = [1] * 1600
_LONE_PRIMES[::64] = first_primes(25)
_LONE_PRIMES_DECODED = reference.decode(_LONE_PRIMES)


class TestReferenceDifferential:
    @settings(max_examples=150, deadline=None)
    @given(reference_cases())
    @example((["encode"], _LONE_PRIMES_DECODED, reference.format_values(_LONE_PRIMES_DECODED)))
    # chain indices past L/2, alone in their stretches
    @example((["gen", "--length", "2100", "--seed", "1"], (2100, 1), ""))
    def test_exit_code_and_stdout_match_the_reference(self, case):
        argv, values, stdin = case
        rc, out, _ = run(argv, stdin)
        if argv[0] == "gen":
            head, _, out = out.partition("\n")
            assert head.startswith("# rng=")
            expected = EX_OK, reference.format_values(generate(*values).codes)
        elif argv == ["encode"]:
            code = reference.encode(values)
            expected = (EX_OK, reference.format_values(code)) if code else (EX_ENCODE_FAILED, "")
        elif argv == ["decode"]:
            expected = EX_OK, reference.format_values(reference.decode(values))
        else:  # check certify writes the morphic witness, as check morphic does
            c1 = argv[1] == "c1"
            w = (reference.c1_witness if c1 else reference.morphic_witness)(values)
            line = reference.c1_line if c1 else reference.morphic_line
            expected = (EX_CHECK_FAILED, line(*w)) if w else (EX_OK, reference.ok_line())
        assert (rc, out) == expected
