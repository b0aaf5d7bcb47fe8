import argparse
import bisect
import errno
import hashlib
import io
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
from collections import Counter

import pytest
from conftest import NATURALS_CODE_17, WIDEST, child_env, digit_limit, digit_limit_message
from hypothesis import given, settings, strategies as st

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


def run(argv, input_text=""):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, stdin=io.StringIO(input_text), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def lines_of(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestEncodeDecode:
    def test_emit_pipe_encode_matches_reference_code(self):
        rc, seq, _ = run(["catalog", "emit", "naturals", "--length", "17"])
        assert rc == EX_OK
        rc, code, _ = run(["encode"], seq)
        assert rc == EX_OK
        assert tuple(int(v) for v in lines_of(code)) == NATURALS_CODE_17

    def test_decode_then_encode_is_identity(self):
        code_text = "\n".join(str(v) for v in NATURALS_CODE_17) + "\n"
        rc, seq, _ = run(["decode"], code_text)
        assert rc == EX_OK
        rc, back, _ = run(["encode"], seq)
        assert rc == EX_OK
        assert back == code_text

    def test_encode_failure_diagnostic(self):
        rc, out, err = run(["encode"], "1\n2\n3\n5\n")
        assert rc == EX_ENCODE_FAILED
        assert out == ""
        payload = json.loads(err)
        assert payload == {"kind": "encode", "n": 4, "numerator": "5", "denominator": "2"}

    def test_comments_and_blank_lines_ignored(self):
        rc, out, _ = run(["decode"], "# a comment\n\n1\n 2 \n# another\n3\n")
        assert rc == EX_OK
        assert lines_of(out) == ["1", "2", "3"]

    @pytest.mark.parametrize(
        "argv, input_text, role, values",
        [
            (["encode"], "1\n1\n2\n3\n5\n8\n13\n21\n", "code",
             ["1", "1", "2", "3", "5", "4", "13", "7"]),
            (["decode"], "1\n2\n3\n2\n5\n1\n", "sequence", ["1", "2", "3", "4", "5", "6"]),
            (["gen", "--length", "8", "--seed", "1"], "", "code",
             ["699548", "4477", "134749", "242", "53", "119", "59", "494209"]),
            (["corrupt", "--seed", "3"], "699548\n4477\n134749\n242\n53\n119\n59\n494209\n",
             "code", ["699548", "4477", "2560231", "242", "53", "119", "59", "494209"]),
            (["catalog", "emit", "fibonacci", "--length", "8"], "", "sequence",
             ["1", "1", "2", "3", "5", "8", "13", "21"]),
        ],
        ids=["encode", "decode", "gen", "corrupt", "catalog-emit"],
    )
    def test_json_output_uses_string_values(self, argv, input_text, role, values):
        rc, out, _ = run([*argv, "--json"], input_text)
        assert rc == EX_OK
        payload = json.loads(out)
        assert payload["role"] == role
        assert payload["values"] == values
        assert all(isinstance(v, str) for v in payload["values"])
        # exactly one compact JSON line: no "# rng=" comment from gen
        assert out == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_json_survives_huge_values(self):
        rc, seq, _ = run(["catalog", "emit", "mersenne", "--length", "80", "--json"])
        assert rc == EX_OK
        values = json.loads(seq)["values"]
        assert int(values[-1]) == 2**80 - 1


# lines that are not one canonical value: a comment, blank and padded lines, leading
# zeros, and tokens the wire rule rejects, among them some that JSON reads
_ODD_LINES = ["# note\n", "\n", "5\r\n", "007\n", "+5\n", " 5\n", "\u0663\n", "0\n",
              "1,2\n", "1.0\n", "1e3\n", "-3\n", "true\n", "null\n", '"7"\n', "[3]\n",
              "NaN\n", "\t9 \n"]
# canonical, at and just over the running int<->str digit limit
_WIDE_LINES = ["7" * WIDEST + "\n", "7" * (WIDEST + 1) + "\n"]
# lengths around the 4096-value output chunk
_WIRE_LENGTHS = [4095, 4096, 4097, 8193]


def block_edges(lines, block):
    """Indices of the lines at each edge of the read blocks: line 1 is read alone, then
    each block is ``block`` chars and the rest of the line its last char falls on."""
    ends = list(itertools.accumulate(map(len, lines)))
    edges, start = [], ends[0]
    while start < ends[-1]:
        # readline completes the line holding the first char past the block
        last = min(bisect.bisect_right(ends, start + block), len(lines) - 1)
        edges += [last, last + 1]
        start = ends[last]
    return [i for i in edges if i < len(lines)]


@st.composite
def wire_texts(draw):
    """A read-block size of a few dozen chars and a text of canonical lines, with a few
    non-canonical, malformed, JSON-only or very wide lines, often on line 1 or on a
    line at a block edge."""
    block = draw(st.integers(8, 48))
    lines = [f"{i}\n" for i in range(1, draw(st.integers(1, 300)) + 1)]
    for _ in range(draw(st.integers(0, 3))):
        edges = [0, *block_edges(lines, block)]
        at = draw(st.integers(0, len(lines) - 1) | st.sampled_from(edges))
        lines[at] = draw(st.sampled_from(_ODD_LINES + _WIDE_LINES))
    text = "".join(lines)
    return block, text[:-1] if draw(st.booleans()) else text


def values_or_error(read, text):
    try:
        return read(text)
    except MalformedInput as exc:
        return str(exc)


class TestWireFormat:
    @settings(max_examples=300, deadline=None)
    @given(wire_texts())
    def test_chunked_read_matches_line_loop(self, block_and_text):
        block, text = block_and_text
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CHARS", block)
            blocks = values_or_error(lambda t: _read_values(io.StringIO(t)), text)
        line_loop = values_or_error(lambda t: _parse_lines(list(io.StringIO(t)), 1), text)
        # no value at all is the one error the reader adds to the line loop's
        assert blocks == (line_loop or "input is empty: need at least one value")

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
    @given(st.sampled_from(_WIRE_LENGTHS), st.integers(0, 2**32),
           st.lists(st.tuples(st.integers(0, 8192), st.integers(1, 10**WIDEST - 1)), max_size=3))
    def test_write_then_read_round_trips(self, length, seed, planted):
        # values from the seed, one in a hundred up to the digit limit wide, and
        # up to three more of any width up to the limit planted anywhere
        rng = random.Random(seed)
        values = [rng.randint(1, 10 ** (WIDEST if rng.random() < 0.01 else rng.randint(1, 40)) - 1)
                  for _ in range(length)]
        for at, value in planted:
            values[at % length] = value
        out = io.StringIO()
        assert _write_values(SeqPrefix(tuple(values)), argparse.Namespace(json=False), out) == EX_OK
        text = out.getvalue()
        assert text == "".join(f"{v}\n" for v in values)
        assert _read_values(io.StringIO(text)) == values

    @pytest.mark.parametrize("length", _WIRE_LENGTHS)
    def test_chunked_write_is_one_line_per_value(self, length):
        rc, out, _ = run(["catalog", "emit", "naturals", "--length", str(length)])
        assert rc == EX_OK
        assert out == "".join(f"{n}\n" for n in range(1, length + 1))


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

    @pytest.mark.parametrize("argv", [["gen", "--seed", "1"], ["catalog", "emit", "naturals"]])
    def test_length_past_the_longest_list_is_64(self, argv):
        assert run([*argv, "--length", "10000000000000000000"]) == (EX_USAGE, "", (
            f"usage error: argument --length: must be >= 1 and <= {sys.maxsize}, "
            "got 10000000000000000000\n"))

    @pytest.mark.parametrize("argv", [["gen", "--seed", "1"], ["catalog", "emit", "naturals"]])
    def test_length_past_the_digit_limit_is_64_without_its_digits(self, argv):
        # with no limit, the same length is read, and is past the longest list
        digits = "9" * (WIDEST + 1)
        rc, out, err = run([*argv, "--length", digits])
        assert (rc, out) == (EX_USAGE, "")
        if digit_limit():
            assert err == f"usage error: argument --length: {digit_limit_message(WIDEST + 1)}\n"
            assert f"({WIDEST} digits)" in err and "9" * 20 not in err
        else:
            assert err == (f"usage error: argument --length: must be >= 1 and <= {sys.maxsize}, "
                           f"got {digits}\n")

    def test_seed_range_exact_bytes(self):
        assert run(["gen", "--length", "3", "--seed", "18446744073709551616"]) == (EX_USAGE, "", (
            "usage error: argument --seed: must be >= 0 and <= 18446744073709551615, "
            "got 18446744073709551616\n"))


class TestMachineFailures:
    # the machine failed, not the input or a check: exit 70 with one stderr line
    NO_SPACE = f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))}\n"

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_full_disk_on_stdout_is_70(self, failing):
        class FullDisk(io.StringIO):
            pass

        def no_space(*_):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        setattr(FullDisk, failing, no_space)
        err = io.StringIO()
        rc = main(["gen", "--length", "3", "--seed", "1"],
                  stdin=io.StringIO(), stdout=FullDisk(), stderr=err)
        assert (rc, err.getvalue()) == (EX_SOFTWARE, self.NO_SPACE)

    def test_out_of_memory_is_70(self, monkeypatch):
        def no_memory(length, seed):
            raise MemoryError

        monkeypatch.setattr(gcdmorphic.cli, "generate", no_memory)
        assert run(["gen", "--length", "3", "--seed", "1"]) == (
            EX_SOFTWARE, "", "error: out of memory\n")

    # fibonacci, mersenne and factorial build their terms one at a time: never run
    # them at this length, they would take memory until the process is killed
    @pytest.mark.parametrize("argv", [
        ["catalog", "emit", name, "--length", str(sys.maxsize)]
        for name in ("radical", "ones", "naturals", "primary:2:3", "constant:3")
    ] + [["gen", "--length", str(sys.maxsize), "--seed", "1"]])
    def test_longest_length_is_out_of_memory(self, argv):
        assert run(argv) == (EX_SOFTWARE, "", "error: out of memory\n")


class TestBrokenStreams:
    # a closed or full stderr loses the diagnostic line, never the exit code
    class ClosedStderr(io.StringIO):
        def write(self, text):
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    @pytest.mark.parametrize("argv, input_text, code", [
        (["encode"], "1\n2\n3\n5\n", EX_ENCODE_FAILED),
        (["gen", "--length", "0", "--seed", "1"], "", EX_USAGE),
        (["catalog", "emit", "unobtainium", "--length", "4"], "", EX_USAGE),
        (["decode"], "1\nx\n", EX_DATAERR),
        (["check", "certify"], "1\n2\n3\n4\n5\n6\n", EX_SOFTWARE),
    ])
    @pytest.mark.parametrize("closed", ["write fails", "sys.stderr is None"])
    def test_closed_stderr_keeps_the_code(self, monkeypatch, argv, input_text, code, closed):
        # a bogus C1 witness, which only the certify case reads: its routes disagree
        monkeypatch.setattr(gcdmorphic.validator, "check_c1", lambda c: C1Witness(3, 2, 2))
        # Python sets sys.stderr to None when fd 2 is closed; the line must not go to stdout
        monkeypatch.setattr(sys, "stderr", self.ClosedStderr() if closed == "write fails" else None)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(argv, stdin=io.StringIO(input_text)) == code
        assert sys.stdout.getvalue() == ""

    @pytest.mark.parametrize("argv, input_text, code", [
        (["check", "c1"], "1\n2\n", EX_OK),
        (["check", "c1"], "1\n2\n2\n", EX_CHECK_FAILED),
        (["gen", "--length", "3", "--seed", "1"], "", EX_OK),
    ])
    def test_closed_stdout_discards_the_output(self, monkeypatch, argv, input_text, code):
        monkeypatch.setattr(sys, "stdout", None)  # what Python sets when fd 1 is closed
        err = io.StringIO()
        assert main(argv, stdin=io.StringIO(input_text), stderr=err) == code
        assert err.getvalue() == ""

    def run_shell(self, args, redirect, input_text="", **env):
        # sh applies the redirection, so the child starts with that descriptor closed
        command = shlex.join([sys.executable, "-m", "gcdmorphic.cli", *args])
        proc = subprocess.run(["sh", "-c", f"{command} {redirect}"], input=input_text,
                              capture_output=True, text=True, env=child_env(**env))
        return proc.returncode, proc.stdout

    # an empty PYTHONUNBUFFERED leaves stderr buffered, so the failed line stays in its
    # buffer for the interpreter's exit-time flush
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("redirect", [
        "2>&-",
        pytest.param("2>/dev/full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ])
    def test_closed_or_full_stderr_in_a_real_process(self, redirect, unbuffered):
        env = {"PYTHONUNBUFFERED": unbuffered}
        gen = ["gen", "--length", "0", "--seed", "1"]
        assert self.run_shell(gen, redirect, **env) == (EX_USAGE, "")
        assert self.run_shell(["decode"], redirect, "1\nx\n", **env) == (EX_DATAERR, "")
        assert self.run_shell(["encode"], redirect, "1\n2\n3\n5\n", **env) == (EX_ENCODE_FAILED, "")

    def test_closed_stdout_in_a_real_process(self):
        assert self.run_shell(["check", "c1"], ">&-", "1\n2\n") == (EX_OK, "")
        assert self.run_shell(["check", "c1"], ">&-", "1\n2\n2\n") == (EX_CHECK_FAILED, "")
        assert self.run_shell(["gen", "--length", "3", "--seed", "1"], ">&-") == (EX_OK, "")


class TestChecks:
    def test_check_c1_pass(self):
        code_text = "\n".join(str(v) for v in NATURALS_CODE_17) + "\n"
        rc, out, _ = run(["check", "c1"], code_text)
        assert rc == EX_OK
        assert out.strip() == '{"ok":true}'

    def test_check_c1_failure_witness(self):
        rc, out, _ = run(["check", "c1"], "1\n2\n6\n12\n120\n60\n")
        assert rc == EX_CHECK_FAILED
        assert out.strip() == '{"kind":"c1","n":3,"k":2,"g":"2"}'

    def test_check_morphic_witness_exact_bytes(self):
        rc, out, _ = run(["check", "morphic"], "1\n2\n6\n24\n120\n720\n")
        assert rc == EX_CHECK_FAILED
        assert out.strip() == '{"kind":"morphic","n":3,"m":2,"got":"2","expected":"1"}'

    def test_fibonacci_pipeline_passes_c1(self):
        rc, seq, _ = run(["catalog", "emit", "fibonacci", "--length", "12"])
        rc, code, _ = run(["encode"], seq)
        rc, out, _ = run(["check", "c1"], code)
        assert rc == EX_OK

    def test_certify_pass_and_fail(self):
        rc, out, _ = run(["check", "certify"], "1\n1\n2\n3\n5\n8\n")
        assert rc == EX_OK and out.strip() == '{"ok":true}'
        rc, out, _ = run(["check", "certify"], "1\n2\n6\n24\n120\n720\n")
        assert rc == EX_CHECK_FAILED
        assert json.loads(out)["kind"] == "morphic"

    def test_certify_disagreement_is_70(self, monkeypatch):
        # routes that disagree are a bug, so they must not exit 1 like a failed check
        monkeypatch.setattr(gcdmorphic.validator, "check_c1", lambda c: C1Witness(3, 2, 2))
        assert run(["check", "certify"], "1\n2\n3\n4\n5\n6\n") == (
            EX_SOFTWARE, "", "internal error: validator routes disagree; this is a bug\n")

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
    def test_gen_decode_check_pipeline(self):
        for seed in (0, 1, 42, 9999):
            rc, code, _ = run(["gen", "--length", "64", "--seed", str(seed)])
            assert rc == EX_OK
            assert code.startswith("# rng=")
            rc, seq, _ = run(["decode"], code)
            assert rc == EX_OK
            rc, out, _ = run(["check", "morphic"], seq)
            assert rc == EX_OK, out

    def test_gen_deterministic(self):
        a = run(["gen", "--length", "32", "--seed", "7"])
        b = run(["gen", "--length", "32", "--seed", "7"])
        assert a == b

    def test_gen_rejects_bad_params(self):
        rc, _, _ = run(["gen", "--length", "0", "--seed", "1"])
        assert rc == EX_USAGE
        # gen has no density options; each is an unrecognized argument
        for option in ("--primes", "--chains", "--max-exp"):
            assert run(["gen", "--length", "3", "--seed", "1", option, "100000"]) == (
                EX_USAGE, "", f"usage error: unrecognized arguments: {option} 100000\n")

    def test_corrupt_pipeline_fails_c1(self):
        rc, code, _ = run(["gen", "--length", "48", "--seed", "5"])
        rc, bad, _ = run(["corrupt", "--seed", "6"], code)
        assert rc == EX_OK
        rc, out, _ = run(["check", "c1"], bad)
        assert rc == EX_CHECK_FAILED
        assert json.loads(out)["kind"] == "c1"

    def test_corrupt_short_input_is_data_error(self):
        rc, _, err = run(["corrupt", "--seed", "1"], "1\n2\n")
        assert rc == EX_DATAERR

    def test_output_bytes_are_pinned(self):
        # SHA-256 of the full stdout text; any change here breaks seeded reproducibility
        def digest(text):
            return len(text), hashlib.sha256(text.encode()).hexdigest()

        rc, code, _ = run(["gen", "--length", "1000", "--seed", "42"])
        assert rc == EX_OK
        assert digest(code) == (
            2039, "5154b14500154d3b0779747ba61ad1270ee145fe241fc5c6ee6d814bc50021b8")
        assert lines_of(code) == [str(v) for v in generate(1000, 42)]
        rc, bad, _ = run(["corrupt", "--seed", "42"], code)
        assert rc == EX_OK
        assert digest(bad) == (
            2018, "ff7dbe6a6f030dd0c6f171d70c1484b4d90d74fbb0b55b3dd47ec56b5d29e632")


class TestCatalogCommands:
    def test_list_shows_entries_and_patterns(self):
        rc, out, _ = run(["catalog", "list"])
        assert rc == EX_OK
        assert "fibonacci" in out
        assert "factorial" in out and "not-morphic" in out
        assert "primary:C:N" in out
        assert "constant:C" in out

    def test_list_exact_bytes(self):
        assert run(["catalog", "list"]) == (EX_OK, (
            "ones         morphic      all terms 1\n"
            "naturals     morphic      F_n = n\n"
            "fibonacci    morphic      F_1 = F_2 = 1, F_n = F_{n-1} + F_{n-2}\n"
            "mersenne     morphic      F_n = 2^n - 1\n"
            "radical      morphic      product of the distinct primes dividing n\n"
            "factorial    not-morphic  F_n = n!; encodes cleanly but is not GCD-morphic\n"
            "primary:C:N  morphic      value C at multiples of N, 1 elsewhere\n"
            "constant:C   morphic      constant sequence C, C, C, ...\n"
        ), "")

    def test_emit_parameterized(self):
        rc, out, _ = run(["catalog", "emit", "primary:3:2", "--length", "6"])
        assert rc == EX_OK
        assert lines_of(out) == ["1", "3", "1", "3", "1", "3"]

    def test_emit_unknown_name_is_usage_error(self):
        rc, _, err = run(["catalog", "emit", "unobtainium", "--length", "4"])
        assert rc == EX_USAGE
        assert "unknown catalog name" in err


class TestRealProcess:
    def run_proc(self, args, input_text="", stdout=subprocess.PIPE, **env):
        return subprocess.run(
            [sys.executable, "-m", "gcdmorphic.cli", *args],
            input=input_text,
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(**env),
        )

    def test_pipeline_through_os_pipes(self):
        emit = self.run_proc(["catalog", "emit", "fibonacci", "--length", "12"])
        assert emit.returncode == EX_OK
        enc = self.run_proc(["encode"], emit.stdout)
        assert enc.returncode == EX_OK
        chk = self.run_proc(["check", "c1"], enc.stdout)
        assert chk.returncode == EX_OK
        assert chk.stdout.strip() == '{"ok":true}'

    def test_exit_codes_cross_process(self):
        assert self.run_proc(["check", "morphic"], "1\n2\n6\n24\n120\n720\n").returncode == 1
        assert self.run_proc(["encode"], "1\n2\n3\n5\n").returncode == 2
        assert self.run_proc(["bogus"]).returncode == 64
        assert self.run_proc(["decode"], "zero\n").returncode == 65

    def test_help_exits_zero(self):
        assert self.run_proc(["--help"]).returncode == 0

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
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_full_disk_is_70_with_one_line(self, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.run_proc(["gen", "--length", "3", "--seed", "1"], stdout=full,
                                 PYTHONUNBUFFERED=unbuffered)
        assert (proc.returncode, proc.stderr) == (EX_SOFTWARE, TestMachineFailures.NO_SPACE)

    # argparse writes --help itself: its failed write must not be swallowed or left to
    # the interpreter's exit-time flush
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("args", [["--help"], ["catalog", "--help"]])
    def test_help_on_a_full_disk_is_70_with_one_line(self, args, unbuffered):
        with open("/dev/full", "w") as full:
            proc = self.run_proc(args, stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert (proc.returncode, proc.stderr) == (EX_SOFTWARE, TestMachineFailures.NO_SPACE)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_reader_is_0_with_nothing_on_stderr(self, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            proc = self.run_proc(["catalog", "emit", "naturals", "--length", "20"], stdout=pipe,
                                 PYTHONUNBUFFERED=unbuffered)
        assert (proc.returncode, proc.stderr) == (EX_OK, "")

    def test_digit_limit_input_cross_process(self):
        limit = str(digit_limit())  # the child runs at this process's limit
        ok = self.run_proc(["decode"], "1\n" + "9" * WIDEST + "\n", PYTHONINTMAXSTRDIGITS=limit)
        assert ok.returncode == EX_OK
        assert ok.stdout == "1\n" + "9" * WIDEST + "\n"
        wide = self.run_proc(["check", "c1"], "1\n" + "9" * (WIDEST + 1) + "\n",
                             PYTHONINTMAXSTRDIGITS=limit)
        if digit_limit():
            assert (wide.returncode, wide.stdout) == (EX_DATAERR, "")
            assert wide.stderr == f"error: line 2: {digit_limit_message(WIDEST + 1)}\n"
        else:
            assert (wide.returncode, wide.stdout, wide.stderr) == (EX_OK, '{"ok":true}\n', "")


class TestParserReuse:
    # main builds its parser once per process; no call may leak into the next
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_options_do_not_leak_into_the_next_call(self):
        default = ["gen", "--length", "200", "--seed", "3"]
        build_parser.cache_clear()
        fresh = run(default)
        assert fresh[0] == EX_OK
        assert run(default + ["--json"]) != fresh
        assert run(default) == fresh

    def test_help_twice_is_byte_identical(self):
        first = run(["gen", "--help"])
        assert first[0] == EX_OK and first[1]
        assert run(["gen", "--help"]) == first

    def test_usage_error_then_valid_call(self):
        assert run(["gen", "--length", "8", "--seed", "1", "--primes", "2"]) == (
            EX_USAGE, "", "usage error: unrecognized arguments: --primes 2\n")
        assert run(["gen", "--length", "8"])[0] == EX_USAGE
        rc, out, err = run(["gen", "--length", "8", "--seed", "1"])
        assert (rc, err) == (EX_OK, "")
        assert lines_of(out) == [str(v) for v in generate(8, 1)]


class TestExitCodes:
    @pytest.mark.parametrize(
        "input_text",
        ["abc\n", "0\n", "-3\n", "1\n2\nx\n", "", "# only comments\n\n",
         pytest.param("1\n" * 4096 + "0\n", id="zero-on-line-4097")],
    )
    def test_malformed_input_is_65(self, input_text):
        rc, _, err = run(["decode"], input_text)
        assert rc == EX_DATAERR
        assert err.startswith("error:")

    def test_usage_error_is_64(self):
        assert run(["frobnicate"])[0] == EX_USAGE
        assert run([])[0] == EX_USAGE
        assert run(["check"])[0] == EX_USAGE
        assert run(["gen", "--length", "8"])[0] == EX_USAGE  # missing --seed
        # argv integers follow the wire format: ASCII decimal digits only
        assert run(["gen", "--length", "8", "--seed", "\u0663"])[0] == EX_USAGE
        assert run(["gen", "--length", "1_0", "--seed", "1"])[0] == EX_USAGE

    def test_check_failures_are_1(self):
        rc, _, _ = run(["check", "morphic"], "1\n2\n6\n24\n120\n720\n")
        assert rc == EX_CHECK_FAILED

    @pytest.mark.parametrize(
        "argv, input_text",
        [(["catalog", "list"], ""), (["decode"], "1\n2\n"), (["check", "c1"], "1\n2\n")],
    )
    def test_broken_pipe_on_stdout_is_0(self, argv, input_text):
        # the reader went away (e.g. `| head`): nothing left to report to
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        rc = main(argv, stdin=io.StringIO(input_text), stdout=ClosedPipe(), stderr=io.StringIO())
        assert rc == EX_OK

    def test_help_goes_to_given_stdout(self):
        rc, out, _ = run(["--help"])
        assert rc == EX_OK
        assert "usage:" in out
        rc, out, _ = run(["gen", "--help"])
        assert rc == EX_OK
        assert "--seed S" in out

    def test_non_utf8_stdin_is_65(self, monkeypatch):
        # a strict UTF-8 locale's stdin; the wire is read with surrogateescape instead
        raw = io.BytesIO(b"1\n" * 5000 + b"\xff\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
        out, err = io.StringIO(), io.StringIO()
        assert main(["decode"], stdout=out, stderr=err) == EX_DATAERR
        assert (out.getvalue(), err.getvalue()) == (
            "", "error: line 5001: not a decimal integer: '\\udcff'\n")

    def test_closed_stdin_is_an_empty_stream(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", None)  # what Python sets when fd 0 is closed
        out, err = io.StringIO(), io.StringIO()
        assert main(["decode"], stdout=out, stderr=err) == EX_DATAERR
        assert err.getvalue() == "error: input is empty: need at least one value\n"
        assert main(["gen", "--length", "3", "--seed", "1"], stdout=out, stderr=err) == EX_OK

    def test_diagnostic_lines_exact_bytes(self):
        assert run(["encode"], "1\n2\n3\n5\n") == (
            EX_ENCODE_FAILED, "", '{"kind":"encode","n":4,"numerator":"5","denominator":"2"}\n')
        assert run(["gen", "--length", "8", "--seed", "1", "--primes", "2"]) == (
            EX_USAGE, "", "usage error: unrecognized arguments: --primes 2\n")
        assert run(["catalog", "emit", "unobtainium", "--length", "4"]) == (
            EX_USAGE, "", "usage error: unknown catalog name: unobtainium\n")
        assert run(["decode"], "1\n" * 4096 + "0\n") == (
            EX_DATAERR, "", "error: line 4097: values must be >= 1, got 0\n")

    # these three tests go one digit over the running limit; with no limit, the
    # same value is read or written
    def test_catalog_parameter_over_digit_limit_is_64(self):
        wide = "7" * (WIDEST + 1)
        name = f"primary:{wide}:2"
        expected = ((EX_USAGE, "", f"usage error: unknown catalog name: {name}\n") if digit_limit()
                    else (EX_OK, f"1\n{wide}\n1\n", ""))
        assert run(["catalog", "emit", name, "--length", "3"]) == expected

    def test_value_over_digit_limit_is_65_with_line_number(self):
        widest, wide = "9" * WIDEST, "9" * (WIDEST + 1)
        assert run(["decode"], f"# header\n1\n{widest}\n") == (EX_OK, f"1\n{widest}\n", "")
        for argv in (["decode"], ["encode"], ["check", "c1"], ["corrupt", "--seed", "1"]):
            rc, out, err = run(argv, f"# header\n1\n{wide}\n2\n")
            if digit_limit():
                assert (rc, out) == (EX_DATAERR, "")
                assert err == f"error: line 3: {digit_limit_message(WIDEST + 1)}\n"
            else:
                assert (rc, err) == (EX_OK, "")
        # in the second read block, which starts at line 32771 here, after canonical
        # lines of that block
        expected = ((EX_DATAERR, "", f"error: line 40001: {digit_limit_message(WIDEST + 1)}\n")
                    if digit_limit() else (EX_OK, "1\n" * 40000 + f"{wide}\n2\n", ""))
        assert run(["decode"], "1\n" * 40000 + f"{wide}\n2\n") == expected

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
        assert rc in {EX_OK, EX_CHECK_FAILED, EX_ENCODE_FAILED, EX_USAGE, EX_DATAERR, EX_SOFTWARE}
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
