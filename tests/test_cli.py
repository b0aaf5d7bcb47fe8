import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gcdmorphic
from gcdmorphic.cli import (
    EX_CHECK_FAILED,
    EX_DATAERR,
    EX_ENCODE_FAILED,
    EX_OK,
    EX_SOFTWARE,
    EX_USAGE,
    MalformedInput,
    _parse_lines,
    _read_values,
    _write_values,
    build_parser,
    main,
)
from gcdmorphic.core import SeqPrefix
from gcdmorphic.generator import generate
from gcdmorphic.validator import Certificate

NATURALS_CODE_17 = (1, 2, 3, 2, 5, 1, 7, 2, 3, 1, 11, 1, 13, 1, 1, 2, 17)


def run(argv, input_text=""):
    out, err = io.StringIO(), io.StringIO()
    rc = main(argv, stdin=io.StringIO(input_text), stdout=out, stderr=err)
    return rc, out.getvalue(), err.getvalue()


def digit_limit_message(digits):
    # CPython's own text for an int() over its int<->str digit limit
    with pytest.raises(ValueError) as exc:
        int("9" * digits)
    return str(exc.value)


needs_default_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="needs CPython's default int<->str digit limit of 4300",
)


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


_ODD_LINES = ["# note\n", "\n", "5\r\n", "007\n", "+5\n", " 5\n", "\u0663\n", "0\n"]
# canonical, at and just over CPython's default 4300-digit int<->str limit
_WIDE_LINES = ["7" * 4300 + "\n", "7" * 4301 + "\n"]
_WIRE_LENGTHS = [4095, 4096, 4097, 8193]


@st.composite
def wire_texts(draw):
    """Canonical lines at lengths around the 4096-line read chunk, with a few
    non-canonical, malformed or very wide lines, often at a chunk edge."""
    length = draw(st.sampled_from(_WIRE_LENGTHS))
    lines = [f"{i}\n" for i in range(1, length + 1)]
    edges = [i for i in (0, 4095, 4096, length - 1) if i < length]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, length - 1) | st.sampled_from(edges))
        lines[at] = draw(st.sampled_from(_ODD_LINES + _WIDE_LINES))
    text = "".join(lines)
    return text[:-1] if draw(st.booleans()) else text


def values_or_error(read, text):
    try:
        return read(text)
    except MalformedInput as exc:
        return str(exc)


class TestWireFormat:
    @settings(max_examples=100, deadline=None)
    @given(wire_texts())
    def test_chunked_read_matches_line_loop(self, text):
        chunked = values_or_error(lambda t: _read_values(io.StringIO(t)), text)
        line_loop = values_or_error(lambda t: _parse_lines(list(io.StringIO(t)), 1), text)
        assert chunked == line_loop

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(_WIRE_LENGTHS), st.integers(0, 2**32),
           st.lists(st.tuples(st.integers(0, 8192), st.integers(1, 10**4300 - 1)), max_size=3))
    def test_write_then_read_round_trips(self, length, seed, planted):
        # values from the seed, one in a hundred up to 4300 digits wide, and up to
        # three more of any width up to 4300 digits planted anywhere
        rng = random.Random(seed)
        values = [rng.randint(1, 10 ** (4300 if rng.random() < 0.01 else rng.randint(1, 40)) - 1)
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
        disagree = Certificate(code=None, encode_failure=None, c1_witness=None,
                               morphic_witness=None, consistent=False)
        monkeypatch.setattr(gcdmorphic.cli, "certify", lambda f: disagree)
        assert run(["check", "certify"], "1\n1\n2\n") == (
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
    def run_proc(self, args, input_text=""):
        # the child imports the same package as this process, installed or not
        src = str(Path(gcdmorphic.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "gcdmorphic.cli", *args],
            input=input_text,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
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

    @needs_default_digit_limit
    def test_digit_limit_input_cross_process(self):
        ok = self.run_proc(["decode"], "1\n" + "9" * 4300 + "\n")
        assert ok.returncode == EX_OK
        assert ok.stdout == "1\n" + "9" * 4300 + "\n"
        bad = self.run_proc(["check", "c1"], "1\n" + "9" * 4301 + "\n")
        assert bad.returncode == EX_DATAERR
        assert bad.stdout == ""
        assert bad.stderr == f"error: line 2: {digit_limit_message(4301)}\n"


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

    @needs_default_digit_limit
    def test_catalog_parameter_over_digit_limit_is_64(self):
        name = "primary:" + "7" * 5000 + ":2"
        assert run(["catalog", "emit", name, "--length", "3"]) == (
            EX_USAGE, "", f"usage error: unknown catalog name: {name}\n")

    @needs_default_digit_limit
    def test_value_over_digit_limit_is_65_with_line_number(self):
        rc, out, _ = run(["decode"], "# header\n1\n" + "9" * 4300 + "\n")
        assert rc == EX_OK
        assert out == "1\n" + "9" * 4300 + "\n"
        for argv in (["decode"], ["encode"], ["check", "c1"], ["corrupt", "--seed", "1"]):
            rc, out, err = run(argv, "# header\n1\n" + "9" * 4301 + "\n2\n")
            assert (rc, out) == (EX_DATAERR, "")
            assert err == f"error: line 3: {digit_limit_message(4301)}\n"
        # in the second 4096-line chunk, after canonical lines of that chunk
        rc, out, err = run(["decode"], "1\n" * 4099 + "9" * 4301 + "\n2\n")
        assert (rc, out) == (EX_DATAERR, "")
        assert err == f"error: line 4100: {digit_limit_message(4301)}\n"

    @needs_default_digit_limit
    def test_output_over_digit_limit_writes_nothing(self):
        # the wide value sits past the first 4096-value output chunk
        out = io.StringIO()
        with pytest.raises(ValueError):
            _write_values(SeqPrefix((1,) * 4096 + (10**4301,)), argparse.Namespace(json=False), out)
        assert out.getvalue() == ""
