"""The ``gcdmorphic`` command: the library's calls wired into shell pipelines.

README states what a user may rely on: the wire format, the exit codes and the witness
JSON. The comments here state the invariants the code keeps to honour them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
from itertools import repeat
from typing import Callable, Sequence, TextIO

from .catalog import PARAMETERIZED_FORMS, UnknownName, emit, entries
from .codec import EncodeFailure, decode, encode
from .core import CodePrefix, SeqPrefix, _decimal
from .generator import MAX_SEED, RNG_ALGORITHM, corrupt, generate
from .validator import C1Witness, MorphicWitness, certify, check_c1, check_gcd_morphic

EX_OK = 0
EX_CHECK_FAILED = 1
EX_ENCODE_FAILED = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_COMPACT = {"separators": (",", ":")}

_BLOCK_CHARS = 1 << 16
_BLOCK_BYTES = b"0123456789\r\n"
_UNITS = "\n" + "1\n" * 128
_CHUNK_LINES = 1024
_UNIT_CHUNK = (1,) * _CHUNK_LINES
_UNIT_LINES = "1\n" * _CHUNK_LINES
_VALUE_LINES = "%d\n" * _CHUNK_LINES


class UsageError(Exception):
    pass


class MalformedInput(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad args; raise instead so main() owns
    # the exit code and streams.
    def error(self, message: str):  # noqa: D102
        raise UsageError(message)

    # argparse's own swallows a failed write of --help; here it raises inside main
    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        print(message, end="", file=file or sys.stderr, flush=True)


def _int_arg(low: int, high: int) -> Callable[[str], int]:
    """argparse type for a decimal integer (read as a wire value is) in low..high."""

    def integer(raw: str) -> int:
        try:
            value = _decimal(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be >= {low} and <= {high}, got {value}")
        return value

    return integer


def _parse_lines(lines: list[str], first: int) -> list[int]:
    """Values of ``lines``, the first of them being line ``first``: the only code
    that skips comments and blank lines, and the only one that builds an error."""
    values: list[int] = []
    for lineno, raw in enumerate(lines, start=first):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = _decimal(line)
        except ValueError as exc:
            raise MalformedInput(f"line {lineno}: {exc}") from None
        if value < 1:
            raise MalformedInput(f"line {lineno}: values must be >= 1, got {value}")
        values.append(value)
    return values


def _convert(text: str) -> list[int]:
    """The values of a block of digits and line ends: each run of lines "1" that _UNITS
    finds as that many 1s, the lines between runs by the stdlib JSON codec."""
    text = "\n" + text  # every line, the block's first too, follows a line end
    values: list[int] = []
    end = 0  # text[end] ends the last line converted
    while (run := text.find(_UNITS, end)) >= 0:
        values += json.loads("[" + text[end + 1:run].replace("\n", ",") + "]")
        end = run
        while text.startswith(_UNITS, end):
            end += len(_UNITS) - 1
        # the count takes a unit line as 2 chars: a line "1\r" is not one, and goes to the
        # JSON codec, which reads "\r" as white space
        values += repeat(1, (end - run) // 2)
    values += json.loads("[" + text[end + 1:].rstrip("\n").replace("\n", ",") + "]")
    return values


def _read_values(stream: TextIO) -> list[int]:
    """The values of the wire, checked: a non-empty list of ints >= 1, which
    ``main`` hands to the prefix types' unchecked constructor."""
    # line 1 alone: gen's "# rng=" header would send a whole block to the line loop
    values = _parse_lines([stream.readline()], 1)
    lineno = 2
    while text := stream.read(_BLOCK_CHARS) + stream.readline():
        count = text.count("\n") + (not text.endswith("\n"))
        converted = []  # count >= 1: read line by line unless the decoder gives count values
        # A block of digits, "\r" and "\n" (POSIX stdin keeps the "\r" of CRLF) may skip
        # _parse_lines if _convert gives one value per line and no 0: a blank line or two
        # tokens on one line break the parse or the count, so each line is digits padded by
        # "\r", which _parse_lines would strip. As JSON refuses a leading zero, only a line
        # "0" gives a value below 1.
        if text.isascii() and not text.encode("ascii").translate(None, _BLOCK_BYTES):
            with contextlib.suppress(ValueError):  # a bad line, or a value over the digit limit
                converted = _convert(text)
        if len(converted) != count or not all(converted):
            converted = _parse_lines(text.split("\n")[:count], lineno)
        values += converted
        lineno += count
    if not values:
        raise MalformedInput("input is empty: need at least one value")
    return values


def _write_values(prefix: SeqPrefix | CodePrefix, args, out: TextIO) -> int:
    if args.json:
        role = "code" if isinstance(prefix, CodePrefix) else "sequence"
        payload = {"role": role, "values": [str(v) for v in prefix]}
        print(json.dumps(payload, **_COMPACT), file=out)
    else:
        # the largest value has the most digits: if any value is over the
        # digit limit, this raises before the first byte is written
        str(max(prefix))
        values = prefix._values
        for start in range(0, len(values), _CHUNK_LINES):
            chunk = values[start:start + _CHUNK_LINES]
            if chunk == _UNIT_CHUNK[:len(chunk)]:
                out.write(_UNIT_LINES[:2 * len(chunk)])
            else:
                out.write(_VALUE_LINES[:3 * len(chunk)] % chunk)  # "%d" writes what str does
    return EX_OK


def _witness_json(kind: str, **fields: int) -> str:
    """One witness line: indices n, k, m as JSON numbers, other values as decimal strings."""
    payload: dict[str, str | int] = {"kind": kind}
    for key, value in fields.items():
        payload[key] = value if key in ("n", "k", "m") else str(value)
    return json.dumps(payload, **_COMPACT)


def _write_verdict(w: C1Witness | MorphicWitness | None, args, out: TextIO) -> int:
    if w is None:
        print(json.dumps({"ok": True}, **_COMPACT), file=out)
        return EX_OK
    kind = "c1" if isinstance(w, C1Witness) else "morphic"
    print(_witness_json(kind, **{name: getattr(w, name) for name in w._fields}), file=out)
    return EX_CHECK_FAILED


def _write_gen(code: CodePrefix, args, out: TextIO) -> int:
    if not args.json:
        out.write(f"# rng={RNG_ALGORITHM} seed={args.seed}\n")
    return _write_values(code, args, out)


def _write_catalog(listed, args, out: TextIO) -> int:
    rows = [(e.name, e.expected_morphic, e.description) for e in listed]
    rows += [(name, morphic, desc) for name, desc, morphic in PARAMETERIZED_FORMS]
    width = max(len(name) for name, _, _ in rows)
    for name, morphic, desc in rows:
        flag = "morphic" if morphic else "not-morphic"
        out.write(f"{name:<{width}}  {flag:<11}  {desc}\n")
    return EX_OK


def _corrupt(args, given: CodePrefix) -> CodePrefix:
    try:
        return corrupt(given, args.seed)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc


@functools.cache  # parse_args keeps no state in the parser: it fills a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    # A leaf command is three defaults: reads (stdin's prefix type, or None), run(args, given)
    # (the library call, by its global name) and writes(result, args, out) -> exit code.
    parser = _Parser(
        prog="gcdmorphic",
        description="encode/decode GCD-morphic sequences, check them, generate codes",
    )
    parser.set_defaults(reads=None, writes=_write_values)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="emit one JSON object with string-encoded values instead of lines")

    p = sub.add_parser("encode", parents=[json_flag],
                       help="read a sequence on stdin, write its code")
    p.set_defaults(reads=SeqPrefix, run=lambda args, given: encode(given))

    p = sub.add_parser("decode", parents=[json_flag],
                       help="read a code on stdin, write its sequence")
    p.set_defaults(reads=CodePrefix, run=lambda args, given: decode(given))

    p = sub.add_parser("check", help="validate stdin; exit 0 on pass, 1 with a witness")
    p.set_defaults(writes=_write_verdict)
    what = p.add_subparsers(dest="target", metavar="WHAT", required=True)
    q = what.add_parser("c1", help="coprimality condition on a code")
    q.set_defaults(reads=CodePrefix, run=lambda args, given: check_c1(given))
    q = what.add_parser("morphic", help="brute-force GCD-morphic check on a sequence")
    q.set_defaults(reads=SeqPrefix, run=lambda args, given: check_gcd_morphic(given))
    q = what.add_parser("certify", help="encode + c1 + brute force on a sequence")
    q.set_defaults(reads=SeqPrefix, run=lambda args, given: certify(given).morphic_witness)

    p = sub.add_parser("gen", parents=[json_flag], help="write a code that passes the c1 check")
    p.add_argument("--length", type=_int_arg(1, sys.maxsize), required=True, metavar="L")
    p.add_argument("--seed", type=_int_arg(0, MAX_SEED), required=True, metavar="S")
    p.set_defaults(run=lambda args, given: generate(args.length, args.seed), writes=_write_gen)

    p = sub.add_parser("corrupt", parents=[json_flag],
                       help="read a code, break its coprimality condition")
    p.add_argument("--seed", type=_int_arg(0, MAX_SEED), required=True, metavar="S")
    p.set_defaults(reads=CodePrefix, run=_corrupt)

    p = sub.add_parser("catalog", help="named reference sequences")
    cat = p.add_subparsers(dest="action", metavar="ACTION", required=True)
    q = cat.add_parser("list", help="list entry names and parameterized forms")
    q.set_defaults(run=lambda args, given: entries(), writes=_write_catalog)
    q = cat.add_parser("emit", parents=[json_flag], help="write a prefix of the named sequence")
    q.add_argument("name", metavar="NAME")
    q.add_argument("--length", type=_int_arg(1, sys.maxsize), required=True, metavar="L")
    q.set_defaults(run=lambda args, given: emit(args.name, args.length))

    return parser


def _to_devnull(stream: TextIO) -> None:
    # a failed write: what the stream still buffers must not fail again in the exit flush
    with contextlib.suppress(OSError):  # io.StringIO has no descriptor
        fd, null = stream.fileno(), os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def _run(argv: Sequence[str] | None, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(stdout):  # --help text goes to our stdout
            args = parser.parse_args(argv)
        # _read_values checks every value, so the prefix skips the walk of the public
        # constructor; no name keeps it, so it is freed before the output is written
        read = args.reads and args.reads._trusted
        result = args.run(args, read(tuple(_read_values(stdin))) if read else None)
        code = args.writes(result, args, stdout)
        stdout.flush()  # a failed write surfaces here, not in the interpreter's exit
        return code
    except SystemExit as exc:  # argparse --help, its text already flushed
        return exc.code if isinstance(exc.code, int) else EX_OK
    except EncodeFailure as exc:
        fields = {"n": exc.index, "numerator": exc.numerator, "denominator": exc.denominator}
        code, line = EX_ENCODE_FAILED, _witness_json("encode", **fields)
    except UnknownName as exc:
        code, line = EX_USAGE, f"usage error: unknown catalog name: {exc.args[0]}"
    except UsageError as exc:
        code, line = EX_USAGE, f"usage error: {exc}"
    except MalformedInput as exc:
        code, line = EX_DATAERR, f"error: {exc}"
    except AssertionError as exc:  # certify's routes disagree
        code, line = EX_SOFTWARE, f"internal error: {exc}"
    except OSError as exc:  # stdout on a full disk, or its reader went away (`| head`)
        _to_devnull(stdout)
        if isinstance(exc, BrokenPipeError):
            return EX_OK  # nothing left to report to
        code, line = EX_SOFTWARE, f"error: {exc}"
    except MemoryError:
        code, line = EX_SOFTWARE, "error: out of memory"
    try:
        print(line, file=stderr, flush=True)
    except OSError:  # a closed or full stderr must not change the code
        _to_devnull(stderr)
    return code


def main(
    argv: Sequence[str] | None = None,
    *,
    stdin: TextIO | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    if stdin is None:  # fd 0 as UTF-8 in every locale; closed, it reads as an empty stream
        stdin = sys.stdin or io.StringIO()
        if isinstance(stdin, io.TextIOWrapper):
            stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    # Python sets a closed stream's sys name to None, and print(file=None) writes to stdout:
    # such a stream writes to os.devnull instead, closed before main returns
    with contextlib.ExitStack() as sinks:
        if stdout is None:
            stdout = sys.stdout or sinks.enter_context(open(os.devnull, "w"))
        if stderr is None:
            stderr = sys.stderr or sinks.enter_context(open(os.devnull, "w"))
        return _run(argv, stdin, stdout, stderr)


if __name__ == "__main__":
    sys.exit(main())
