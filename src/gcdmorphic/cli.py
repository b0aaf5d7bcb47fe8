"""Command-line front door wiring the library into shell pipelines.

Wire format: UTF-8 text, one decimal integer per line, line 1 = index 1.
Blank lines and lines starting with ``#`` are ignored. Input is read and
checked a chunk of 4096 lines at a time, never as one whole string; an error
still names its line. Output is written in chunks of the same size. A chunk of
canonical lines is converted by one call into the stdlib JSON codec, which
reads and writes the same bytes as ``int`` and ``str``.
``--json`` switches sequence output to a single object
``{"role": ..., "values": [...]}`` whose values are decimal strings, so
integers beyond 2^53 survive every consumer.

Exit codes:
    0   success / check passed
    1   check failed (witness JSON on stdout)
    2   encode failure (diagnostic JSON on stderr)
    64  usage error
    65  malformed input (non-integer, not UTF-8, zero, negative, over the digit limit,
        empty stream or closed stdin)
    70  internal error: the certify routes disagree (a bug, never a verdict)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import re
import sys
from typing import Callable, Sequence, TextIO

from .catalog import PARAMETERIZED_FORMS, UnknownName, emit, entries
from .codec import EncodeFailure, decode, encode
from .core import CodePrefix, SeqPrefix
from .generator import MAX_SEED, RNG_ALGORITHM, corrupt, generate
from .validator import C1Witness, MorphicWitness, certify, check_c1, check_gcd_morphic

EX_OK = 0
EX_CHECK_FAILED = 1
EX_ENCODE_FAILED = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_SOFTWARE = 70

_COMPACT = {"separators": (",", ":")}

# Wire lines are read and written this many at a time. A chunk of canonical lines
# (digits without a leading zero, one value per line) is checked by one regex and
# converted by one json.loads; any other chunk goes through _parse_lines. The pattern
# admits only ASCII digits and "\n", so each of its lines is one line of the chunk and
# the JSON text made from it is a list of exactly those integers. json.dumps writes an
# int as int.__repr__ does, so an output chunk has the bytes of str.
_CHUNK_LINES = 4096
_CANONICAL_LINES = re.compile(r"[1-9][0-9]*(?:\n[1-9][0-9]*)*\n?")


class UsageError(Exception):
    pass


class MalformedInput(Exception):
    pass


class _RoutesDisagree(Exception):
    """certify's encoder route and brute-force route gave different verdicts."""


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad args; raise instead so main() owns
    # the exit code (64) and streams.
    def error(self, message: str):  # noqa: D102
        raise UsageError(message)


def _int_arg(low: int, high: int | None = None) -> Callable[[str], int]:
    """argparse type for an ASCII decimal integer in low..high."""

    def integer(raw: str) -> int:
        if not (raw.isascii() and raw.isdigit()):
            raise argparse.ArgumentTypeError(f"not a decimal integer: {raw!r}")
        value = int(raw)
        if value < low or (high is not None and value > high):
            upper = "" if high is None else f" and <= {high}"
            raise argparse.ArgumentTypeError(f"must be >= {low}{upper}, got {value}")
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
        if not (line.isascii() and line.isdigit()):
            raise MalformedInput(f"line {lineno}: not a decimal integer: {line!r}")
        try:
            value = int(line)
        except ValueError as exc:  # over CPython's int<->str digit limit
            raise MalformedInput(f"line {lineno}: {exc}") from None
        if value < 1:
            raise MalformedInput(f"line {lineno}: values must be >= 1, got {value}")
        values.append(value)
    return values


def _read_values(stream: TextIO) -> list[int]:
    """The values of the wire, checked: a non-empty list of ints >= 1, which
    ``main`` hands to the prefix types' unchecked constructor."""
    values: list[int] = []
    lineno = 1
    while chunk := list(itertools.islice(stream, _CHUNK_LINES)):
        converted = None
        text = "".join(chunk)
        if _CANONICAL_LINES.fullmatch(text):
            # a value over the digit limit raises here; _parse_lines then names its line
            with contextlib.suppress(ValueError):
                converted = json.loads("[" + text.rstrip("\n").replace("\n", ",") + "]")
        values += converted if converted is not None else _parse_lines(chunk, lineno)
        lineno += len(chunk)
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
        values = iter(prefix)
        while chunk := list(itertools.islice(values, _CHUNK_LINES)):
            out.write(json.dumps(chunk, separators=("\n", ":"))[1:-1] + "\n")
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
    print(_witness_json(kind, **vars(w)), file=out)
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


def _certified(args, given: SeqPrefix) -> MorphicWitness | None:
    cert = certify(given)
    if not cert.consistent:
        raise _RoutesDisagree("validator routes disagree; this is a bug")
    # consistency guarantees a brute-force witness exactly when certification fails
    return cert.morphic_witness


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
    q.set_defaults(reads=SeqPrefix, run=_certified)

    p = sub.add_parser("gen", parents=[json_flag], help="write a code that passes the c1 check")
    p.add_argument("--length", type=_int_arg(1), required=True, metavar="L")
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
    q.add_argument("--length", type=_int_arg(1), required=True, metavar="L")
    q.set_defaults(run=lambda args, given: emit(args.name, args.length))

    return parser


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
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(stdout):  # --help text goes to our stdout
            args = parser.parse_args(argv)
        # _read_values checks every value, so the prefix skips the walk of the public
        # constructor; no name keeps it, so it is freed before the output is written
        read = args.reads and args.reads._trusted
        result = args.run(args, read(tuple(_read_values(stdin))) if read else None)
        return args.writes(result, args, stdout)
    except EncodeFailure as exc:
        fields = {"n": exc.index, "numerator": exc.numerator, "denominator": exc.denominator}
        print(_witness_json("encode", **fields), file=stderr)
        return EX_ENCODE_FAILED
    except UnknownName as exc:
        print(f"usage error: unknown catalog name: {exc.args[0]}", file=stderr)
        return EX_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=stderr)
        return EX_USAGE
    except MalformedInput as exc:
        print(f"error: {exc}", file=stderr)
        return EX_DATAERR
    except _RoutesDisagree as exc:
        print(f"internal error: {exc}", file=stderr)
        return EX_SOFTWARE
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else EX_OK
    except BrokenPipeError:
        return EX_OK


if __name__ == "__main__":
    sys.exit(main())
