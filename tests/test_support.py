"""The readers of a prefix's support, the wire writer and ``_nonunit``, give the same with
the support its producer handed ``_trusted`` as without it, at the edges of stretches and
of read blocks. The support itself is checked at every call by ``vouched_supports_hold``
in conftest.py."""

import argparse
import io

import pytest
from conftest import EDGES
from hypothesis import example, given, settings, strategies as st

from gcdmorphic import cli
from gcdmorphic.catalog import emit, entries
from gcdmorphic.codec import decode, encode
from gcdmorphic.core import _STRETCH, CodePrefix, SeqPrefix, _nonunit
from gcdmorphic.generator import corrupt, generate

POOL_SEEDS = range(1, 33)


def wire(prefix):
    out = io.StringIO()
    assert cli._write_values(prefix, argparse.Namespace(json=False), out) == cli.EX_OK
    return out.getvalue()


def assert_support(prefix):
    """``prefix``'s producer handed it a support, and the writer and ``_nonunit`` give the
    same with the support dropped."""
    assert "_support" in prefix.__dict__, "the producer handed no support"
    dropped = type(prefix)._trusted(prefix._values)
    assert wire(prefix) == wire(dropped) == "".join(f"{v}\n" for v in prefix)
    assert _nonunit(prefix) == _nonunit(dropped)


def read(cls, text):
    return cls._trusted(*cli._read_values(io.StringIO(text)))


def planted(length, at, value=7):
    values = [1] * length
    for n in at:
        values[n - 1] = value
    return values


class TestReader:
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["LF", "CRLF"])
    @pytest.mark.parametrize("length", [2048, 3000])
    @pytest.mark.parametrize("n", EDGES)
    def test_one_nonunit_at_a_stretch_edge(self, n, length, end):
        values = planted(length, [n])
        prefix = read(CodePrefix, "".join(f"{v}{end}" for v in values))
        assert prefix.codes == tuple(values)
        assert_support(prefix)
        if end == "\n":  # "1\r" lines are no unit run, so CRLF flags every stretch
            # line 1, read alone; the stretch of n and those of the fewer than 128 unit
            # lines before it that no whole run took; and those of such a tail
            assert prefix._support[(n - 1) // _STRETCH] == 1
            assert sum(prefix._support) <= 8

    @pytest.mark.parametrize("n", EDGES)
    def test_the_gen_header_comments_and_blank_lines(self, n):
        values = planted(3000, [n, 3000 - n])
        lines = [f"{v}\n" for v in values]
        lines[1500:1500] = ["# a comment\n", "\n", "  \n"]  # that block goes line by line
        text = "# rng=mt19937 seed=1\n" + "".join(lines)
        prefix = read(CodePrefix, text)
        assert prefix.codes == tuple(values)
        assert_support(prefix)

    @pytest.mark.parametrize("line", ["7\n", "# rng=mt19937 seed=1\n", "\n", "1\n"])
    def test_line_one(self, line):
        rest = planted(2000, [1500])
        prefix = read(CodePrefix, line + "".join(f"{v}\n" for v in rest))
        assert_support(prefix)

    # a few short unit runs and read blocks, so that runs, blocks and stretches cut each
    # other everywhere; the non-units sit anywhere, maybe padded, which sends their
    # block to _parse_lines
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 700), st.integers(16, 600), st.integers(2, 9),
           st.lists(st.tuples(st.integers(0, 699), st.integers(2, 10**30), st.booleans()),
                    max_size=6))
    @example(640, 64, 2, [(63, 5, False), (64, 5, False)])
    @example(300, 600, 9, [(0, 2, True), (299, 3, False)])
    # blocks of 63 lines after line 1, each nine whole unit runs, until a block read line
    # by line starts with the non-unit last value of a stretch
    @example(300, 125, 7, [(127, 5, True)])
    def test_small_blocks_and_unit_runs(self, length, block, run, plants):
        lines = ["1\n"] * length
        for at, value, padded in plants:
            lines[at % length] = f" {value}\n" if padded else f"{value}\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_BLOCK_CHARS", block)
            patch.setattr(cli, "_UNITS", "\n" + "1\n" * run)
            prefix = read(SeqPrefix, "".join(lines))
        assert prefix.terms == tuple(int(line) for line in lines)
        assert_support(prefix)


@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_generate_corrupt_decode_encode_over_the_pool_seeds(seed):
    code = generate(100000, seed)
    broken = corrupt(code, seed)
    for c in (code, broken):
        assert_support(c)
        f = decode(c)
        assert_support(f)
        back = encode(f)
        assert back == c
        assert_support(back)


@pytest.mark.parametrize("length", [1, 3, 64, 65, 3000])
@pytest.mark.parametrize("seed", [0, 7])
def test_short_gen_codes(length, seed):
    code = generate(length, seed)
    assert_support(code)
    assert_support(decode(code))
    if length >= 3:
        assert_support(corrupt(code, seed))
        assert_support(decode(corrupt(code, seed)))


@pytest.mark.parametrize("name, length", [
    *((e.name, 300 if e.name == "factorial" else 1500) for e in entries()),
    ("primary:5:64", 3000), ("primary:5:65", 3000), ("primary:2:1000", 3000), ("constant:3", 200),
])
def test_encode_and_decode_of_the_catalog(name, length):
    code = encode(emit(name, length))
    assert_support(code)
    assert_support(decode(code))


def test_corrupt_of_a_code_without_a_support():
    # the all-unit code plants on two indices; the input's support is computed
    code = CodePrefix((1,) * 100000)
    assert_support(corrupt(code, 3))
