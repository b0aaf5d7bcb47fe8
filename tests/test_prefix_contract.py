"""Every producer that builds its prefix with the unchecked constructor keeps
the contract the public constructor checks: a non-empty tuple of ints >= 1,
equal to the same prefix after a full re-validation."""

import io
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gcdmorphic import cli
from gcdmorphic.catalog import entries
from gcdmorphic.codec import decode, encode, peel_primary
from gcdmorphic.core import CodePrefix, PrimarySpec, SeqPrefix, pointwise_product, primary_prefix
from gcdmorphic.generator import corrupt, generate

values = st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2, 10**40))
value_lists = st.lists(values, min_size=1, max_size=48)
codes = value_lists.map(lambda xs: CodePrefix(tuple(xs)))


def assert_valid(out):
    raw = out._values
    assert type(raw) is tuple and raw
    assert all(type(v) is int and v >= 1 for v in raw)
    assert out == type(out)(raw)


@settings(max_examples=60, deadline=None)
@given(codes)
def test_decode_then_encode(c):
    f = decode(c)
    assert_valid(f)
    back = encode(f)
    assert_valid(back)
    assert back == c


@settings(max_examples=60, deadline=None)
@given(value_lists, st.data())
def test_peel_primary(xs, data):
    n = data.draw(st.integers(1, len(xs)))
    f = decode(CodePrefix((1,) * (n - 1) + tuple(xs[n - 1:])))  # terms 1..n-1 are 1
    spec, peeled = peel_primary(f, n)
    assert_valid(peeled)
    assert pointwise_product(primary_prefix(spec, len(f)), peeled) == f


@settings(max_examples=60, deadline=None)
@given(value_lists, st.data())
def test_pointwise_product(xs, data):
    ys = data.draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    assert_valid(pointwise_product(SeqPrefix(tuple(xs)), SeqPrefix(tuple(ys))))


@settings(max_examples=60, deadline=None)
@given(values, st.integers(1, 60), st.integers(1, 60))
def test_primary_prefix(value, period, length):
    assert_valid(primary_prefix(PrimarySpec(value, period), length))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**64 - 1))
def test_generate(length, seed):
    assert_valid(generate(length, seed))


@settings(max_examples=60, deadline=None)
@given(st.lists(values, min_size=3, max_size=48), st.integers(0, 2**64 - 1))
def test_corrupt(xs, seed):
    assert_valid(corrupt(CodePrefix(tuple(xs)), seed))


# wire lines: canonical values, plus comments, blank lines and padded values,
# which send a chunk through the line-by-line parser
wire_lines = st.lists(
    st.one_of(
        values.map(str),
        st.sampled_from(["", "# note", "  "]),
        values.map(lambda v: f" {v}\t"),
    ),
    max_size=48,
)


@settings(max_examples=80, deadline=None)
@given(value_lists, wire_lines)
def test_cli_reader_through_main(xs, noise):
    lines = [str(v) for v in xs] + noise
    expected = tuple(int(ln) for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    seen = []
    with mock.patch.object(cli, "decode", lambda c: seen.append(c) or decode(c)):
        rc = cli.main(["decode"], stdin=io.StringIO("\n".join(lines) + "\n"),
                      stdout=io.StringIO(), stderr=io.StringIO())
    assert rc == cli.EX_OK
    (given_code,) = seen
    assert type(given_code) is CodePrefix
    assert given_code.codes == expected
    assert_valid(given_code)


@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
def test_entry_emitters_keep_validating(entry):
    # entries() hands out the emitters, which refuse an empty prefix as the public
    # constructor does
    with pytest.raises(ValueError, match="needs at least one value"):
        entry.emitter(0)


@pytest.mark.parametrize("length", [1, 2, 64, 300])
@pytest.mark.parametrize("entry", entries(), ids=lambda e: e.name)
def test_entry_emitters_match_the_public_constructor(entry, length):
    # the emitters skip the public constructor's walk
    assert_valid(entry.emitter(length))
