"""Spans around the calls into each gcdmorphic module, for the traced run.

The benchmark does not change the package. ``Tracer.installed()`` swaps the
names through which one module calls another (``cli``'s imports of the
library functions, ``validator``'s calls inside ``certify``, and the prefix
types' validation hook) for wrappers that record a span, and puts the
originals back on exit. A name a later version of the package no longer has
is skipped, and its metrics then read 0.

Spans stay in memory while passes run; ``write`` saves them at the end.
A layer's self time is its spans' time minus the time of their child spans.
Work counts come from the call arguments and results, after each op, outside
every span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

# (module attribute path, name looked up there, span name)
_TARGETS = (
    ("cli", "emit", "catalog.emit"),
    ("cli", "encode", "codec.encode"),
    ("cli", "decode", "codec.decode"),
    ("cli", "generate", "generator.generate"),
    ("cli", "corrupt", "generator.corrupt"),
    ("cli", "check_c1", "validator.check_c1"),
    ("cli", "check_gcd_morphic", "validator.check_gcd_morphic"),
    ("cli", "certify", "validator.certify"),
    ("validator", "encode", "codec.encode"),
    ("validator", "check_c1", "validator.check_c1"),
    ("validator", "check_gcd_morphic", "validator.check_gcd_morphic"),
    ("SeqPrefix", "__post_init__", "core.prefix"),
    ("CodePrefix", "__post_init__", "core.prefix"),
)

# span name -> per-layer metric holding its self time
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "core.prefix": "core.prefix_s",
    "catalog.emit": "catalog.emit_s",
    "generator.generate": "generator.generate_s",
    "generator.corrupt": "generator.corrupt_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "validator.check_c1": "validator.check_c1_s",
    "validator.check_gcd_morphic": "validator.check_gcd_morphic_s",
    "validator.certify": "validator.certify_self_s",
}

COUNT_METRICS = (
    "cli.calls", "cli.bytes_in", "cli.bytes_out", "cli.crashes",
    "core.prefix_terms", "catalog.emit_terms", "codec.terms",
    "validator.c1_bits", "validator.c1_pairs", "validator.oracle_pairs",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.work = None  # set by _work when the call returns


def _work(name, args, result):
    """What count_op needs from a finished call.

    Only sizes are kept, except the codes given to check_c1, so that the
    traced run frees the prefixes where the untraced run does.
    """
    if name == "core.prefix":
        return len(args[0])
    if name == "catalog.emit":
        return len(result)
    if name in ("codec.encode", "codec.decode"):
        return len(args[0])
    if name == "validator.check_c1":
        return args[0].codes, result
    if name == "validator.check_gcd_morphic":
        return len(args[0]), result
    return None


def _divisor_counts(length: int) -> list[int]:
    d = [0] * (length + 1)
    for k in range(1, length + 1):
        for m in range(k, length + 1, k):
            d[m] += 1
    return d


class Tracer:
    def __init__(self, gcdmorphic_modules: dict):
        self._modules = gcdmorphic_modules  # "cli", "validator", "SeqPrefix", ...
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._divisor_counts: dict[int, list[int]] = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            span.work = _work(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner_name, attr, span_name in _TARGETS:
                owner = self._modules[owner_name]
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                # an inherited attribute is deleted again, not set on the subclass
                saved.append((owner, attr, original if attr in vars(owner) else None))
                setattr(owner, attr, self.wrap(span_name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def count_op(self, first_span: int, results) -> None:
        """Add the work counts of one finished op; drop what its spans held."""
        c = self.counts
        for res in results:
            c["cli.calls"] += 1
            c["cli.bytes_in"] += res.stdin_chars
            c["cli.bytes_out"] += len(res.stdout)
            c["cli.crashes"] += res.error is not None
        for span in self.spans[first_span:]:
            work, span.work = span.work, None
            if work is None:
                continue
            if span.name == "core.prefix":
                c["core.prefix_terms"] += work
            elif span.name == "catalog.emit":
                c["catalog.emit_terms"] += work
            elif span.name in ("codec.encode", "codec.decode"):
                c["codec.terms"] += work
            elif span.name == "validator.check_c1":
                codes, witness = work
                c["validator.c1_bits"] += sum(v.bit_length() for v in codes)
                c["validator.c1_pairs"] += self._c1_pairs(codes, witness)
            elif span.name == "validator.check_gcd_morphic":
                n, witness = work
                c["validator.oracle_pairs"] += (
                    n * (n + 1) // 2 if witness is None else (witness.n - 1) * witness.n // 2 + witness.m
                )

    def _c1_pairs(self, codes, witness) -> int:
        """Incomparable pairs (k < n, k not dividing n) with c_n != 1, up to the verdict."""
        length = len(codes)
        if length not in self._divisor_counts:
            self._divisor_counts[length] = _divisor_counts(length)
        d = self._divisor_counts[length]
        last = length if witness is None else witness.n - 1
        pairs = sum(n - d[n] for n in range(2, last + 1) if codes[n - 1] != 1)
        if witness is not None:
            pairs += sum(1 for k in range(1, witness.k + 1) if witness.n % k)
        return pairs

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        out = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for i, span in enumerate(self.spans):
            out[SELF_TIME_METRIC[span.name]] += span.end - span.start - child[i]
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")
