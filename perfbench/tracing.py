"""Spans and counts recorded around calls into stssc's modules.

The traced run replaces a function at the module attribute its caller
looks up: ``stssc.harness`` calls ``simulate_packet_set`` through its own
module globals, so the wrapper goes at ``stssc.harness.simulate_packet_set``
and not at ``stssc.batch.simulate_packet_set``.  Every wrapper records a
span (name, start, end, enclosing span, context label) and, for the
kernels, exact work counts taken from the argument shapes.  ``traced``
puts every original back when it exits, also after an exception.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from stssc import _kernels, batch, channel, cli, decoder, harness, modem, schemes


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span in Tracer.spans, -1 at top level
    context: str         # label set by the workload, e.g. the code being simulated

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and count recorder; one per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.context = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        """Record the block as one span named ``name``, nested in the enclosing span."""
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.context)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def section(self, label):
        """A "section" span around the block; it and the spans inside carry ``label``."""
        self.context = label
        with self.span("section"):
            yield

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts.update(count(*args, **kwargs))
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def counting(self, name, factory):
        """Wrap a constructor so each call only increments a count (pool start-ups)."""
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return factory(*args, **kwargs)
        return wrapper


def _joint_argmin_counts(u, gram, xc, sqrt_rho):
    """Exact candidate evaluations and the bytes of the arrays the numpy path computes.

    Bytes are computed from array sizes, not measured: the inputs u, gram
    and xc, the complex (B,K,C) linear and quadratic einsum outputs, their
    real parts, the (B,K,C) metric array and the (B,K) int64 result.
    """
    B, N, K = u.shape
    C = xc.shape[0]
    evals = B * K * C
    computed = u.nbytes + gram.nbytes + xc.nbytes + evals * (16 + 8 + 16 + 8 + 8) + B * K * 8
    return {"kernels.joint_argmin.cand_evals": evals, "kernels.joint_argmin.bytes_computed": computed}


def _afost_argmin_counts(y, F, xc):
    B, M, K = y.shape
    return {"kernels.afost_argmin.cand_evals": B * K * xc.shape[0]}


# (module, attribute the caller looks up, span name, count function)
PATCH_POINTS = (
    (_kernels, "joint_argmin", "kernels.joint_argmin", _joint_argmin_counts),
    (_kernels, "afost_argmin", "kernels.afost_argmin", _afost_argmin_counts),
    (batch, "stssc_decode_batch", "batch.stssc_decode_batch", None),
    (batch, "modulate", "modem.modulate", None),
    (batch, "demap_hard", "modem.demap_hard", None),
    (batch, "enumerate_candidates", "decoder.enumerate_candidates", None),
    (harness, "simulate_packet_set", "batch.simulate_packet_set", None),
    (harness, "build_design", "designs.build_design", None),
    (harness, "run_sweep", "harness.run_sweep", None),
    (cli, "run_sweep", "harness.run_sweep", None),
    (cli, "emit_csv", "cli.emit_csv", None),
    (cli, "main", "cli.main", None),
    (modem, "modulate", "modem.modulate", None),
    (channel, "draw_channel", "channel.draw_channel", None),
    (schemes, "stssc_pipeline", "schemes.stssc_pipeline", None),
    (decoder, "matched_filter", "decoder.matched_filter", None),
    (decoder, "joint_ml_decode_slot", "decoder.joint_ml_decode_slot", None),
    (decoder, "brute_force_oracle", "decoder.brute_force_oracle", None),
    (decoder, "enumerate_candidates", "decoder.enumerate_candidates", None),
)


@contextmanager
def traced(tracer: Tracer):
    """Wrap every patch point for the duration of the block, then restore the originals."""
    originals = []
    try:
        for module, attr, name, count in PATCH_POINTS:
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, count))
        pool = harness.ProcessPoolExecutor
        originals.append((harness, "ProcessPoolExecutor", pool))
        harness.ProcessPoolExecutor = tracer.counting("harness.pool_starts", pool)
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


def summarize(spans, context=None) -> dict[str, SpanStats]:
    """Per span name: calls, inclusive time, self time (minus direct children), durations.

    With ``context`` set, only spans carrying that label are aggregated.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    stats = defaultdict(SpanStats)
    for span, children in zip(spans, child_time):
        if context is not None and span.context != context:
            continue
        entry = stats[span.name]
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += span.duration - children
        entry.durations.append(span.duration)
    return dict(stats)


def combined_spans(tracers) -> list[Span]:
    """The spans of several tracers in one list, parent indices shifted to match."""
    spans = []
    for tracer in tracers:
        offset = len(spans)
        spans.extend(replace(span, parent=span.parent + offset) if span.parent >= 0 else span
                     for span in tracer.spans)
    return spans
