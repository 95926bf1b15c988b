"""Spans around calls into tgd's layers, recorded from outside the package.

While a :class:`Tracer` is installed it replaces chosen module attributes,
the names a caller looks up at call time (``tgd.cli.fit_dataset``,
``tgd.pmf``, ...), by wrappers that record one span per call: op id, parent
span, name, start and end in ns, and status.  Spans stay in memory and are
written out when the run ends; the original functions are restored on
exit.  A layer's self time is the duration of its spans minus the part
their child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import tgd
import tgd.cli
import tgd.estimate

LAYERS = ("cli", "core", "moments", "sampling", "estimate", "oracle")
CORE_FUNCS = ("pmf", "cdf", "survival", "hazard", "reversed_hazard", "quantile", "mode")
ORACLE_FUNCS = ("oracle_sum", "oracle_quantile", "oracle_mode")
FIT_METHODS = ("mle", "moments", "proportions", "quantiles")

# (metric name, unit); the order is the order of the printed report
PER_LAYER_METRICS = (
    [(f"estimate.fit_ms.{m}", "ms") for m in FIT_METHODS]
    + [("estimate.iterations.mle", "count"), ("estimate.iterations.moments", "count")]
    + [("estimate.nonconverged_ratio", "ratio"), ("estimate.alternatives", "count")]
    + [("estimate.ingest.ns_per_value", "ns")]
    + [("sampling.ns_per_draw.inverse", "ns"), ("sampling.ns_per_draw.bridge", "ns")]
    + [("sampling.draws", "count")]
    + [("cli.self_ms", "ms"), ("cli.bytes_read", "B"), ("cli.bytes_written", "B")]
    + [(f"core.ns_per_call.{f}", "ns") for f in CORE_FUNCS]
    + [("moments.us_per_call.summarize", "us"), ("oracle.ms_per_call", "ms")]
    + [
        (f"{layer}.{stat}", unit)
        for layer in LAYERS
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("share", "ratio"), ("failed", "count"))
    ]
    + [("trace.overhead_ratio", "ratio"), ("probes.failed", "count")]
)


def _cli_note(args, rc):
    return {"status": f"exit{rc}"} if rc else None


def _fit_note(args, report):
    return {
        "method": report.method.value,
        "iterations": report.iterations,
        "converged": report.converged,
        "alternatives": len(report.alternatives),
    }


def _sample_note(args, batch):
    return {"n": len(batch.values), "method": batch.method.value}


def _ingest_note(args, dataset):
    return {"values": len(args[0])}


def _targets():
    """(module, attribute, span name, note) for every traced boundary."""
    targets = [
        (tgd.cli, "main", "cli.main", _cli_note),
        (tgd.cli, "ingest", "estimate.ingest", _ingest_note),
        (tgd.cli, "fit_dataset", "estimate.fit", _fit_note),
        (tgd.estimate, "fit_mle", "estimate.fit_mle", None),
        (tgd.estimate, "fit_moments", "estimate.fit_moments", None),
        (tgd.cli, "sample_many", "sampling.sample_many", _sample_note),
    ]
    # the evaluate workload calls these through the package namespace, so
    # calls between functions inside a layer stay untraced
    targets += [(tgd, f, f"core.{f}", None) for f in CORE_FUNCS + ("median", "hazard_class")]
    targets.append((tgd, "summarize", "moments.summarize", None))
    targets += [(tgd, f, f"oracle.{f}", None) for f in ORACLE_FUNCS]
    return targets


class Tracer:
    """In-memory span recorder.  Span ids are indexes into ``spans``."""

    def __init__(self):
        self.spans: list[tuple | None] = []  # (op, parent, name, start_ns, end_ns, status)
        self.notes: dict[int, dict] = {}
        self.op = -1
        self._stack: list[int] = []

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack = []  # a timeout can cut a span short; never carry it over

    def call(self, name, note, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        status = "ok"
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            status = type(exc).__name__
            raise
        finally:
            end = time.perf_counter_ns()
            if self._stack and self._stack[-1] == sid:
                self._stack.pop()
            self.spans[sid] = (self.op, parent, name, start, end, status)
        if note is not None:
            extra = note(args, result)
            if extra:
                if "status" in extra:
                    self.spans[sid] = (self.op, parent, name, start, end, extra["status"])
                self.notes[sid] = extra
        return result

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            return self.call(name, note, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced attribute for its wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, note in _targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_ns,end_ns,status\n")
            for sid, s in enumerate(self.spans):
                if s is not None:
                    fh.write(f"{sid},{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")

    def per_layer(self, io: dict[str, int], overhead_ratio: float, probes_failed: int) -> dict[str, float]:
        """Every metric of :data:`PER_LAYER_METRICS` from the recorded spans.

        ``io`` carries the byte counts the benchmark measured around the
        CLI calls, ``probes_failed`` the failed known-defect probes.  A
        metric whose layer saw no calls in this workload is 0.
        """
        spans = [(sid, s) for sid, s in enumerate(self.spans) if s is not None]
        child_ns = defaultdict(int)
        for _, (_, parent, _, start, end, _) in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        failed = defaultdict(int)
        by_name = defaultdict(list)  # name -> [(sid, duration_ns)]
        op_ns = 0
        for sid, (_, _, name, start, end, status) in spans:
            dur = end - start
            layer = name.split(".", 1)[0]
            if layer == "bench":
                op_ns += dur
                continue
            calls[layer] += 1
            self_ns[layer] += dur - child_ns[sid]
            failed[layer] += status != "ok"
            by_name[name].append((sid, dur))

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        m: dict[str, float] = {}
        fits = [(self.notes.get(sid, {}), d) for sid, d in by_name["estimate.fit"]]
        done = [n for n, _ in fits if n]
        for method in FIT_METHODS:
            m[f"estimate.fit_ms.{method}"] = mean([d / 1e6 for n, d in fits if n.get("method") == method])
        for method in ("mle", "moments"):
            m[f"estimate.iterations.{method}"] = mean(
                [n["iterations"] for n in done if n["method"] == method]
            )
        m["estimate.nonconverged_ratio"] = (
            sum(not n["converged"] for n in done) / len(done) if done else 0.0
        )
        m["estimate.alternatives"] = sum(n["alternatives"] for n in done)
        ingests = by_name["estimate.ingest"]
        values = sum(self.notes.get(sid, {}).get("values", 0) for sid, _ in ingests)
        m["estimate.ingest.ns_per_value"] = sum(d for _, d in ingests) / values if values else 0.0
        draws = {"inverse": [0, 0], "bridge": [0, 0]}
        for sid, d in by_name["sampling.sample_many"]:
            note = self.notes.get(sid)
            if note:
                draws[note["method"]][0] += d
                draws[note["method"]][1] += note["n"]
        for method, (ns, n) in draws.items():
            m[f"sampling.ns_per_draw.{method}"] = ns / n if n else 0.0
        m["sampling.draws"] = draws["inverse"][1] + draws["bridge"][1]
        cli_calls = len(by_name["cli.main"])
        m["cli.self_ms"] = self_ns["cli"] / 1e6 / cli_calls if cli_calls else 0.0
        m["cli.bytes_read"] = io.get("bytes_read", 0)
        m["cli.bytes_written"] = io.get("bytes_written", 0)
        for f in CORE_FUNCS:
            m[f"core.ns_per_call.{f}"] = mean([d for _, d in by_name[f"core.{f}"]])
        m["moments.us_per_call.summarize"] = mean([d / 1e3 for _, d in by_name["moments.summarize"]])
        m["oracle.ms_per_call"] = mean(
            [d / 1e6 for f in ORACLE_FUNCS for _, d in by_name[f"oracle.{f}"]]
        )
        for layer in LAYERS:
            m[f"{layer}.calls"] = calls[layer]
            m[f"{layer}.self_s"] = self_ns[layer] / 1e9
            m[f"{layer}.share"] = self_ns[layer] / op_ns if op_ns else 0.0
            m[f"{layer}.failed"] = failed[layer]
        m["trace.overhead_ratio"] = overhead_ratio
        m["probes.failed"] = probes_failed
        return m
