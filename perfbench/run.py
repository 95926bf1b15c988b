"""Benchmark of tgd: the fit, simulate and evaluate paths, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit|simulate|evaluate|all \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client in this single-threaded process
sends the next op when the previous one has returned.  Inputs are made from
``--seed``; every op's output is checked after it returns, outside the
timed region.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs half the time untraced and half with spans
around every call into a tgd layer, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report, including the failed ops by kind and cause.

An op fails on a failed check (a wrong output), on a timeout, or on an
exception other than tgd's documented ``ParameterError`` /
``EstimationError`` (CLI exit code 2 with ``error: domain`` /
``error: estimation``).  A documented refusal is checked like any output:
it counts as done only where the request warrants it.  ``failed`` counts
the failures, and the report lists them by cause and the refusals by kind
of op.  ``correct`` is false when an output is malformed, so
that its check cannot even be evaluated (for example CLI output that is not
the documented JSON record).

A workload may also have known-defect probes: fixed requests, the same at
every seed, that run once before the timed loop.  Their outcomes repeat
exactly from run to run; the report lists them apart, and they do not count
in ``attempted`` or ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
SETUP_CODE = "import time; t = time.perf_counter(); import tgd, tgd.cli; print(time.perf_counter() - t)"
TICK_S = 0.005
# latency samples kept per phase: 8 MiB, allocated before the loop starts
LATENCY_CAPACITY = 2**20

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class OpTimeout(Exception):
    """An op ran past its time budget."""


class Watchdog:
    """Interrupts the running op once it is over its budget.

    A periodic SIGALRM tick checks the deadline, so arming costs no system
    call per op; the exception is raised inside the op's own Python frames.
    """

    def __init__(self):
        self.deadline = 0.0
        self.armed = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def arm(self, budget_s: float) -> None:
        self.deadline = time.perf_counter() + budget_s
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    def _tick(self, signum, frame):
        if self.armed and time.perf_counter() > self.deadline:
            self.armed = False
            raise OpTimeout()


class Reservoir:
    """A uniform sample of at most ``LATENCY_CAPACITY`` op latencies, in
    memory allocated up front (Vitter's algorithm R once it is full), so
    that the process's memory does not grow with its speed."""

    def __init__(self):
        self.values = array("q", [0]) * LATENCY_CAPACITY
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, ns: int) -> None:
        if self.seen < LATENCY_CAPACITY:
            self.values[self.seen] = ns
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < LATENCY_CAPACITY:
                self.values[j] = ns
        self.seen += 1

    def sorted(self):
        import numpy as np

        return np.sort(np.frombuffer(self.values, dtype=np.int64, count=min(self.seen, LATENCY_CAPACITY)))


@dataclass
class Phase:
    latencies_ns: Reservoir = field(default_factory=Reservoir)
    timed_ns: int = 0
    attempted: int = 0
    # (kind, class) -> count, with the first cause of each as its example:
    # the bookkeeping stays the same size however many ops fail
    failures: Counter = field(default_factory=Counter)
    examples: dict[tuple[str, str], str] = field(default_factory=dict)
    refusals: Counter = field(default_factory=Counter)  # kind -> documented refusals
    io: Counter = field(default_factory=Counter)
    repeats: defaultdict = field(default_factory=lambda: defaultdict(list))  # repeat key -> latencies

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, cls: str, cause: str) -> None:
        self.failures[kind, cls] += 1
        self.examples.setdefault((kind, cls), cause)

    def latency_sample(self):
        """Sorted latencies in ns: one per op, and one per repeated request,
        the median of its repeats, which are spread over the whole run, so
        that a burst of load on the host moves none of them."""
        import numpy as np

        medians = [statistics.median_low(v) for v in self.repeats.values()]
        return np.sort(np.concatenate([self.latencies_ns.sorted(), np.array(medians, dtype=np.int64)]))

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / (self.timed_ns / 1e9)


def execute(op, watchdog: Watchdog, documented: tuple, refusal, run):
    """Run one op under its budget; returns (latency ns, output, error).
    A documented refusal by tgd returns ``refusal(message)`` as the output."""
    out, err, end = None, None, None
    watchdog.arm(op.budget_s)  # before the clock starts: the deadline is only a budget
    start = time.perf_counter_ns()
    try:
        try:
            out = run()
        finally:
            watchdog.disarm()
            end = time.perf_counter_ns()
    except OpTimeout:
        err = f"timeout: over the {op.budget_s:g} s budget"
    except documented as exc:
        out = refusal(f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an undocumented failure of the program: count it
        err = f"{type(exc).__name__}: {exc}"
    if end is None:
        end = time.perf_counter_ns()
    return end - start, out, err


def settle(phase: Phase, op, out, err, refusal) -> None:
    """Check one op's outcome and book it in ``phase``."""
    if err is not None:
        phase.fail(op.kind, err.split(":", 1)[0], f"{err} [{op.desc}]")
        return
    refused = isinstance(out, refusal)
    if refused:
        phase.refusals[op.kind] += 1
    try:
        reason, cls = op.check(out), "wrong refusal" if refused else "wrong output"
    except Exception as exc:  # the output is malformed: the check cannot read it
        reason, cls = f"{type(exc).__name__}: {exc}", "malformed output"
    if reason:
        phase.fail(op.kind, cls, f"{reason} [{op.desc}]")


def run_phase(workload, seconds: float, watchdog: Watchdog, tracer=None, op_base: int = 0) -> Phase:
    """Run whole rounds of the workload until ``seconds`` of op time are
    spent; whole rounds keep each workload's mix of ops exact."""
    import tgd
    from workloads import Refusal

    documented = (tgd.ParameterError, tgd.EstimationError)
    phase = Phase()
    workload.bind()
    rounds = workload.rounds()
    while phase.timed_ns < seconds * 1e9:
        ops = next(rounds)
        results = []
        round_ns = 0
        for op in ops:
            if tracer is None:
                run = op.run
            else:
                tracer.begin_op(op_base + phase.attempted + len(results))
                run = tracer.wrap("bench.op", op.run)
            ns, out, err = execute(op, watchdog, documented, Refusal, run)
            results.append((out, err))
            round_ns += ns
            if op.repeat_key is None:
                phase.latencies_ns.add(ns)
            else:
                phase.repeats[op.repeat_key].append(ns)
        for op, (out, err) in zip(ops, results):
            settle(phase, op, out, err, Refusal)
            if tracer is not None and op.io is not None:
                phase.io.update(op.io())
        phase.attempted += len(ops)
        phase.timed_ns += round_ns
    return phase


def run_probes(workload, watchdog: Watchdog) -> Phase:
    """The workload's fixed edge-of-domain requests, each once, untimed.
    They are the same at every seed, so their outcomes repeat exactly."""
    import tgd
    from workloads import Refusal

    phase = Phase()
    workload.bind()
    for op in workload.probes():
        _, out, err = execute(op, watchdog, (tgd.ParameterError, tgd.EstimationError), Refusal, op.run)
        settle(phase, op, out, err, Refusal)
        phase.attempted += 1
    return phase


def nearest_rank(sorted_values, p: float):
    """The smallest sample with at least a share p of the samples at or
    below it.  Unlike interpolation it always reads one sample, so with a
    few kinds of op in fixed proportions it reads the same kind every run."""
    return int(sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)])


def measure_setup() -> float:
    """Median over fresh interpreters of the time to ``import tgd, tgd.cli``.

    One unmeasured import first writes the bytecode caches, as any install
    would before its first use.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout))
    return statistics.median(times)


def git_sha() -> str:
    """The checked-out commit, or 'unknown' outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(args, phases) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [p.attempted for p in phases],
    }


def report_outcomes(phases, title="failures") -> list[str]:
    """Failures by kind of op and class, with one example each, then the
    documented refusals (all checked) by kind of op."""
    groups, example, refusals = Counter(), {}, Counter()
    for p in phases:
        groups.update(p.failures)
        refusals.update(p.refusals)
        for key, cause in p.examples.items():
            example.setdefault(key, cause)
    lines = [f"{title}: {sum(groups.values())} of {sum(p.attempted for p in phases)}"]
    for (kind, cls), n in sorted(groups.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {n:6d}  {kind:24s} {cls:16s} e.g. {example[(kind, cls)][:160]}")
    lines.append(f"documented refusals: {sum(refusals.values())}")
    lines += [f"  {n:6d}  {kind}" for kind, n in sorted(refusals.items(), key=lambda kv: -kv[1])]
    return lines


def run_workload(args) -> dict:
    import tgd

    if not os.path.realpath(tgd.__file__).startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"error: imported tgd from {tgd.__file__}, not from {SRC}")
    import tracing
    import workloads

    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        with Watchdog() as watchdog:
            probes = run_probes(workload, watchdog)
            if args.trace:
                plain = run_phase(workload, args.seconds / 2, watchdog)
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced = run_phase(workload, args.seconds / 2, watchdog, tracer, plain.attempted)
                phases = [plain, traced]
            else:
                phases = [run_phase(workload, args.seconds, watchdog)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not any(cls == "malformed output" for p in phases for _, cls in p.failures)
    lines = [f"workload {args.workload}: {workload.why}",
             "meta " + json.dumps(metadata(args, phases))]
    if args.trace:
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.write(spans_path)
        values = tracer.per_layer(traced.io, traced.ops_per_s / plain.ops_per_s, probes.failed)
        units = dict(tracing.PER_LAYER_METRICS)
        lines.append(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        phase = phases[0]
        lat = phase.latency_sample()
        values = {
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": nearest_rank(lat, 0.50) / 1e6,
            "op_p90_ms": nearest_rank(lat, 0.90) / 1e6,
            "ok_ratio": (phase.attempted - phase.failed) / phase.attempted,
            "setup_s": args.setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        beyond = int((lat > values["op_p90_ms"] * 1e6).sum())
        repeated = f" ({len(phase.repeats)} repeated requests, each the median of its repeats)" * bool(phase.repeats)
        lines.append(f"latency samples {len(lat)}{repeated} of {phase.attempted} ops, {beyond} of them beyond p90; "
                     f"failed_ratio {phase.failed / phase.attempted!r} ratio")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    lines += [f"  {name:36s} {m['value']!r:>24} {m['unit']}" for name, m in metrics.items()]
    lines += report_outcomes(phases)
    if probes.attempted:
        lines += report_outcomes([probes], "known-defect probes failed (not counted above)")
    print("\n".join(lines))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "simulate", "evaluate", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS/OpenMP thread, set before numpy loads and inherited by every
    # child: the workloads are single-threaded by design, and idle pool
    # threads only add noise to the timings
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "tgd", "__init__.py")):
        print(f"error: no tgd package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        result = run_all(args)
    else:
        args.setup_s = None if args.trace else measure_setup()
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
