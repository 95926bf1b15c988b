"""The benchmark's three workloads: fit, simulate and evaluate.

Each workload turns a seed into rounds of ops.  An op is one request a
user of tgd would make; ``Op.run`` is the timed part and ``Op.check``
validates its output afterwards, outside the timed region, against the
references in :mod:`refs`.  Inputs are drawn with numpy from the seed, so
the same seed gives the same inputs, and no tgd sampler makes them.

An outcome that tgd documents (``ParameterError``, ``EstimationError``,
or CLI exit code 2 with ``error: domain`` / ``error: estimation``) reaches
the check as a :class:`Refusal`.  It is a completed op only where the
request warrants it; a valid request that is refused is a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs
import tgd
import tgd.cli

@dataclass(frozen=True)
class Refusal:
    """A documented refusal by tgd, in place of an op's output."""

    message: str


def refused_valid(out) -> str | None:
    """The check of an op whose request lies inside tgd's domain: it may
    not be refused."""
    return f"refused a valid request: {out.message}" if isinstance(out, Refusal) else None


class CliError(Exception):
    """The CLI exited with an undocumented code."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    budget_s: float
    desc: str = ""  # the request's inputs, quoted with its failures
    io: Callable[[], dict[str, int]] | None = None
    # ops with the same key make the same request in every round; their
    # latency is taken as the median over the run's repeats
    repeat_key: str | None = None


def tgd_inverse_cdf(q: float, a: float, u: np.ndarray) -> np.ndarray:
    """Smallest y with cdf(y) >= u, for u in [0, 1): the root z = q**(y+1)
    of a*z**2 + (1-a)*z = 1 - u, then a step against the cdf
    1 - (1-a)*z - a*z**2 wherever rounding left the floor off by one."""
    tail = 1.0 - u
    z = 2.0 * tail / ((1.0 - a) + np.sqrt((1.0 - a) ** 2 + 4.0 * a * tail))
    y = np.maximum(np.ceil(np.log(z) / np.log(q)) - 1.0, 0.0)

    def cdf(t):
        zt = q ** (t + 1.0)
        return np.where(t < 0, 0.0, 1.0 - (1.0 - a) * zt - a * zt * zt)

    y += cdf(y) < u
    y -= (y > 0) & (cdf(y - 1.0) >= u)
    return y.astype(np.int64)


def draw_stratified(rng: np.random.Generator, q: float, a: float, n: int):
    """n TGD(q, a) variates by inversion of the stratum midpoints (i + 1/2)/n,
    in an order drawn from ``rng``, and their histogram.  The histogram is
    the same at every seed and within one count of n*pmf at every value.  A
    fit's cost swings by up to a factor of two when a single value moves
    (the Nelder-Mead paths change), so fresh samples per seed would make the
    run-to-run spread a property of the sample rather than of the program."""
    values = tgd_inverse_cdf(q, a, (rng.permutation(n) + 0.5) / n)
    return values, {int(y): int(c) for y, c in enumerate(np.bincount(values)) if c}


def stratified_counts(q: float, a: float, n: int) -> dict[int, int]:
    """The histogram of :func:`draw_stratified`, made stratum block by
    block so the benchmark's own memory stays small next to the program's."""
    total = np.zeros(1, dtype=np.int64)
    for lo in range(0, n, 100_000):
        c = np.bincount(tgd_inverse_cdf(q, a, (np.arange(lo, min(n, lo + 100_000)) + 0.5) / n))
        if len(c) < len(total):
            c, total = total, c
        c[: len(total)] += total
        total = c
    return {int(y): int(c) for y, c in enumerate(total) if c}


def cli_call(argv: list[str]):
    """One ``tgd.cli.main`` call with its streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tgd.cli.main(argv)
    if rc == 0:
        return out.getvalue()
    message = err.getvalue().strip()
    if rc == 2 and message.startswith(("error: estimation", "error: domain")):
        return Refusal(message)
    raise CliError(f"exit {rc}: {message}")


def log_uniform(u, lo: float, hi: float):
    return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms, one in each of n equal strata, in random order; keeps the
    mix of cheap and costly parameters the same in every round."""
    return (rng.permutation(n) + rng.random(n)) / n


def draw_alpha(rng: np.random.Generator, n: int) -> np.ndarray:
    """alpha uniform on [-1, 1], with a quarter of the values exactly -1, 0
    or 1."""
    a = rng.uniform(-1.0, 1.0, n)
    exact = rng.random(n) < 0.25
    a[exact] = rng.choice([-1.0, 0.0, 1.0], int(exact.sum()))
    return a


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def bind(self) -> None:
        """Look up the functions the ops call; run at the start of a phase,
        after a tracer has (or has not) been installed."""

    def rounds(self):
        """Yield lists of ops, forever."""
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Fixed requests at the edge of the domain, run once per run
        outside the timed loop; their outcomes do not count in its ops."""
        return []


# --------------------------------------------------------------------------
# fit


FIT_FILES = (
    # (format, n, q, alpha): q = 0.95, both alpha boundaries and the fold
    # point (0.5, 0.5), where the moment map folds and fits report rivals.
    # The mle's cost grows with the number of distinct values, so q = 0.95
    # goes with the smallest sample to keep a round near ten seconds.
    ("lines", 2_000, 0.95, -0.5),
    ("lines", 100_000, 0.3, -1.0),
    ("hist", 100_000, 0.5, 0.5),
    ("hist", 1_000_000, 0.8, 1.0),
)


class Fit(Workload):
    name = "fit"
    why = "CLI fits of numpy-drawn files by mle and moments; the optimisers do the work"
    budget_s = 60.0

    @staticmethod
    def write_file(path: str, fmt: str, counts: dict[int, int], values, rng) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == "lines":
                fh.write("\n".join(map(str, values.tolist())) + "\n")
            else:
                rows = list(counts.items())
                fh.write("value,count\n" + "".join("%d,%d\n" % rows[i] for i in rng.permutation(len(rows))))

    def rounds(self):
        """Every round fits the same four files, written once; the seed
        orders their lines or rows."""
        files = []
        for i, (fmt, n, q, a) in enumerate(FIT_FILES):
            rng = self.rng(1, i)
            if fmt == "lines":
                values, counts = draw_stratified(rng, q, a, n)
            else:
                values, counts = None, stratified_counts(q, a, n)
            path = os.path.join(self.workdir, f"fit-{i}.txt")
            self.write_file(path, fmt, counts, values, rng)
            files.append((path, os.path.getsize(path), counts, (q, a), f"{fmt}-{n:.0e}"))
        while True:
            yield [self.fit_op(path, size, method, counts, gen, f"fit:{method}:{label}:{gen}")
                   for path, size, counts, gen, label in files for method in ("mle", "moments")]

    def fit_op(self, path, size, method, counts, gen, kind) -> Op:
        argv = ["fit", "--input", path, "--method", method]
        written = []

        def run():
            out = cli_call(argv)
            written.append(len(out) if isinstance(out, str) else 0)
            return out

        def check(out):
            return refused_valid(out) or refs.check_optimizing_fit(json.loads(out), counts, gen)

        return Op(kind, run, check, self.budget_s, f"generated by ({gen[0]}, {gen[1]})",
                  io=lambda: {"bytes_read": size, "bytes_written": sum(written)}, repeat_key=kind)


# --------------------------------------------------------------------------
# simulate

SIM_N = tuple(int(round(10 ** (3 + 2 * k / 7))) for k in range(8))  # 1e3 .. 1e5
SIM_COMBOS = (
    ("inverse", "proportions"),
    ("inverse", "quantiles"),
    ("bridge", "proportions"),
    ("bridge", "quantiles"),
)
SPOT_CHECKS = 16


class Simulate(Workload):
    name = "simulate"
    why = "CLI sample then a matching fit; sampler, CLI I/O and ingest work, no optimiser"
    budget_s = 30.0

    def rounds(self):
        """Each of the 32 cases has its own (q, alpha), the same at every
        seed: the cost of a case depends on q (the number of digits the CLI
        writes and reads), so (q, alpha) drawn per seed would make the cost
        of a run depend on its seed.  Every round runs all cases in an order
        and with sampler seeds drawn from the seed, so each case is a request
        repeated over the run."""
        rng = np.random.default_rng([2])
        cases = [(n, s, f) for n in SIM_N for s, f in SIM_COMBOS]
        om = log_uniform(stratified(rng, len(cases)), 0.05, 0.9)
        alpha = draw_alpha(rng, len(cases))
        r = 0
        while True:
            rng = self.rng(2, r)
            seeds = rng.integers(0, 2**64, len(cases), dtype=np.uint64)
            ops = []
            for j, k in enumerate(rng.permutation(len(cases))):
                n, sampler, fitter = cases[k]
                path = os.path.join(self.workdir, f"sim-{j}.txt")
                ops.append(self.sim_op(path, float(1.0 - om[k]), float(alpha[k]), n,
                                       int(seeds[j]), sampler, fitter, rng, f"case-{k}"))
            yield ops
            r += 1

    def sim_op(self, path, q, a, n, seed, sampler, fitter, rng, case) -> Op:
        sample_argv = ["sample", "--q", repr(q), "--alpha", repr(a), "--n", str(n),
                       "--seed", str(seed), "--method", sampler, "--output", path]
        fit_argv = ["fit", "--input", path, "--method", fitter]
        positions = sorted({0, n - 1, *rng.integers(0, n, SPOT_CHECKS - 2).tolist()})
        fit_out = []

        def run():
            sampled = cli_call(sample_argv)
            if isinstance(sampled, Refusal):
                return Refusal(f"sample: {sampled.message}")
            out = cli_call(fit_argv)
            fit_out.append(out)
            return out

        def check(result):
            if isinstance(result, Refusal) and result.message.startswith("sample: "):
                return refused_valid(result)
            # the draws are checked even when the fit is refused
            with open(path, encoding="utf-8") as fh:
                values = [int(v) for v in fh.read().split()]
            if len(values) != n:
                return f"sample wrote {len(values)} values, expected {n}"
            bad = self.check_draws(q, a, seed, sampler, values, positions)
            if bad:
                return bad
            if isinstance(result, Refusal):
                return refs.check_matching_refusal(fitter, result.message, Counter(values))
            return refs.check_matching_fit(json.loads(result), Counter(values))

        def io_counts():
            size = os.path.getsize(path) if os.path.exists(path) else 0
            out = fit_out[0] if fit_out else None
            return {"bytes_read": size,
                    "bytes_written": size + (len(out) if isinstance(out, str) else 0)}

        return Op(f"simulate:{sampler}+{fitter}", run, check, self.budget_s,
                  f"q={q!r} alpha={a!r} n={n} seed={seed}", io=io_counts, repeat_key=case)

    @staticmethod
    def check_draws(q, a, seed, sampler, values, positions) -> str | None:
        """Spot-check draws against a replay of ``random.Random(seed)``."""
        stream = random.Random(seed)
        if sampler == "inverse":
            uniforms = [stream.random() for _ in range(positions[-1] + 1)]
            for i in positions:
                if not refs.inverse_draw_ok(q, a, uniforms[i], values[i]):
                    return f"inverse draw {i} = {values[i]} is not the inverse cdf of u = {uniforms[i]!r}"
            return None
        expected = refs.replay_bridge(q, a, iter(stream.random, None), positions)
        for i in positions:
            if values[i] != expected[i]:
                return f"bridge draw {i} = {values[i]}, replay gives {expected[i]}"
        return None


# --------------------------------------------------------------------------
# evaluate

# point requests per block of 1000 ops, with 20 audits.  summarize costs
# about a hundred times a core call; at an equal share p90 would read the
# moments layer alone, so it gets a share that leaves p90 in the core calls
POINT_MIX = {"pmf": 106, "cdf": 106, "survival": 106, "hazard": 106, "reversed_hazard": 106,
             "quantile": 106, "median": 106, "mode": 106, "hazard_class": 106, "summarize": 26}
BLOCK = 1000
AUDITS_PER_BLOCK = 20          # 2%: p90 still reads point requests
POINT_BUDGET_S = 0.5
AUDIT_BUDGET_S = 5.0
Y_MAX = 2**40
# hazard at alpha = 1 divides q * q**y by q**y, which fails once q**y
# underflows (see DEFECT_PROBES): the loop keeps q**(y + 1) above this
HAZARD_Q_POW_MIN = 1e-290
EDGE_Q = 1.0 - 1e-10
# Requests at the edge of the domain and where tgd has known defects.  They
# run once per run, before the timed loop and from the same fixed list at
# every seed, so that their outcomes are the same in every run; the loop's
# requests stay clear of them.  (kind, function, (q, alpha), y or level)
DEFECT_PROBES = (
    ("edge:quantile", "quantile", (EDGE_Q, -1.0), 1.0 - 1e-12),
    ("edge:mode", "mode", (EDGE_Q, -1.0), None),
    ("edge:summarize", "summarize", (1e-300, -1.0), None),
    # q**y underflows to 0, and short of that is subnormal
    ("probe:hazard", "hazard", (0.5, 1.0), 1100),
    ("probe:hazard", "hazard", (0.4394220579490936, 1.0), 244136509204),
    ("probe:hazard", "hazard", (0.9992291711358011, 1.0), 963056),
    # y = 0 on a grid of (q, alpha): 1 - q log-spaced on [1e-4, 0.95]
    *(("probe:reversed_hazard@0", "reversed_hazard", (1.0 - om, a), 0)
      for om in np.logspace(-4.0, math.log10(0.95), 24).tolist()
      for a in np.linspace(-1.0, 1.0, 9).tolist()),
)


def _raw_weight(k):
    def weight(y):
        return y**k

    return weight


RAW_WEIGHTS = tuple(_raw_weight(k) for k in (1, 2, 3, 4))
ORACLE_TOL = tgd.Tolerance(1e-12)


class Evaluate(Workload):
    name = "evaluate"
    why = "library point requests, one scalar at a time; core and moments do the work"

    def bind(self):
        self.fn = {k: getattr(tgd, k) for k in POINT_MIX}
        self.oracle = (tgd.oracle_sum, tgd.oracle_quantile, tgd.oracle_mode)

    def audit(self, params):
        """What ``tgd summary --audit`` computes: closed forms and oracle."""
        oracle_sum, oracle_quantile, oracle_mode = self.oracle
        ms = self.fn["summarize"](params)
        closed = (ms.raw, self.fn["median"](params), self.fn["mode"](params))
        oracle = (tuple(oracle_sum(params, w, ORACLE_TOL) for w in RAW_WEIGHTS),
                  oracle_quantile(params, 0.5), oracle_mode(params))
        return closed + oracle

    def rounds(self):
        b = 0
        while True:
            yield self.block(b)
            b += 1

    def block(self, b: int) -> list[Op]:
        rng = self.rng(3, b)
        n_point = BLOCK - AUDITS_PER_BLOCK
        kinds = [k for k, n in POINT_MIX.items() for _ in range(n)]
        om = np.concatenate([log_uniform(stratified(rng, n), 1e-4, 0.95) for n in POINT_MIX.values()])
        alpha = draw_alpha(rng, len(kinds))
        y_u = rng.uniform(0.0, 1.0, len(kinds))
        zero = rng.random(len(kinds)) < 0.125
        levels = rng.uniform(0.0, 1.0, len(kinds))
        points = []
        for i, k in enumerate(kinds):
            q, a = 1.0 - float(om[i]), float(alpha[i])
            y = 0 if zero[i] and k != "reversed_hazard" else self.draw_y(k, q, a, float(y_u[i]))
            points.append(self.point_op(k, q, a, y, float(levels[i])))
        points = [points[i] for i in rng.permutation(len(points))]
        audit_om = log_uniform(stratified(rng, AUDITS_PER_BLOCK), 0.01, 0.95)
        audit_alpha = draw_alpha(rng, AUDITS_PER_BLOCK)
        ops = []
        stride = n_point // AUDITS_PER_BLOCK
        for j in range(AUDITS_PER_BLOCK):
            ops.extend(points[j * stride:(j + 1) * stride])
            ops.append(self.audit_op(1.0 - float(audit_om[j]), float(audit_alpha[j])))
        ops.extend(points[AUDITS_PER_BLOCK * stride:])
        return ops

    @staticmethod
    def draw_y(kind: str, q: float, a: float, u: float) -> int:
        """y log-uniform on [1, Y_MAX]; for hazard at alpha = 1, on [1, the
        largest y with q**(y + 1) >= HAZARD_Q_POW_MIN]."""
        y_max = Y_MAX
        if kind == "hazard" and a == 1.0:
            y_max = min(y_max, max(1, math.floor(math.log(HAZARD_Q_POW_MIN) / math.log(q)) - 1))
        return math.floor(math.exp(u * math.log(y_max)))

    def probes(self) -> list[Op]:
        return [self.point_op(fn, q, a, arg, arg, kind) for kind, fn, (q, a), arg in DEFECT_PROBES]

    def point_op(self, fn_name, q, a, y, level, kind=None) -> Op:
        params = tgd.Params(q, a)
        fn = self.fn[fn_name]
        if fn_name == "quantile":
            level = min(max(level, 1e-12), 1.0 - 1e-12)
            desc = f"q={q!r} alpha={a!r} p={level!r}"

            def run():
                return fn(params, level)

            def check(v):
                return refs.check_quantile(q, a, level, v)
        elif fn_name in ("median", "mode", "summarize", "hazard_class"):
            desc = f"q={q!r} alpha={a!r}"
            check_value = {
                "median": lambda v: refs.check_quantile(q, a, 0.5, v),
                "mode": lambda v: refs.check_mode(q, a, v),
                "summarize": lambda v: refs.check_moments(q, a, v),
                "hazard_class": lambda v: refs.check_hazard_class(q, a, v),
            }[fn_name]

            def run():
                return fn(params)

            def check(v):
                return check_value(v)
        else:
            desc = f"q={q!r} alpha={a!r} y={y}"
            check_value = getattr(refs, f"check_{fn_name}")

            def run():
                return fn(params, y)

            def check(v):
                return check_value(q, a, y, v)

        def checked(v):
            if not isinstance(v, Refusal):
                return check(v)
            if kind == "edge:summarize" and v.message.startswith("ParameterError"):
                return None  # a degenerate moment ratio may be refused as outside the domain
            return refused_valid(v)

        return Op(kind or fn_name, run, checked, POINT_BUDGET_S, desc)

    def audit_op(self, q, a) -> Op:
        params = tgd.Params(q, a)
        return Op("audit", lambda: self.audit(params),
                  lambda v: refused_valid(v) or refs.check_audit(v), AUDIT_BUDGET_S,
                  f"q={q!r} alpha={a!r}")


WORKLOADS = {w.name: w for w in (Fit, Simulate, Evaluate)}
