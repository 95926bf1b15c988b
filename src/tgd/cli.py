"""Command-line front end: evaluate, tabulate, sample, fit, summarize.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 domain or estimation error.  All output is
byte-deterministic for identical inputs; ``sample`` therefore requires a
seed (flag --seed or environment variable TGD_SEED).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .core import (
    HazardBehavior,
    ParameterError,
    Params,
    cdf,
    hazard,
    hazard_class,
    is_unimodal,
    median,
    mode,
    pmf,
    quantile,
    reversed_hazard,
    survival,
)
from .estimate import (
    Dataset,
    EstimationError,
    Method,
    dataset_from_counts,
    fit as fit_dataset,
    ingest,
)
from .moments import summarize
from .oracle import (
    Tolerance,
    oracle_cdf,
    oracle_mode,
    oracle_quantile,
    oracle_sum,
    pmf_by_terms,
    tail_bound,
)
from .sampling import SampleMethod, sample_many

_NUM = "{:.9g}"
# the most oracle terms one --audit may sum: eval sums y + 1 of them, and
# summary runs six scans (four moment sums, median, mode), each about as long
# as the oracle's tail bound.  The scans are numpy block passes: the largest
# admitted audits take about 40 ms (summary) and 12 ms (eval) in-process on a
# 2-core Xeon host, beside a quarter second of interpreter start.
_AUDIT_TERMS = 500_000


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, single-line message
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return _NUM.format(x)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tgd", description="Transmuted geometric distribution tool")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_params(p):
        p.add_argument("--q", type=float, required=True, help="survival ratio in (0,1)")
        p.add_argument("--alpha", type=float, required=True, help="transmutation weight in [-1,1]")

    p_eval = sub.add_parser("eval", help="point evaluation of all distribution functions")
    add_params(p_eval)
    p_eval.add_argument("--y", type=int, required=True, help="support point (>= 0)")
    p_eval.add_argument("--p", type=float, default=None, help="also report this quantile level")
    p_eval.add_argument("--audit", action="store_true", help="cross-check against the brute-force oracle")

    p_table = sub.add_parser("table", help="rows y, pmf, cdf, survival, hazard for y = 0..ymax")
    add_params(p_table)
    p_table.add_argument("--ymax", type=int, required=True, help="largest tabulated y")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_sample = sub.add_parser("sample", help="draw variates, one per line")
    add_params(p_sample)
    p_sample.add_argument("--n", type=int, required=True, help="number of variates")
    p_sample.add_argument("--seed", type=int, default=None, help="stream seed (default: TGD_SEED)")
    p_sample.add_argument("--method", choices=("inverse", "bridge"), default="inverse")

    p_fit = sub.add_parser("fit", help="estimate (q, alpha) from a file of observations")
    p_fit.add_argument("--input", required=True, help="integers one per line, or value,count CSV with header")
    p_fit.add_argument("--method", choices=("proportions", "quantiles", "moments", "mle"), required=True)
    p_fit.add_argument("--t1", type=int, default=None, help="first cdf anchor (quantiles method)")
    p_fit.add_argument("--p1", type=float, default=None, help="cdf value at t1 (default: empirical)")
    p_fit.add_argument("--t2", type=int, default=None, help="second cdf anchor")
    p_fit.add_argument("--p2", type=float, default=None, help="cdf value at t2 (default: empirical)")

    p_sum = sub.add_parser("summary", help="moments, median, mode, hazard class as JSON")
    add_params(p_sum)
    p_sum.add_argument("--audit", action="store_true", help="cross-check moments against the oracle")

    for p in (p_eval, p_table, p_sample, p_fit, p_sum):
        p.add_argument("--output", default=None, help="write data here instead of stdout")
    return parser


def _params(args) -> Params:
    return Params(args.q, args.alpha)


def _check_audit_terms(terms: float) -> None:
    if terms > _AUDIT_TERMS:
        raise ParameterError(
            f"--audit would sum about {terms:.3g} oracle terms, over its budget of {_AUDIT_TERMS}"
        )


def _cmd_eval(args) -> str:
    params = _params(args)
    if args.y < 0:
        raise ParameterError(f"y must be >= 0, got {args.y}")
    if args.audit:
        _check_audit_terms(args.y + 1)
    record = {
        "pmf": pmf(params, args.y),
        "cdf": cdf(params, args.y),
        "survival": survival(params, args.y),
        "hazard": hazard(params, args.y),
        "reversed_hazard": reversed_hazard(params, args.y),
    }
    if args.p is not None:
        record["quantile"] = quantile(params, args.p)
    if args.audit:
        acc, term = oracle_cdf(params, args.y), pmf_by_terms(params, args.y)
        dev = max(
            abs(record["pmf"] - term),
            abs(record["cdf"] - acc),
            abs(record["survival"] - (1.0 - acc + term)),
        )
        record["audit_max_deviation"] = dev
    return json.dumps(record) + "\n"


def _cmd_table(args) -> str:
    params = _params(args)
    if args.ymax < 0:
        raise ParameterError(f"ymax must be >= 0, got {args.ymax}")
    rows = [
        {
            "y": y,
            "pmf": pmf(params, y),
            "cdf": cdf(params, y),
            "survival": survival(params, y),
            "hazard": hazard(params, y),
        }
        for y in range(args.ymax + 1)
    ]
    if args.format == "json":
        return json.dumps(rows) + "\n"
    lines = ["y,pmf,cdf,survival,hazard"]
    for r in rows:
        lines.append(
            f"{r['y']},{_fmt(r['pmf'])},{_fmt(r['cdf'])},{_fmt(r['survival'])},{_fmt(r['hazard'])}"
        )
    return "\n".join(lines) + "\n"


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TGD_SEED")
    if env is None:
        raise _UsageError("sample requires --seed (or the TGD_SEED environment variable)")
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"TGD_SEED must be an integer, got {env!r}") from None


def _cmd_sample(args) -> str:
    params = _params(args)
    seed = _resolve_seed(args)
    batch = sample_many(params, args.n, seed, SampleMethod(args.method))
    return "".join(f"{v}\n" for v in batch.values)


def _read_dataset(path: str) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    lines = [ln for ln in lines if ln]
    if not lines:
        raise _InputError(f"{path} holds no observations")
    header = lines[0].lower().replace(" ", "")
    if header.startswith("value,count"):
        counts: dict[int, int] = {}
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 2:
                raise _InputError(f"malformed histogram row {ln!r}")
            try:
                v, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise _InputError(f"malformed histogram row {ln!r}") from None
            if c < 0:
                raise _InputError(f"negative count in row {ln!r}")
            if c:  # a zero count adds no observation, whatever its value
                counts[v] = counts.get(v, 0) + c
        return dataset_from_counts(counts)
    parsed: dict[str, int] = {}
    for ln in dict.fromkeys(lines):  # each distinct line is parsed once
        try:
            parsed[ln] = int(ln)
        except ValueError:
            raise _InputError(f"non-integer observation {ln!r}") from None
    return ingest([parsed[ln] for ln in lines])


def _cmd_fit(args) -> str:
    dataset = _read_dataset(args.input)
    anchors = (args.t1, args.p1, args.t2, args.p2)
    report = fit_dataset(dataset, Method(args.method), quantile_anchors=anchors)
    record = {
        "q": report.params.q,
        "alpha": report.params.alpha,
        "method": report.method.value,
        "objective": report.objective,
        "converged": report.converged,
        "iterations": report.iterations,
        "log_likelihood": report.log_likelihood,
        "boundary": list(report.boundary),
        "alternatives": [{"q": p.q, "alpha": p.alpha} for p in report.alternatives],
    }
    return json.dumps(record) + "\n"


def _cmd_summary(args) -> str:
    params = _params(args)
    if args.audit:
        # survival(y) < 2*q**y, so the 1e-15 tail ends before log(5e-16)/log(q)
        _check_audit_terms(6 * math.log(5e-16) / math.log(params.q))
    ms = summarize(params)
    hc = hazard_class(params)
    record = {
        "q": params.q,
        "alpha": params.alpha,
        "mean": ms.mean,
        "variance": ms.variance,
        "raw": list(ms.raw),
        "central": list(ms.central),
        "factorial": list(ms.factorial),
        "factorial_cumulant": list(ms.factorial_cumulant),
        "index_of_dispersion": ms.index_of_dispersion,
        "beta1": ms.beta1,
        "beta2": ms.beta2,
        "median": median(params),
        "mode": mode(params),
        "hazard_class": hc.behavior.value,
        "is_unimodal": is_unimodal(params),
    }
    if hc.behavior is HazardBehavior.CONSTANT:
        record["hazard_constant_rate"] = hc.rate
    if args.audit:
        dev = 0.0
        for r, closed in enumerate(ms.raw, 1):
            o = oracle_sum(params, lambda y: y**r, Tolerance(1e-12))
            dev = max(dev, abs(closed - o) / max(1.0, abs(o)))
        dev = max(dev, abs(record["median"] - oracle_quantile(params, 0.5)))
        dev = max(dev, abs(record["mode"] - oracle_mode(params)))
        record["audit_max_deviation"] = dev
        record["audit_tail_bound"] = tail_bound(params, Tolerance(1e-12))
    return json.dumps(record) + "\n"


_COMMANDS = {
    "eval": _cmd_eval,
    "table": _cmd_table,
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "summary": _cmd_summary,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    try:
        out = _COMMANDS[args.subcommand](args)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: estimation: {exc}", file=sys.stderr)
        return 2
    except _InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: input: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
