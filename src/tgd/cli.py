"""Command-line front end: evaluate, tabulate, sample, fit, summarize.

Data goes to stdout (or --output), diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 domain or estimation error.  All output is
byte-deterministic for identical inputs; ``sample`` therefore requires a
seed (flag --seed or environment variable TGD_SEED).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

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

# fit input: ASCII decimal tokens between blanks, one per line, or two per
# comma-separated histogram row
_BLANKS = b" \t\r"
_BLANK_LINES = re.compile(rb"(?:[ \t]*\r?\n)*")
_LF, _MINUS, _COMMA = b"\n-,"
_MAX_DIGITS = 4300  # the longest decimal string int() reads by default
_INT64_DIGITS = 18  # a token this short is built in int64 by Horner steps
_BLOCK = 1 << 16  # bytes per parser pass, cut at the next line end
_QUOTE = 40  # a refusal quotes at most this many characters of its line


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, single-line message
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return _NUM.format(x)


@functools.cache  # built on the first main() call; parse_args leaves it as it was
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
    p_sample.add_argument("--method", choices=[m.value for m in SampleMethod], default="inverse")

    p_fit = sub.add_parser("fit", help="estimate (q, alpha) from a file of observations")
    p_fit.add_argument("--input", required=True, help="integers one per line, or value,count CSV with header")
    p_fit.add_argument("--method", choices=[m.value for m in Method], required=True)
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
    lines = {v: f"{v}\n" for v in set(batch.values)}  # each distinct value formatted once
    return "".join(map(lines.__getitem__, batch.values))


def _read_dataset(path: str) -> Dataset:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror or exc}") from None
    if not data.endswith(b"\n"):
        data += b"\n"  # the last line's LF is optional
    start = _BLANK_LINES.match(data).end()  # the first line that is not blank
    if start == len(data):
        raise _InputError(f"{path} holds no observations")
    end = data.find(b"\n", start) + 1
    if not _is_header(data[start:end]):
        return ingest(_tokens(data, start, 1))
    rows = _tokens(data, end, 2).reshape(-1, 2)
    counts: dict[int, int] = {}
    for v, c in rows.tolist():
        if c:  # a zero count adds no observation, whatever its value
            counts[v] = counts.get(v, 0) + c
    return dataset_from_counts(counts)


def _is_header(line: bytes) -> bool:
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return text.strip().lower().replace(" ", "").startswith("value,count")


def _tokens(data: bytes, start: int, fields: int) -> np.ndarray:
    """The tokens of ``data[start:]`` in file order, ``fields`` to a line.

    Values are int64; the array is of Python ints when one leaves int64.
    The file is parsed in blocks that end at a line end, so that the
    parser's byte-length temporaries stay small.
    """
    parts = []
    while start < len(data):
        stop = data.find(b"\n", min(start + _BLOCK, len(data) - 1)) + 1
        parts.append(_parse_block(data, start, stop, fields))
        start = stop
    if not parts:
        return np.empty(0, np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _ahead(mask: np.ndarray) -> np.ndarray:
    """Each byte's flag replaced by the next byte's (False past the end)."""
    out = np.zeros_like(mask)
    out[:-1] = mask[1:]
    return out


def _behind(mask: np.ndarray) -> np.ndarray:
    """Each byte's flag replaced by the previous byte's (False before the start)."""
    out = np.zeros_like(mask)
    out[1:] = mask[:-1]
    return out


def _parse_block(data: bytes, lo: int, hi: int, fields: int) -> np.ndarray:
    """Tokens of ``data[lo:hi]``, which starts a line and ends with an LF.

    Every byte is classified at once.  Blanks are checked to split no token
    and are then dropped, so that each line left is empty or holds its
    ``fields`` tokens with one comma between two, and each token is the
    text before a separator.  Values are built by Horner steps, one digit
    column a pass over the tokens that reach it.
    """
    raw = np.frombuffer(data, np.uint8, hi - lo, lo)
    digit, separator = _digits(raw), raw == _LF
    text, keep, signs, breaks = raw, None, False, []

    def origin(i) -> int:  # the offset in the block of byte i of text
        return int(i) if keep is None else int(np.flatnonzero(keep)[i])

    if fields > 1 or not (digit | separator).all():  # else there is nothing to check
        minus, cr = raw == _MINUS, raw == 13
        blank = (raw == 32) | (raw == 9) | cr
        allowed = digit | separator | minus | blank
        if fields > 1:
            allowed |= raw == _COMMA
        # a '-' leads a token and a CR ends a line
        bad = ~allowed | (minus & ~_ahead(digit)) | (cr & ~_ahead(separator))
        if bad.any():
            breaks.append(int(bad.argmax()))
        if blank.any():
            keep = ~blank
            gap = _behind(blank)[keep]
            text = raw[keep]
            digit, separator, minus = _digits(text), text == _LF, text == _MINUS
        signs = minus.any()
        token = digit | minus
        wrong = minus & _behind(digit)  # two tokens meet, as in '5-3' or '5 -3'
        if keep is not None:
            wrong |= gap & token & _behind(token)  # as in '1 2'
        if fields > 1:
            comma = text == _COMMA
            wrong |= comma & ~(_behind(digit) & _ahead(token))
            separator |= comma
        if wrong.any():
            breaks.append(origin(wrong.argmax()))
    ends = np.flatnonzero(separator)
    span = np.empty_like(ends)  # the bytes before each separator, back to the last one
    span[0] = ends[0]
    np.subtract(ends[1:], ends[:-1] + 1, out=span[1:])
    if fields > 1:  # a row's two fields end at its comma and at its LF
        closes = comma[ends]
        split = (span > 0) & (closes == _behind(closes))
        if split.any():
            i = split.argmax()
            breaks.append(origin(ends[i] - span[i]))
    if breaks:
        pos = lo + min(breaks)
        line = data.rfind(b"\n", 0, pos) + 1
        if line > lo:  # an earlier line may still hold a bad value
            _parse_block(data, lo, line, fields)
        raise _refusal(data, pos, "non-integer observation" if fields == 1 else "malformed histogram row")

    full = span > 0
    if not full.all():  # blank lines
        ends, span = ends[full], span[full]
    ends -= 1  # the last digit of each token
    width = span
    if signs:
        width = span - (text.take(ends - span + 1) == _MINUS)
    values = np.subtract(text.take(ends), 48, dtype=np.int64)
    for k in range(1, min(int(width.max(initial=0)), _INT64_DIGITS)):
        more = np.flatnonzero(width > k)
        values[more] += np.subtract(text.take(ends[more] - k), 48, dtype=np.int64) * 10**k
    if signs:
        np.negative(values, out=values, where=width < span)

    def start(i) -> int:
        return int(ends[i] - span[i] + 1)

    faults = [(origin(start(i)), f"more than {_MAX_DIGITS} digits in")
              for i in np.flatnonzero(width > _MAX_DIGITS)[:1]]
    if not faults:
        wide = np.flatnonzero(width > _INT64_DIGITS).tolist()
        exact = [int(text[start(i):ends[i] + 1].tobytes()) for i in wide]
        if not all(-2**63 <= v < 2**63 for v in exact):
            values = values.astype(object)
        values[wide] = exact
    if fields > 1:
        negative = np.flatnonzero(np.asarray(values[1::2] < 0, bool))
        faults += [(origin(start(2 * i + 1)), "negative count in row") for i in negative[:1]]
    if faults:
        pos, why = min(faults)
        raise _refusal(data, lo + pos, why)
    return values


def _digits(buf: np.ndarray) -> np.ndarray:
    return (buf - np.uint8(48)) < 10


def _refusal(data: bytes, pos: int, why: str) -> _InputError:
    """The one-line refusal of the line holding byte ``pos``."""
    start = data.rfind(b"\n", 0, pos) + 1
    line = data[start:data.find(b"\n", pos)].strip(_BLANKS)
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        text, why = line.decode("utf-8", "replace"), "not UTF-8:"
    quote = repr(text[:_QUOTE]) + ("..." if len(text) > _QUOTE else "")
    number = data.count(b"\n", 0, start) + 1
    return _InputError(f"line {number}: {why} {quote}")


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
