"""Command-line driver and report emission.

Every analysis is drivable end to end from here: manifest (or synthetic
table) in, one Report out, emitted as markdown for humans, delimited text
for spreadsheets, or a versioned structured document for machines.

Payloads follow one convention: a "columns" list naming the fields and a
"rows" list of JSON-native rows, plus kind-specific extras. Full precision
is kept everywhere; display rounding to 3 decimals happens only in the
markdown renderer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__, synth
from .chowliu import validate as validate_subset
from .dependence import matrix as dependence_matrix
from .entropy import EntropyProfile, joint_direct, profile_joint
from .errors import DataError, EntroscopeError, UsageError
from .guesswork import guesswork_table
from .ingest import SampleTable, load_manifest, load_table
from .quantize import _canonical_rule, bin_channel, bin_table
from .sweep import (
    DEFAULT_GRID,
    MAX_JOINT_BINS,
    run_sweep,
    sensitivity,
    size_means,
    top_k,
)

REPORT_SCHEMA = "entroscope/report/v1"
WORKERS_ENV = "ENTROSCOPE_WORKERS"

KINDS = (
    "single_sensor_table",
    "subset_ranking",
    "validation_table",
    "dependence_matrix",
    "sensitivity_curve",
    "sweep_means_curve",
    "guesswork_table",
)

FORMATS = ("markdown", "structured", "delimited")

# markdown column titles where they differ from the machine field names
_MD_TITLES = {
    "modality": "Modality",
    "size": "#",
    "h0": "H0",
    "h1": "H1",
    "h2": "H2",
    "hmin": "Hmin",
    "gap": "H1-Hmin",
    "channel": "Channel",
    "bins": "Bins",
    "order": "Order",
    "direct": "Direct",
    "chowliu": "Chow-Liu",
    "abs_error": "|Error|",
    "bin_count": "Bins",
    "subsets": "Subsets",
    "expected_guesses": "E[guesses]",
}


@dataclass(frozen=True)
class Report:
    kind: str
    payload: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown report kind {self.kind!r}")
        if "columns" not in self.payload or "rows" not in self.payload:
            raise DataError("report payload needs columns and rows")


def _metadata(dataset: str, binning: str) -> dict:
    return {
        "dataset": dataset,
        "binning": str(binning),
        "version": __version__,
    }


def _cell_md(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _cell_csv(value) -> str:
    if value is None:
        return ""
    return str(value)


def _title(column: str) -> str:
    return _MD_TITLES.get(column, column)


def emit(report: Report, format: str = "markdown") -> bytes:
    """Serialize a report; same report and format always gives same bytes."""
    if format not in FORMATS:
        raise DataError(f"unknown emission format {format!r}")
    columns = report.payload["columns"]
    rows = report.payload["rows"]

    if format == "structured":
        doc = {
            "schema": REPORT_SCHEMA,
            "kind": report.kind,
            "metadata": report.metadata,
            "payload": report.payload,
        }
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
        return (text + "\n").encode("utf-8")

    if format == "delimited":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_csv(v) for v in row])
        return buf.getvalue().encode("utf-8")

    lines = [
        "| " + " | ".join(_title(c) for c in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell_md(v) for v in row) + " |")
    notes = []
    if report.metadata.get("dataset"):
        notes.append(f"dataset: {report.metadata['dataset']}")
    if report.metadata.get("binning"):
        notes.append(f"bins: {report.metadata['binning']}")
    notes.append(f"entroscope {report.metadata.get('version', __version__)}")
    lines.append("")
    lines.append("*" + ", ".join(notes) + "*")
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_report(data) -> Report:
    """Rebuild a Report from a structured emission."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # not JSON, or bytes that are not UTF-8
        raise DataError(f"not a structured report: {exc}") from exc
    if (not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA
            or "kind" not in doc or not isinstance(doc.get("payload"), dict)):
        raise DataError("not a structured report: missing schema, kind or payload")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DataError("not a structured report: metadata is not a mapping")
    return Report(doc["kind"], doc["payload"], metadata)


def _prof_cells(prof: EntropyProfile) -> list:
    return [float(prof.h0), float(prof.h1), float(prof.h2), float(prof.hmin)]


def _none_if_nan(value: float):
    v = float(value)
    return None if math.isnan(v) else v


# ---------------------------------------------------------------------------
# subcommand pipelines

# option types raise ArgumentTypeError, so argparse reports the failure
# through the parser of the subcommand, with that subcommand's usage

def _parse_rule(text: str) -> str:
    text = str(text).strip()
    try:
        _canonical_rule(text)
    except DataError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_subset_size = _int_at_least(2, "a subset size of at least 2")


def _list_of(item, what: str, valid=lambda values: True):
    """A type for a comma-separated list, non-empty and passing valid."""
    def parse(text: str) -> list:
        try:
            values = [item(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError:
            values = []
        if not values or not valid(values):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return values
    return parse


_names = _list_of(str, "distinct channel names A,B,...",
                  lambda v: len(set(v)) == len(v))
_two_or_three_names = _list_of(str, "2 or 3 distinct channel names A,B[,C]",
                               lambda v: 2 <= len(set(v)) == len(v) <= 3)
_floats = _list_of(float, "numbers N1,N2,...")
_grid = _list_of(int, "increasing bin counts of at least 2",
                 lambda v: v[0] >= 2 and all(a < b for a, b in zip(v, v[1:])))


def _load_input(args) -> SampleTable:
    """The table the options name; an option of the other source is a usage
    error rather than silently ignored."""
    given = {key: value for key, value in (("seed", args.seed), ("rows", args.rows))
             if value is not None}
    if args.synthetic:
        if args.data_root is not None:
            raise UsageError("--data-root applies only to --manifest")
        return synth.sensor_table(**given)
    if given:
        raise UsageError("--seed and --rows apply only to --synthetic")
    root = args.data_root or os.path.dirname(os.path.abspath(args.manifest))
    return load_table(load_manifest(args.manifest), root)


def _binned(table: SampleTable, rule, max_bins: int | None = None) -> list:
    """bin_table's channels, after a warning for each that did not bin;
    its error names the channel."""
    binned, failed = bin_table(table, rule, max_bins)
    for message in failed.values():
        print(f"warning: {message}", file=sys.stderr)
    return binned


def _channel_table(table: SampleTable, rule: str) -> Report:
    cells = {
        ch.name: [int(ch.spec.bin_count), *_prof_cells(profile_joint(joint_direct([ch])))]
        for ch in _binned(table, rule)
    }
    payload = {
        "columns": ["channel", "bins", "h0", "h1", "h2", "hmin"],
        "rows": [[name, *cells.get(name, [None] * 5)] for name in table.channels],
    }
    return Report("single_sensor_table", payload, _metadata(table.source, rule))


def _cmd_single(args) -> Report:
    return _channel_table(_load_input(args), args.bins)


def _sweep_results(args):
    """Load the input and sweep it: (table source, results, errors). The size
    range is checked first; only its upper bound depends on the table."""
    if args.max_size is not None and args.min_size > args.max_size:
        raise UsageError(
            f"--min-size {args.min_size} is above --max-size {args.max_size}")
    table = _load_input(args)
    errors: list = []
    results = run_sweep(
        table,
        args.bins,
        min_size=args.min_size,
        max_size=args.max_size,
        workers=args.workers,
        errors=errors,
    )
    for subset, message in errors:
        print(f"warning: {'+'.join(subset)}: {message}", file=sys.stderr)
    return table.source, results, errors


def _with_errors(payload: dict, errors) -> dict:
    """The payload, with the sweep's error ledger when it is not empty."""
    if errors:
        payload["errors"] = [
            {"subset": "+".join(subset), "error": message}
            for subset, message in errors
        ]
    return payload


def _ranking_payload(results, errors) -> dict:
    rows = [
        ["+".join(r.subset), r.size, *_prof_cells(r.profile), float(r.gap)]
        for r in results
    ]
    return _with_errors({
        "columns": ["modality", "size", "h0", "h1", "h2", "hmin", "gap"],
        "rows": rows,
    }, errors)


def _cmd_sweep(args) -> Report:
    source, results, errors = _sweep_results(args)
    return Report(
        "subset_ranking", _ranking_payload(results, errors),
        _metadata(source, args.bins),
    )


def _cmd_topk(args) -> Report:
    source, results, errors = _sweep_results(args)
    ranked = top_k(results, args.k)
    return Report(
        "subset_ranking", _ranking_payload(ranked, errors),
        _metadata(source, args.bins),
    )


def _cmd_means(args) -> Report:
    source, results, errors = _sweep_results(args)
    rows = [
        [size, count, *_prof_cells(prof)]
        for size, count, prof in size_means(results)
    ]
    payload = _with_errors({
        "columns": ["size", "subsets", "h0", "h1", "h2", "hmin"],
        "rows": rows,
        "statistic": "mean over all subsets of each size",
    }, errors)
    return Report("sweep_means_curve", payload, _metadata(source, args.bins))


def _cmd_validate(args) -> Report:
    table = _load_input(args)
    chans = [
        bin_channel(table.column(name), args.bins, name=name, max_bins=MAX_JOINT_BINS)
        for name in args.subset
    ]
    rep = validate_subset(chans)
    orders = ("H0", "H1", "H2", "Hmin")
    direct = _prof_cells(rep.direct)
    tree = _prof_cells(rep.chowliu)
    rows = [
        [order, d, c, abs(d - c)]
        for order, d, c in zip(orders, direct, tree)
    ]
    payload = {
        "columns": ["order", "direct", "chowliu", "abs_error"],
        "rows": rows,
        "subset": "+".join(rep.subset),
        "n": int(rep.n),
        "mae": float(rep.mae),
        "rel_error_pct": _none_if_nan(rep.rel_error_pct),
    }
    return Report("validation_table", payload, _metadata(table.source, args.bins))


def _cmd_matrix(args) -> Report:
    table = _load_input(args)
    binned = [] if args.kind == "pearson" else _binned(table, args.bins, MAX_JOINT_BINS)
    dm = dependence_matrix(table, binned, args.kind)
    rows = [
        [name, *(_none_if_nan(v) for v in dm.values[i])]
        for i, name in enumerate(dm.channels)
    ]
    payload = {
        "columns": ["channel", *dm.channels],
        "rows": rows,
        "kind": dm.kind,
        "missing": [
            {"a": a, "b": b, "reason": reason} for a, b, reason in dm.missing
        ],
    }
    rule = "n/a" if args.kind == "pearson" else args.bins  # pearson bins nothing
    return Report("dependence_matrix", payload, _metadata(table.source, rule))


def _cmd_sensitivity(args) -> Report:
    table = _load_input(args)
    curve = sensitivity(table, args.subset, args.grid or DEFAULT_GRID)
    rows = [
        [int(count), *_prof_cells(prof)] for count, prof in curve.points
    ]
    payload = {
        "columns": ["bin_count", "h0", "h1", "h2", "hmin"],
        "rows": rows,
        "subset": "+".join(curve.subset),
        "fd_marker": float(curve.markers[0]),
        "scott_marker": float(curve.markers[1]),
    }
    return Report("sensitivity_curve", payload, _metadata(table.source, "fixed_count grid"))


def _cmd_guesswork(args) -> Report:
    if args.from_report:
        with open(args.from_report, "rb") as fh:
            source = parse_report(fh.read())
        if source.kind != "subset_ranking":
            raise DataError(
                f"--from-report needs a subset_ranking report, got {source.kind}"
            )
        try:
            idx = source.payload["columns"].index("hmin")
            hmins = [float(row[idx]) for row in source.payload["rows"]]
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"--from-report: no numeric hmin column: {exc}") from exc
        dataset = source.metadata.get("dataset", args.from_report)
    else:
        hmins = args.hmin
        dataset = "manual"
    gt = guesswork_table(hmins, args.rates)
    rate_cols = [f"q{r:g}" for r in gt.rates]
    rows = [
        [float(h), gt.expected[i], *gt.times[i]]
        for i, h in enumerate(gt.hmins)
    ]
    payload = {
        "columns": ["hmin", "expected_guesses", *rate_cols],
        "rows": rows,
        "rates_per_second": [float(r) for r in gt.rates],
    }
    report = Report("guesswork_table", payload, _metadata(dataset, "n/a"))
    return report


_COMMANDS = {
    "single": _cmd_single,
    "sweep": _cmd_sweep,
    "topk": _cmd_topk,
    "validate": _cmd_validate,
    "matrix": _cmd_matrix,
    "sensitivity": _cmd_sensitivity,
    "means": _cmd_means,
    "guesswork": _cmd_guesswork,
}


# ---------------------------------------------------------------------------
# argument plumbing

class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes.
    The error carries the failing parser's usage: a subcommand's, for its
    options."""

    def error(self, message):
        exc = UsageError(message)
        exc.usage = self.format_usage()
        raise exc


def build_parser() -> _Parser:
    parser = _Parser(prog="entroscope", description=__doc__.splitlines()[0])

    out = _Parser(add_help=False)
    out.add_argument("--format", choices=FORMATS, default="markdown",
                     help="emission format (default markdown)")
    out.add_argument("--out", metavar="PATH",
                     help="write the report here instead of stdout")

    data = _Parser(add_help=False)
    source = data.add_mutually_exclusive_group(required=True)
    source.add_argument("--manifest", metavar="PATH",
                        help="dataset manifest file")
    source.add_argument("--synthetic", action="store_true",
                        help="use the built-in synthetic sensor table")
    data.add_argument("--data-root", metavar="DIR",
                      help="base directory for manifest paths "
                           "(default: manifest directory)")
    # no defaults here, so that _load_input can tell whether they were given
    data.add_argument("--seed", type=int,
                      help="seed for synthetic data (default 7)")
    data.add_argument("--rows", type=_int_at_least(2, "at least 2 rows"),
                      help="rows of synthetic data (default 100000)")
    data.add_argument("--bins", type=_parse_rule, default="fd",
                      help="binning rule: fd, scott, or a fixed count")

    sweepish = _Parser(add_help=False)
    sweepish.add_argument("--min-size", type=_subset_size, default=2)
    sweepish.add_argument("--max-size", type=_subset_size, default=None)
    # argparse runs a string default through type, and only for the
    # subcommand being parsed
    sweepish.add_argument("--workers", type=_positive_int,
                          default=os.environ.get(WORKERS_ENV) or "1",
                          help=f"parallel workers (default ${WORKERS_ENV} or 1)")

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    parser.commands = sub.choices  # subcommand name -> its parser

    sub.add_parser("single", parents=[data, out],
                   help="per-channel entropy profile table")
    sub.add_parser("sweep", parents=[data, sweepish, out],
                   help="joint profiles for every channel subset")
    p = sub.add_parser("topk", parents=[data, sweepish, out],
                       help="best subsets by min-entropy")
    p.add_argument("--k", type=_positive_int, default=10)
    p = sub.add_parser("validate", parents=[data, out],
                       help="direct vs tree profile on one 2-3 channel subset")
    p.add_argument("--subset", required=True, metavar="A,B[,C]",
                   type=_two_or_three_names)
    p = sub.add_parser("matrix", parents=[data, out],
                       help="pairwise dependence matrix")
    p.add_argument("--kind", choices=("pearson", "mi"), default="mi")
    p = sub.add_parser("sensitivity", parents=[data, out],
                       help="joint profile vs bin count for one subset",
                       description="Joint profile of one subset at each bin "
                                   "count of the grid. --bins is ignored: the "
                                   "curve bins at the grid's fixed counts.")
    p.add_argument("--subset", required=True, metavar="A,B,...", type=_names)
    p.add_argument("--grid", metavar="N1,N2,...", type=_grid,
                   help="bin counts to test (default 5..2048 geometric)")
    sub.add_parser("means", parents=[data, sweepish, out],
                   help="mean joint profile per subset size")
    p = sub.add_parser("guesswork", parents=[out],
                       help="attacker cost table from min-entropy values")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--hmin", metavar="H1,H2,...", type=_floats,
                        help="min-entropy values in bits")
    source.add_argument("--from-report", metavar="PATH",
                        help="take hmin values from a structured subset_ranking report")
    p.add_argument("--rates", type=_floats, default="1,10,1e3,1e6",
                   metavar="R1,R2,...",
                   help="guess rates per second (default 1,10,1e3,1e6)")
    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the process exit code."""
    parser = build_parser()
    usage = parser.format_usage()
    try:
        args = parser.parse_args(list(argv))
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required")
        usage = parser.commands[args.command].format_usage()
        report = _COMMANDS[args.command](args)
        data = emit(report, args.format)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        sys.stderr.write(getattr(exc, "usage", usage))
        return 1
    except EntroscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the allocation, Python may not
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
