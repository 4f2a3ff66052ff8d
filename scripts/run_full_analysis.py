#!/usr/bin/env python3
"""Run the whole pipeline end to end and leave a directory of reports.

Single-channel profiles, the exhaustive subset sweep, the top-10 ranking,
per-size means, a bin-sensitivity curve for the strongest subset, a
dependence matrix, and the attacker-cost table derived from the ranking —
the same artifacts the CLI produces one at a time, chained.

By default it runs on the built-in synthetic table so it works out of the
box; point --manifest/--data-root at a prepared dataset for the real thing.
--data-root, --seed, --rows and --workers are passed on only when given, so
an option of the source not chosen fails the first step, as it would the CLI.

Usage:
    python3 scripts/run_full_analysis.py --outdir reports/
    python3 scripts/run_full_analysis.py --manifest manifests/uci-har.yaml \
        --data-root /data/uci-har --outdir reports/uci-har --workers 8
"""

import argparse
import os
import sys
import time

from entroscope.cli_report import emit, parse_report, run


def step(argv: list[str]) -> None:
    print(f"$ entroscope {' '.join(argv)}", file=sys.stderr)
    t0 = time.perf_counter()
    code = run(argv)
    if code != 0:
        raise SystemExit(f"step failed with exit code {code}")
    print(f"  ... {time.perf_counter() - t0:.1f}s", file=sys.stderr)


def _given(args, *names: str) -> list[str]:
    """The named options as CLI arguments, each only when it was given."""
    argv = []
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            argv += [f"--{name}", value]
    return argv


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="reports",
                        help="directory for the emitted reports")
    parser.add_argument("--manifest", help="dataset manifest (default: synthetic)")
    parser.add_argument("--data-root", help="base directory for manifest paths")
    parser.add_argument("--rows",
                        help="synthetic rows (default: the CLI's, 100000)")
    parser.add_argument("--seed", help="synthetic seed (default: the CLI's, 7)")
    parser.add_argument("--bins", default="fd", help="binning rule (default fd)")
    parser.add_argument("--workers",
                        help="sweep workers (default: $ENTROSCOPE_WORKERS or 1)")
    args = parser.parse_args(argv)

    os.makedirs(args.outdir, exist_ok=True)
    # each option is forwarded only when given, so the CLI's own default
    # applies otherwise and the CLI refuses an option of the other source
    data = ["--manifest", args.manifest] if args.manifest else ["--synthetic"]
    data += [*_given(args, "data-root", "seed", "rows"), "--bins", args.bins]
    sweepish = _given(args, "workers")

    def out(name: str, format: str = "markdown") -> list[str]:
        ext = {"markdown": "md", "structured": "json", "delimited": "csv"}[format]
        return ["--format", format, "--out",
                os.path.join(args.outdir, f"{name}.{ext}")]

    step(["single", *data, *out("single_channel")])
    step(["matrix", *data, "--kind", "mi", *out("mi_matrix")])
    step(["sweep", *data, *sweepish, *out("sweep_ranking")])
    # the ranking doubles as input for the sensitivity and guesswork steps,
    # so it is emitted structured; its markdown is the same report
    # re-emitted, not another sweep
    step(["topk", *data, *sweepish, "--k", "10",
          *out("top10_ranking", "structured")])
    with open(os.path.join(args.outdir, "top10_ranking.json"), "rb") as fh:
        ranking = parse_report(fh.read())
    with open(os.path.join(args.outdir, "top10_ranking.md"), "wb") as fh:
        fh.write(emit(ranking, "markdown"))
    step(["means", *data, *sweepish, *out("size_means")])

    # the winner of the top-10 gets the sensitivity curve
    best = ranking.payload["rows"][0][0]
    step(["sensitivity", *data, "--subset", best.replace("+", ","),
          *out("sensitivity_best")])

    step(["guesswork", "--from-report",
          os.path.join(args.outdir, "top10_ranking.json"),
          *out("guesswork_top10")])

    print(f"reports written under {args.outdir}/", file=sys.stderr)


if __name__ == "__main__":
    main()
