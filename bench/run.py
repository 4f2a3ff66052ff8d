#!/usr/bin/env python3
"""entroscope benchmark: seeded workloads timed from manifest or table to reports.

Run from the repository root:

    python3 bench/run.py --workload synth8-sweep --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics: median wall time per repetition,
subsets profiled per second of sweep time, peak resident memory and set-up
time. --trace 1 prints the per-layer metrics instead, from repetitions in
which bench/spans.py times every call into entroscope's public functions.
Either way the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, and the line before it records the
environment the numbers came from. Spans and results are also written under
.bench_out/ in the repository root.

Every run first makes one untimed warm-up repetition on the inputs of a fixed
reference seed and compares its reports with bench/reference/ within a
stated tolerance. `--write-reference` regenerates that file instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCRATCH = ROOT / ".bench_tmp"

REFERENCE_SEED = 7
REFERENCE_REL_TOL = 1e-9  # floats are checked to this, never to the bit
REFERENCE_ABS_TOL = 1e-12
GENERATIONS = 3  # set-up generates the inputs this many times; median reported
MIN_REPS = 3
MIN_TRACED_REPS = 2  # so the work counters can be seen to repeat
WORKLOAD_NAMES = ("synth8-sweep", "csv-pipeline", "wide12-2w")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20,
                   help="time budget of the repetitions; at least 3 run, or 2 "
                        "traced ones with --trace 1")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help=f"rewrite the reference reports from seed {REFERENCE_SEED}")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def quiet(fn, *args, **kwargs):
    """Call fn with stderr captured, so terminal output is never timed."""
    with contextlib.redirect_stderr(io.StringIO()):
        return fn(*args, **kwargs)


def timed(fn, *args):
    start = time.perf_counter()
    out = quiet(fn, *args)
    return out, time.perf_counter() - start


def reference_path(workload: str) -> Path:
    return BENCH / "reference" / f"{workload}.json"


def structured(outputs: dict[str, bytes]) -> dict[str, dict]:
    """Structured reports of a repetition as {name: {kind, payload}}."""
    out = {}
    for name, data in outputs.items():
        if data.startswith(b"{"):
            doc = json.loads(data)
            out[name] = {"kind": doc["kind"], "payload": doc["payload"]}
    return out


# The modules that import entroscope (workloads, spans) are imported inside
# the functions that use them, once main() has put src/ on the path.


class Run:
    """One benchmark run of one workload: set-up, repetitions and checks."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        from workloads import WORKLOADS, Ledger

        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.ledger = Ledger()
        self.first: dict[str, bytes] | None = None
        self.detail: dict[str, list] = {}  # per-repetition figures, for the record
        self.spans: list[list[dict]] = []  # one list per traced repetition

    def check_rep(self, rep) -> None:
        """Reports are well-formed and byte-identical to the first repetition's."""
        from workloads import canonical, check_profiles

        got = {}
        for name, data in rep.outputs.items():
            if data.startswith(b"{"):
                check_profiles(name, data, self.ledger)
                got[name] = canonical(data)
            else:
                got[name] = data
        if self.first is None:
            self.first = got
        else:
            for name in self.first:
                self.ledger.check(got.get(name) == self.first[name],
                                  f"{name} identical across repetitions")

    def setup(self) -> float:
        """Generate the inputs, then warm up on the reference inputs.

        Returns the median generation time plus the warm-up time. The warm-up
        repetition is untimed in the results; its reports are checked against
        the stored reference.
        """
        from workloads import close

        gen_s = []
        self.inputs = None
        for i in range(GENERATIONS):
            inp, elapsed = timed(self.wl.generate, self.seed, self.scratch / f"in{i}")
            gen_s.append(elapsed)
            if self.inputs is None:
                self.inputs = inp
            else:
                self.ledger.check(self.wl.same_input(self.inputs, inp),
                                  "generator repeats for one seed")
        ref_inputs = quiet(self.wl.generate, REFERENCE_SEED, self.scratch / "ref")
        warm, warm_s = timed(self.wl.rep, ref_inputs, self.ledger, self.wl.workers)
        ref = json.loads(reference_path(self.name).read_text())
        got = structured(warm.outputs)
        for name, want in ref["reports"].items():
            self.ledger.check(
                name in got and close(got[name], want, ref["rel_tol"], ref["abs_tol"]),
                f"{name} matches the reference within rel {ref['rel_tol']}")
        return statistics.median(gen_s) + warm_s

    def end_to_end(self, seconds: int) -> dict:
        setup_s = self.setup()
        walls, rates = [], []
        start = time.perf_counter()
        while len(walls) < MIN_REPS or fits(start, walls[-1], seconds):
            rep, wall = timed(self.wl.rep, self.inputs, self.ledger, self.wl.workers)
            self.check_rep(rep)
            walls.append(wall)
            rates.append(rep.subsets / rep.sweep_s)
        self.detail = {"rep_wall_s": walls, "subsets_per_s": rates}
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "wall_s": (statistics.median(walls), "s"),
            "subsets_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (max(own, workers) / 1024.0, "MiB"),  # ru_maxrss is KiB
            "setup_s": (setup_s, "s"),
        }

    def per_layer(self, seconds: int) -> dict:
        """Alternate untraced and traced serial repetitions, then compare
        a serial and a 2-worker sweep on the same input."""
        from spans import Tracer
        from workloads import PARALLEL_WORKERS, canonical, emit_ranking, timed_sweep

        self.setup()
        untraced, traced, layer = [], [], []
        start = time.perf_counter()
        while (len(traced) < MIN_TRACED_REPS
               or fits(start, untraced[-1] + traced[-1], seconds)):
            rep, wall = timed(self.wl.rep, self.inputs, self.ledger, 1)
            self.check_rep(rep)
            untraced.append(wall)
            with Tracer() as tracer:
                t0 = time.perf_counter()
                rep, wall = timed(self.wl.rep, self.inputs, self.ledger, 1)
            self.check_rep(rep)
            traced.append(wall)
            layer.append(tracer.metrics())
            self.spans.append(tracer.records(t0))
        self.detail = {"untraced_wall_s": untraced, "traced_wall_s": traced}

        metrics = {}
        for key in layer[0]:
            values = [m[key] for m in layer]
            if isinstance(values[0], int):
                self.ledger.check(len(set(values)) == 1, f"counter {key} repeats")
                metrics[key] = values[0]
            else:
                metrics[key] = statistics.median(values)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

        table = quiet(self.wl.sweep_table, self.inputs)
        (serial, serial_s) = quiet(timed_sweep, table, self.ledger,
                                   min_size=self.wl.min_size, workers=1)
        (parallel, parallel_s) = quiet(timed_sweep, table, self.ledger,
                                       min_size=self.wl.min_size,
                                       workers=PARALLEL_WORKERS)
        self.ledger.check(
            canonical(emit_ranking(serial)) == canonical(emit_ranking(parallel)),
            f"{PARALLEL_WORKERS}-worker sweep payload identical to serial")
        metrics["sweep.parallel_speedup"] = serial_s / parallel_s
        return {key: (value, unit_of(key)) for key, value in metrics.items()}


def fits(start: float, last: float, seconds: int) -> bool:
    """Whether one more step as long as the last still ends within seconds."""
    return time.perf_counter() - start + last <= seconds


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "sweep.parallel_speedup":
        return "x"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def environment(args) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "commit": commit,
        "src_sha256": digest.hexdigest(), "src_lines": lines,
    }


def write_reference(workload: str, scratch: Path) -> None:
    from workloads import WORKLOADS, Ledger

    wl = WORKLOADS[workload]
    ledger = Ledger()
    inputs = quiet(wl.generate, REFERENCE_SEED, scratch / "ref")
    rep = quiet(wl.rep, inputs, ledger, wl.workers)
    if ledger.failed:
        raise SystemExit(f"{ledger.failed} operations failed; reference not written")
    doc = {"workload": workload, "seed": REFERENCE_SEED,
           "rel_tol": REFERENCE_REL_TOL, "abs_tol": REFERENCE_ABS_TOL,
           "reports": structured(rep.outputs)}
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "entroscope" / "__init__.py").is_file():
        print(f"bench: no entroscope package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.write_reference:
            write_reference(args.workload, scratch)
            return 0
        run = Run(args.workload, args.seed, scratch)
        if args.trace:
            metrics = run.per_layer(args.seconds)
        else:
            metrics = run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only once no other run is using it

    env = environment(args)
    result = {
        "correct": run.ledger.failed == 0,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.spans:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for i, rep_spans in enumerate(run.spans):
                for span in rep_spans:
                    fh.write(json.dumps({"rep": i, **span}) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "detail": run.detail, "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
