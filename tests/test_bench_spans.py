"""The benchmark's span recorder still finds what it instruments.

bench/spans.py wraps each (module, attribute) site in WRAPPED and skips a
site that no longer exists, so a renamed function silently drops a per-layer
metric. Its counters also read fields of the models the tree passes receive.
These tests read bench/spans.py and change nothing under bench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from entroscope.ingest import SampleTable
from entroscope.sweep import run_sweep

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:  # no __pycache__ under bench/
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_wrapped_site_resolves():
    sites = [site for group in _spans().WRAPPED.values() for site in group]
    assert len(sites) == 19
    for mod_name, attr in sites:
        module = importlib.import_module(f"entroscope.{mod_name}")
        assert callable(getattr(module, attr, None)), (mod_name, attr)


def test_tree_pass_counters_read_the_models():
    spans = _spans()
    rng = np.random.default_rng(5)
    data = rng.normal(size=(400, 4))
    data[:, 1] += data[:, 0]
    table = SampleTable(("a", "b", "c", "d"), data, "unit")
    with spans.Tracer() as tracer:
        results = run_sweep(table, 6, workers=1)
    metrics = tracer.metrics()
    models = [args[0] for _, args, _ in tracer.kept["chowliu.max_prob"]]
    assert len(models) == len(results) == 11
    assert metrics["chowliu.bigint_trees"] == 0
    assert metrics["chowliu.conditional_rows"] == sum(
        len(model.conditionals[node].parent_bins)
        for model in models for node in model.parent)
    for _, args, _ in tracer.kept["chowliu.support_count"]:
        assert set(args[0].bin_counts) == set(args[0].nodes)
