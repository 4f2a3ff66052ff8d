"""Smoke test of scripts/run_full_analysis.py: the whole chained pipeline."""

import importlib.util
from pathlib import Path

import pytest

from entroscope.cli_report import emit, parse_report

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_analysis.py"
REPORTS = {
    "single_channel.md", "mi_matrix.md", "sweep_ranking.md",
    "top10_ranking.json", "top10_ranking.md", "size_means.md",
    "sensitivity_best.md", "guesswork_top10.md",
}


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_full_analysis", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_analysis_writes_eight_reports(script, tmp_path):
    script.main(["--outdir", str(tmp_path), "--rows", "3000"])
    assert {p.name for p in tmp_path.iterdir()} == REPORTS
    assert all((tmp_path / name).stat().st_size for name in REPORTS)
    ranking = parse_report((tmp_path / "top10_ranking.json").read_bytes())
    assert (tmp_path / "top10_ranking.md").read_bytes() == emit(ranking, "markdown")


@pytest.mark.parametrize("argv", [
    ["--manifest", "m", "--seed", "3"],
    ["--manifest", "m", "--rows", "3000"],
    ["--data-root", "d", "--rows", "3000"],
])
def test_full_analysis_refuses_an_option_of_the_other_source(script, tmp_path, argv):
    with pytest.raises(SystemExit, match="exit code 1"):
        script.main(["--outdir", str(tmp_path), *argv])
    assert not any(tmp_path.iterdir())
