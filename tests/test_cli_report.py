import json
import math
import textwrap

import numpy as np
import pytest

from entroscope import __version__, cli_report
from entroscope.cli_report import (
    FORMATS,
    WORKERS_ENV,
    Report,
    emit,
    parse_report,
    run,
)
from entroscope.errors import DataError
from entroscope.guesswork import (
    expected_guesses,
    format_duration,
    format_guess_count,
    time_to_success,
)


RANKING = Report(
    "subset_ranking",
    {
        "columns": ["modality", "size", "h0", "h1", "h2", "hmin", "gap"],
        "rows": [["Acc.X+Acc.Y", 2, 8.0, 7.5, 7.0, 6.5, 1.0]],
    },
    {"dataset": "toy", "binning": "fd", "timestamp": "t", "version": __version__},
)


def test_report_validation():
    with pytest.raises(DataError, match="unknown report kind"):
        Report("mystery", {"columns": [], "rows": []})
    with pytest.raises(DataError, match="columns and rows"):
        Report("subset_ranking", {"rows": []})


def test_emit_rejects_unknown_format():
    with pytest.raises(DataError, match="unknown emission format"):
        emit(RANKING, "xml")


@pytest.mark.parametrize("format", FORMATS)
def test_emission_is_deterministic(format):
    assert emit(RANKING, format) == emit(RANKING, format)


def test_markdown_layout():
    lines = emit(RANKING, "markdown").decode().splitlines()
    assert lines[0] == "| Modality | # | H0 | H1 | H2 | Hmin | H1-Hmin |"
    assert lines[1] == "| --- | --- | --- | --- | --- | --- | --- |"
    assert lines[2] == "| Acc.X+Acc.Y | 2 | 8.000 | 7.500 | 7.000 | 6.500 | 1.000 |"
    assert lines[-1] == f"*dataset: toy, bins: fd, entroscope {__version__}*"


def test_markdown_none_renders_empty():
    report = Report(
        "single_sensor_table",
        {"columns": ["channel", "h1"], "rows": [["dead", None]]},
        {"timestamp": "t", "version": __version__},
    )
    lines = emit(report, "markdown").decode().splitlines()
    assert lines[2] == "| dead |  |"


def test_markdown_empty_rows_keeps_header():
    report = Report(
        "subset_ranking",
        {"columns": ["modality", "hmin"], "rows": []},
        {"dataset": "d", "binning": "8", "timestamp": "t", "version": __version__},
    )
    lines = emit(report, "markdown").decode().splitlines()
    assert lines[0] == "| Modality | Hmin |"
    assert lines[1].startswith("| ---")
    assert lines[2] == ""  # straight to the notes


def test_delimited_layout():
    text = emit(RANKING, "delimited").decode()
    assert text.splitlines() == [
        "modality,size,h0,h1,h2,hmin,gap",
        "Acc.X+Acc.Y,2,8.0,7.5,7.0,6.5,1.0",
    ]


def test_structured_round_trip():
    data = emit(RANKING, "structured")
    back = parse_report(data)
    assert back == RANKING
    # full precision survives, unlike the markdown display rounding
    assert back.payload["rows"][0][2] == 8.0


def test_parse_report_rejects_garbage():
    with pytest.raises(DataError, match="not a structured report"):
        parse_report(b"{not json")
    with pytest.raises(DataError, match="not a structured report"):
        parse_report(b'{"kind": "\xff"}')
    with pytest.raises(DataError, match="missing schema"):
        parse_report(json.dumps({"kind": "subset_ranking"}))


def test_default_workers_env(monkeypatch, tmp_path, capsys):
    seen = []

    def fake_sweep(table, rule, workers, **kwargs):
        seen.append(workers)
        return []

    monkeypatch.setattr(cli_report, "run_sweep", fake_sweep)
    sweep = ["sweep", "--synthetic", "--rows", "200"]
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert run(sweep) == 0
    monkeypatch.setenv(WORKERS_ENV, "")
    assert run(sweep) == 0
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert run(sweep) == 0
    assert run([*sweep, "--workers", "2"]) == 0
    assert seen == [1, 1, 3, 2]

    # bad values are refused at parse time, before the manifest is read
    # (a missing manifest would exit 2)
    absent = ["--manifest", str(tmp_path / "absent.yaml")]
    for bad in ("0", "-4", "many"):
        monkeypatch.setenv(WORKERS_ENV, bad)
        assert run(["sweep", *absent]) == 1
        assert f"got {bad!r}" in capsys.readouterr().err
        # a subcommand without --workers never reads the variable
        assert run(["guesswork", "--hmin", "17"]) == 0
    monkeypatch.delenv(WORKERS_ENV)
    assert run(["means", *absent, "--workers", "0"]) == 1
    assert run(["topk", *absent, "--k", "0"]) == 1
    assert run(["topk", *absent, "--k", "ten"]) == 1
    assert seen == [1, 1, 3, 2]
    capsys.readouterr()


# ---------------------------------------------------------------------------
# end-to-end invocations

def test_exit_codes_for_usage_errors(capsys):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["single"]) == 1  # neither --manifest nor --synthetic
    assert run(["single", "--synthetic", "--bins", "banana"]) == 1
    assert run(["sweep", "--synthetic", "--bins", "0"]) == 1
    assert run(["guesswork"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_fixed_counts_past_the_bin_limit_allocate_nothing(monkeypatch, capsys):
    linspace = np.linspace

    def small_linspace(start, stop, num=50, **kwargs):
        if num > 10 ** 6:
            raise AssertionError(f"np.linspace asked for {num} points")
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", small_linspace)
    big = "1000000000"
    assert run(["single", "--synthetic", "--rows", "200", "--bins", big]) == 1
    err = capsys.readouterr().err
    assert f"fixed count {big} is over the 50000000 bin limit" in err
    assert "usage: entroscope single " in err
    assert run(["sensitivity", "--synthetic", "--rows", "200",
                "--subset", "Acc.X", "--grid", f"4,{big}"]) == 2
    err = capsys.readouterr().err
    assert f"error: fixed count {big} is over the 50000000 bin limit" in err


def test_usage_names_the_failing_subcommand(capsys):
    assert run(["sweep", "--synthetic", "--workers", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage: entroscope sweep " in err and "--workers WORKERS" in err
    # raised by an option type
    assert run(["validate", "--synthetic", "--rows", "200", "--subset", ","]) == 1
    assert "usage: entroscope validate " in capsys.readouterr().err
    assert run(["no-such-command"]) == 1
    assert "usage: entroscope [-h] COMMAND" in capsys.readouterr().err


def test_input_source_is_given_exactly_once(tmp_path, capsys):
    # refused at parse time, before a manifest or report is read (a missing
    # one would exit 2)
    absent = str(tmp_path / "absent")
    for cmd, both, group in [
        ("single", ["--synthetic", "--manifest", absent],
         "(--manifest PATH | --synthetic)"),
        ("sweep", ["--manifest", absent, "--synthetic"],
         "(--manifest PATH | --synthetic)"),
        ("guesswork", ["--hmin", "17", "--from-report", absent],
         "(--hmin H1,H2,... | --from-report PATH)"),
    ]:
        assert run([cmd, *both]) == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert run([cmd]) == 1
        err = capsys.readouterr().err
        assert "is required" in err
        assert f"usage: entroscope {cmd} " in err and group in err


def test_rows_is_a_usage_error(capsys):
    for rows in ("0", "-5", "1"):
        assert run(["single", "--synthetic", "--rows", rows]) == 1
        err = capsys.readouterr().err
        assert f"got {rows!r}" in err and "usage: entroscope single " in err
    assert run(["single", "--synthetic", "--rows", "2"]) == 0
    capsys.readouterr()


def test_data_options_of_the_other_source_are_usage_errors(tmp_path, capsys):
    # refused before any data is read (a missing manifest would exit 2)
    absent = ["--manifest", str(tmp_path / "absent.yaml")]
    for cmd, argv, what in [
        ("single", ["--synthetic", "--rows", "300", "--data-root", str(tmp_path)],
         "--data-root applies only to --manifest"),
        ("single", [*absent, "--rows", "5", "--seed", "1"],
         "--seed and --rows apply only to --synthetic"),
        ("sweep", [*absent, "--seed", "1"],
         "--seed and --rows apply only to --synthetic"),
        ("matrix", [*absent, "--rows", "300"],
         "--seed and --rows apply only to --synthetic"),
    ]:
        assert run([cmd, *argv]) == 1
        err = capsys.readouterr().err
        assert what in err and f"usage: entroscope {cmd} " in err
    # each source's own options still apply
    assert run(["single", "--synthetic", "--rows", "300", "--seed", "3"]) == 0
    capsys.readouterr()
    assert run(["single", *absent, "--data-root", str(tmp_path)]) == 2
    assert "absent.yaml" in capsys.readouterr().err


def test_size_range_is_a_usage_error(tmp_path, capsys):
    # refused before the manifest is read (a missing manifest would exit 2)
    absent = ["--manifest", str(tmp_path / "absent.yaml")]
    for cmd in ("sweep", "topk", "means"):
        assert run([cmd, *absent, "--min-size", "1"]) == 1
        assert run([cmd, *absent, "--max-size", "1"]) == 1
        assert run([cmd, *absent, "--min-size", "4", "--max-size", "3"]) == 1
        assert f"usage: entroscope {cmd} " in capsys.readouterr().err
    # the upper bound depends on the channels, so it stays a data error
    assert run(["sweep", "--synthetic", "--rows", "300", "--max-size", "9"]) == 2
    capsys.readouterr()


def test_list_options_are_usage_errors(tmp_path, capsys):
    # refused at parse time, before any data is read (the missing manifest
    # would exit 2, and so would the synthetic table's channels or a repeated
    # channel name)
    absent = ["--manifest", str(tmp_path / "absent.yaml")]
    for cmd, argv in [
        ("validate", [*absent, "--subset", "Acc.X,Acc.Y,Acc.Z,Gyro.X"]),
        ("validate", [*absent, "--subset", "Acc.X"]),
        ("validate", [*absent, "--subset", " , "]),
        ("validate", ["--synthetic", "--rows", "500", "--subset", "Acc.X,Acc.X"]),
        ("sensitivity", [*absent, "--subset", ","]),
        ("sensitivity", [*absent, "--subset", "Acc.X,Acc.X"]),
        ("sensitivity", ["--synthetic", "--rows", "500", "--subset", "Acc.X,Acc.Y",
                         "--grid", "8,5"]),
        ("sensitivity", [*absent, "--subset", "Acc.X", "--grid", "5,5"]),
        ("sensitivity", [*absent, "--subset", "Acc.X", "--grid", "1,5"]),
        ("sensitivity", [*absent, "--subset", "Acc.X", "--grid", "5,eight"]),
        ("sensitivity", [*absent, "--subset", "Acc.X", "--grid", ""]),
        ("guesswork", ["--hmin", ","]),
        ("guesswork", ["--hmin", "17,x"]),
        ("guesswork", ["--hmin", "17", "--rates", "1,fast"]),
    ]:
        assert run([cmd, *argv]) == 1
        err = capsys.readouterr().err
        assert "expected" in err and f"usage: entroscope {cmd} " in err


def test_markdown_from_a_structured_report_matches_the_cli(tmp_path, capsys):
    # one invocation per report kind; the full-analysis script writes its
    # markdown top-10 this way instead of sweeping again
    invocations = {
        "single_sensor_table": ["single", "--synthetic", "--rows", "2000"],
        "subset_ranking": ["topk", "--synthetic", "--rows", "2000",
                           "--max-size", "3", "--k", "5"],
        "sweep_means_curve": ["means", "--synthetic", "--rows", "2000",
                              "--max-size", "3"],
        "validation_table": ["validate", "--synthetic", "--rows", "2000",
                             "--subset", "Acc.X,Acc.Y,Gyro.X"],
        "dependence_matrix": ["matrix", "--synthetic", "--rows", "2000"],
        "sensitivity_curve": ["sensitivity", "--synthetic", "--rows", "2000",
                              "--subset", "Acc.X,Gyro.X", "--grid", "4,16,64"],
        "guesswork_table": ["guesswork", "--hmin", "6.5,17,40", "--rates", "1,1e6"],
    }
    assert set(invocations) == set(cli_report.KINDS)
    md, js = tmp_path / "r.md", tmp_path / "r.json"
    for kind, argv in invocations.items():
        assert run([*argv, "--out", str(md)]) == 0
        assert run([*argv, "--format", "structured", "--out", str(js)]) == 0
        report = parse_report(js.read_bytes())
        assert report.kind == kind
        assert emit(report, "markdown") == md.read_bytes()
    capsys.readouterr()


def test_exit_code_for_data_errors(tmp_path, capsys):
    assert run(["single", "--manifest", str(tmp_path / "absent.yaml")]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\n")
    assert run(["single", "--manifest", str(bad)]) == 2
    capsys.readouterr()


def test_bytes_that_are_not_utf8_exit_2(tmp_path, capsys):
    (tmp_path / "d.csv").write_bytes(b"a,b\n1,2\n3,\xff\n")
    manifest = b"name: %s\nchannels: [A, B]\nfiles:\n  - {path: d.csv, columns: {a: A, b: B}}\n"
    (tmp_path / "m.yaml").write_bytes(manifest % b"d")
    assert run(["single", "--manifest", str(tmp_path / "m.yaml")]) == 2
    assert "d.csv is not UTF-8 text" in capsys.readouterr().err
    (tmp_path / "m.yaml").write_bytes(manifest % b"d\xff")
    assert run(["single", "--manifest", str(tmp_path / "m.yaml")]) == 2
    assert "m.yaml is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 45.8 MiB for an array"),
     "Unable to allocate 45.8 MiB for an array"),
    (MemoryError(), "out of memory"),
])
def test_out_of_memory_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch,
                                                   exc, message):
    def load_table(manifest, root):
        raise exc

    monkeypatch.setattr(cli_report, "load_table", load_table)
    (tmp_path / "m.yaml").write_text(
        "name: d\nchannels: [A]\nfiles:\n  - {path: d.csv, columns: {a: A}}\n")
    assert run(["single", "--manifest", str(tmp_path / "m.yaml")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fields, named", [
    ({"delimiter": '";;"'}, "delimiter"),
    ({"delimiter": '""'}, "delimiter"),
    ({"delimiter": "5"}, "delimiter"),
    ({"columns": "x"}, "columns"),
    ({"columns": "[ab, cd]"}, "columns"),  # once read as {a: b, c: d}
    ({"channels": "AB"}, "channels"),  # once read as (A, B)
])
def test_manifest_field_types_exit_2(tmp_path, capsys, fields, named):
    (tmp_path / "d.csv").write_text("a,b\n1,2\n3,5\n4,4\n")
    values = {"channels": "[A, B]", "columns": "{a: A, b: B}",
              "delimiter": '","', **fields}
    (tmp_path / "m.yaml").write_text(textwrap.dedent(f"""\
        name: typed
        channels: {values["channels"]}
        files:
          - path: d.csv
            columns: {values["columns"]}
            delimiter: {values["delimiter"]}
    """))
    assert run(["single", "--manifest", str(tmp_path / "m.yaml")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{named} must be" in err, err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_sensitivity_help_says_bins_is_ignored(capsys):
    assert run(["sensitivity", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--bins is ignored: the curve bins at the grid's fixed counts" in out


def test_single_synthetic_markdown(capsys):
    assert run(["single", "--synthetic", "--rows", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| Channel | Bins | H0 | H1 | H2 | Hmin |")
    assert "Acc.X" in out and "Gyro.Mag" in out
    # a 1-bin channel carries 0 bits, never shown as a negative zero
    for fmt in ("markdown", "structured"):
        assert run(["single", "--synthetic", "--rows", "300", "--bins", "1",
                    "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "0.0" in out and "-0.0" not in out, fmt


def test_ranking_gap_is_never_negative(capsys):
    # on 3 rows most pairs spread evenly over 3 cells, where the tree passes
    # can put H1 an ulp below Hmin; the gap is clamped at 0
    args = ["sweep", "--synthetic", "--rows", "3", "--max-size", "2"]
    assert run(args + ["--format", "structured"]) == 0
    rows = parse_report(capsys.readouterr().out.encode()).payload["rows"]
    assert len(rows) == 28
    gaps = [row[-1] for row in rows]
    assert min(gaps) == 0.0 and max(gaps) > 0.0
    assert run(args) == 0
    out = capsys.readouterr().out
    assert "| 0.000 |" in out and "-0.000" not in out


def test_out_file_and_structured(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run([
        "single", "--synthetic", "--rows", "2000",
        "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = parse_report(path.read_bytes())
    assert report.kind == "single_sensor_table"
    assert len(report.payload["rows"]) == 8
    assert report.metadata["version"] == __version__


def test_structured_sweep_is_byte_stable(tmp_path, capsys):
    # nothing in a report depends on when it was made
    outputs = []
    for i in range(2):
        path = tmp_path / f"sweep{i}.json"
        code = run([
            "sweep", "--synthetic", "--rows", "2000",
            "--format", "structured", "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert set(json.loads(outputs[0])["metadata"]) == {"dataset", "binning", "version"}


def test_validate_two_channels_is_exact(tmp_path, capsys):
    path = tmp_path / "val.json"
    code = run([
        "validate", "--synthetic", "--rows", "4000",
        "--subset", "Acc.X,Acc.Y",
        "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    report = parse_report(path.read_bytes())
    assert report.payload["columns"] == ["order", "direct", "chowliu", "abs_error"]
    assert [row[0] for row in report.payload["rows"]] == ["H0", "H1", "H2", "Hmin"]
    # a two-channel tree IS the joint, so every order matches
    assert report.payload["mae"] < 1e-9
    assert report.payload["n"] == 2  # arity of the validated subset


def test_validate_of_zero_entropies_has_no_relative_error(capsys):
    # one bin per channel: every order is 0 bits on both sides, so no
    # relative error is defined, and structured output writes it as null
    argv = ["validate", "--synthetic", "--rows", "500", "--bins", "1",
            "--subset", "Acc.X,Gyro.X", "--format"]
    assert run([*argv, "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"] == {
        "columns": ["order", "direct", "chowliu", "abs_error"],
        "mae": 0.0,
        "n": 2,
        "rel_error_pct": None,
        "rows": [[order, 0.0, 0.0, 0.0] for order in ("H0", "H1", "H2", "Hmin")],
        "subset": "Acc.X+Gyro.X",
    }
    assert run([*argv, "markdown"]) == 0
    assert capsys.readouterr().out == textwrap.dedent(f"""\
        | Order | Direct | Chow-Liu | |Error| |
        | --- | --- | --- | --- |
        | H0 | 0.000 | 0.000 | 0.000 |
        | H1 | 0.000 | 0.000 | 0.000 |
        | H2 | 0.000 | 0.000 | 0.000 |
        | Hmin | 0.000 | 0.000 | 0.000 |

        *dataset: synthetic-7, bins: 1, entroscope {__version__}*
        """)


def test_matrix_maps_nan_to_null(tmp_path, capsys):
    (tmp_path / "d.csv").write_text("v,c\n1,5\n2,5\n3,5\n4,5\n")
    (tmp_path / "m.yaml").write_text(textwrap.dedent("""\
        name: flat
        channels: [V, C]
        files:
          - path: d.csv
            columns: {v: V, c: C}
    """))
    path = tmp_path / "matrix.json"
    code = run([
        "matrix", "--manifest", str(tmp_path / "m.yaml"),
        "--kind", "pearson", "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(path.read_bytes())
    payload = doc["payload"]
    assert payload["columns"] == ["channel", "V", "C"]
    assert payload["rows"][0] == ["V", 1.0, None]
    assert payload["rows"][1] == ["C", None, 1.0]
    assert payload["missing"] == [
        {"a": "V", "b": "C", "reason": "undefined correlation"}
    ]


@pytest.mark.parametrize("command, message", [
    (["validate", "--subset", "A,C"], "channel 'C': degenerate spread; use fixed_count"),
    (["sensitivity", "--subset", "A,C"],
     "channel 'C': constant channel supports only fixed_count(1)"),
])
def test_binning_errors_name_the_constant_channel(tmp_path, capsys, command, message):
    rows = [f"{i % 7},{i % 5},5" for i in range(50)]
    (tmp_path / "d.csv").write_text("a,b,c\n" + "\n".join(rows) + "\n")
    (tmp_path / "m.yaml").write_text(textwrap.dedent("""\
        name: flat
        channels: [A, B, C]
        files:
          - path: d.csv
            columns: {a: A, b: B, c: C}
    """))
    assert run([*command, "--manifest", str(tmp_path / "m.yaml")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.fixture
def flat_manifest(tmp_path):
    """Two channels "fd" bins and a constant one, C, that it cannot."""
    rows = [f"{i % 7},{i % 5},5" for i in range(50)]
    (tmp_path / "d.csv").write_text("a,b,c\n" + "\n".join(rows) + "\n")
    (tmp_path / "m.yaml").write_text(textwrap.dedent("""\
        name: flat
        channels: [A, B, C]
        files:
          - path: d.csv
            columns: {a: A, b: B, c: C}
    """))
    return str(tmp_path / "m.yaml")


@pytest.mark.parametrize("command", [["single"], ["matrix", "--kind", "mi"]])
def test_unbinned_channel_warning_names_it_once(flat_manifest, capsys, command):
    assert run([*command, "--manifest", flat_manifest]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: channel 'C': degenerate spread; use fixed_count\n"
    if command == ["single"]:
        assert "| C |  |  |  |  |  |" in out


def test_means_report_carries_the_error_ledger(flat_manifest, tmp_path, capsys):
    path = tmp_path / "means.json"
    code = run(["means", "--manifest", flat_manifest, "--format", "structured",
                "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    payload = parse_report(path.read_bytes()).payload
    # only A+B fitted: size 3 has no subset left to average
    assert [row[:2] for row in payload["rows"]] == [[2, 1]]
    reason = "not binned: channel 'C': degenerate spread; use fixed_count"
    assert payload["errors"] == [
        {"subset": subset, "error": reason} for subset in ("A+C", "B+C", "A+B+C")
    ]
    # a sweep with no failure has no ledger
    assert run(["means", "--manifest", flat_manifest, "--format", "structured",
                "--out", str(path), "--bins", "1"]) == 0
    capsys.readouterr()
    assert "errors" not in parse_report(path.read_bytes()).payload


@pytest.mark.parametrize("kind, bins, binning", [
    ("pearson", [], "n/a"), ("mi", ["--bins", "7"], "7"), ("mi", [], "fd"),
], ids=["pearson-n/a", "mi-7", "mi-fd"])
def test_matrix_records_the_binning_it_used(tmp_path, capsys, kind, bins, binning):
    # a Pearson matrix bins nothing, so no rule describes it
    path = tmp_path / "matrix.json"
    code = run([
        "matrix", "--synthetic", "--rows", "2000", "--kind", kind, *bins,
        "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    assert parse_report(path.read_bytes()).metadata["binning"] == binning


@pytest.mark.parametrize("rule", ["fd", "scott", "7"])
def test_pearson_matrix_refuses_bins(tmp_path, capsys, rule):
    # --bins would change nothing in a Pearson matrix, so it is refused
    path = tmp_path / "matrix.json"
    code = run(["matrix", "--synthetic", "--rows", "2000", "--kind", "pearson",
                "--bins", rule, "--format", "structured", "--out", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--bins does not apply to --kind pearson" in err
    assert "usage: entroscope matrix" in err
    assert not path.exists()


def test_topk_ranks_by_hmin(tmp_path, capsys):
    path = tmp_path / "topk.json"
    code = run([
        "topk", "--synthetic", "--rows", "2000", "--max-size", "2",
        "--k", "5", "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    report = parse_report(path.read_bytes())
    rows = report.payload["rows"]
    assert len(rows) == 5
    hmins = [row[5] for row in rows]
    assert hmins == sorted(hmins, reverse=True)
    assert all(row[1] == 2 for row in rows)


def test_means_curve(tmp_path, capsys):
    path = tmp_path / "means.json"
    code = run([
        "means", "--synthetic", "--rows", "2000", "--max-size", "3",
        "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    report = parse_report(path.read_bytes())
    sizes = [row[0] for row in report.payload["rows"]]
    counts = [row[1] for row in report.payload["rows"]]
    assert sizes == [2, 3]
    assert counts == [28, 56]  # C(8,2), C(8,3)


def test_sensitivity_grid(tmp_path, capsys):
    path = tmp_path / "sens.json"
    code = run([
        "sensitivity", "--synthetic", "--rows", "3000",
        "--subset", "Acc.X", "--grid", "4,16,64",
        "--format", "structured", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    report = parse_report(path.read_bytes())
    rows = report.payload["rows"]
    assert [row[0] for row in rows] == [4, 16, 64]
    for row in rows:
        assert row[1] <= math.log2(row[0]) + 1e-9  # h0 bounded by bin count
    assert report.payload["fd_marker"] > 0
    assert report.payload["scott_marker"] > 0


def test_guesswork_manual_values(capsys):
    assert run(["guesswork", "--hmin", "17", "--rates", "1,1000"]) == 0
    out = capsys.readouterr().out
    assert "E[guesses]" in out
    assert "65,536" in out  # 2^16 expected guesses at hmin 17
    assert format_duration(time_to_success(17.0, 1.0)) in out
    assert format_duration(time_to_success(17.0, 1000.0)) in out
    # out of range: an error, not a traceback
    for args in (["--hmin", "2000"],
                 ["--hmin", "10", "--rates", "inf", "--format", "structured"]):
        assert run(["guesswork", *args]) == 2
        assert capsys.readouterr().err.startswith("error: "), args


def test_guesswork_overflow_is_named(capsys):
    # hmin and rate are each accepted; their time past float64 is the error
    assert run(["guesswork", "--hmin", "1024", "--rates", "0.5"]) == 2
    assert capsys.readouterr().err == ("error: time to success at hmin 1024.0 "
                                       "and 0.5 guesses per second overflows "
                                       "float64\n")
    assert run(["guesswork", "--hmin", "100", "--rates", "1"]) == 0
    assert "7.34e24 d" in capsys.readouterr().out


def test_guesswork_from_report(tmp_path, capsys):
    source = tmp_path / "ranking.json"
    source.write_bytes(emit(RANKING, "structured"))
    out_path = tmp_path / "gw.json"
    code = run([
        "guesswork", "--from-report", str(source), "--rates", "1",
        "--format", "structured", "--out", str(out_path),
    ])
    assert code == 0
    capsys.readouterr()
    report = parse_report(out_path.read_bytes())
    assert report.kind == "guesswork_table"
    assert report.payload["columns"] == ["hmin", "expected_guesses", "q1"]
    row = report.payload["rows"][0]
    assert row[0] == 6.5
    assert row[1] == format_guess_count(expected_guesses(6.5))
    assert report.metadata["dataset"] == "toy"


def _set_hmin(doc, value):
    doc["payload"]["rows"][0][5] = value


@pytest.mark.parametrize("breakage, message", [
    (lambda doc: doc.pop("kind"), "kind"),
    (lambda doc: doc.pop("payload"), "payload"),
    (lambda doc: doc.update(payload="columns, rows"), "payload"),
    (lambda doc: doc["payload"]["columns"].__setitem__(5, "h_min"), "'hmin' is not"),
    (lambda doc: _set_hmin(doc, None), "NoneType"),
    (lambda doc: doc.update(metadata=["dataset", "toy"]), "metadata"),
])
def test_guesswork_rejects_malformed_reports(tmp_path, capsys, breakage, message):
    doc = json.loads(emit(RANKING, "structured"))
    breakage(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert run(["guesswork", "--from-report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_guesswork_rejects_wrong_report_kind(tmp_path, capsys):
    wrong = Report(
        "guesswork_table",
        {"columns": ["hmin"], "rows": [[4.0]]},
        {"timestamp": "t", "version": __version__},
    )
    path = tmp_path / "wrong.json"
    path.write_bytes(emit(wrong, "structured"))
    assert run(["guesswork", "--from-report", str(path)]) == 2
    assert "subset_ranking" in capsys.readouterr().err
