import csv
import dataclasses
import math
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entroscope import cli_report, ingest
from entroscope.errors import DataError, ManifestError
from entroscope.ingest import (
    DatasetManifest,
    FileSpec,
    MagnitudeSpec,
    SampleTable,
    load_manifest,
    load_table,
)


def write(path, text):
    path.write_text(textwrap.dedent(text))


@pytest.fixture
def simple_dataset(tmp_path):
    write(tmp_path / "a.csv", """\
        t,ax,ay,az
        0,3,4,0
        1,1,,2
        2,bad,1,1
    """)
    write(tmp_path / "m.yaml", """\
        name: toy
        channels: [Acc.X, Acc.Y, Acc.Z]
        files:
          - path: a.csv
            columns: {ax: Acc.X, ay: Acc.Y, az: Acc.Z}
        magnitudes:
          - {x: Acc.X, y: Acc.Y, z: Acc.Z, name: Acc.Mag}
    """)
    return tmp_path


def test_load_manifest_fields(simple_dataset):
    m = load_manifest(simple_dataset / "m.yaml")
    assert m.name == "toy"
    assert m.channels == ("Acc.X", "Acc.Y", "Acc.Z")
    assert m.files[0].columns == {"ax": "Acc.X", "ay": "Acc.Y", "az": "Acc.Z"}
    assert m.magnitude_specs[0].name == "Acc.Mag"


def test_load_table_strict_rejects_text(simple_dataset):
    m = load_manifest(simple_dataset / "m.yaml")
    with pytest.raises(DataError, match=r"a\.csv:4"):
        load_table(m, simple_dataset)


def test_load_table_appends_manifest_magnitudes(tmp_path):
    write(tmp_path / "a.csv", """\
        ax,ay,az
        3,4,0
        1,,2
    """)
    write(tmp_path / "m.yaml", """\
        name: toy
        channels: [Acc.X, Acc.Y, Acc.Z]
        files:
          - path: a.csv
            columns: {ax: Acc.X, ay: Acc.Y, az: Acc.Z}
        magnitudes:
          - {x: Acc.X, y: Acc.Y, z: Acc.Z, name: Acc.Mag}
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    assert table.channels == ("Acc.X", "Acc.Y", "Acc.Z", "Acc.Mag")
    assert table.column("Acc.Mag")[0] == 5.0  # 3-4-0 triangle
    # a missing component poisons the magnitude
    assert math.isnan(table.column("Acc.Y")[1])
    assert math.isnan(table.column("Acc.Mag")[1])


def test_empty_cell_is_missing_even_strict(tmp_path):
    write(tmp_path / "d.csv", "x\n1\n\n3\n")
    write(tmp_path / "m.yaml", """\
        name: gaps
        channels: [X]
        files:
          - path: d.csv
            columns: {x: X}
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    col = table.column("X")
    assert col[0] == 1.0 and col[2] == 3.0
    assert math.isnan(col[1])


def test_multiple_files_pool_in_order(tmp_path):
    write(tmp_path / "one.csv", "v\n1\n2\n")
    write(tmp_path / "two.csv", "w\n3\n")
    write(tmp_path / "m.yaml", """\
        name: pooled
        channels: [V]
        files:
          - path: one.csv
            columns: {v: V}
          - path: two.csv
            columns: {w: V}
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    assert table.column("V").tolist() == [1.0, 2.0, 3.0]
    assert table.source == "pooled"


def test_unmapped_channel_stays_missing(tmp_path):
    write(tmp_path / "one.csv", "v\n1\n")
    write(tmp_path / "m.yaml", """\
        name: partial
        channels: [V, W]
        files:
          - path: one.csv
            columns: {v: V}
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    assert math.isnan(table.column("W")[0])


def test_missing_file_and_column_errors(tmp_path):
    write(tmp_path / "m.yaml", """\
        name: broken
        channels: [V]
        files:
          - path: nowhere.csv
            columns: {v: V}
    """)
    with pytest.raises(DataError, match="missing file"):
        load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)

    write(tmp_path / "here.csv", "other\n1\n")
    write(tmp_path / "m2.yaml", """\
        name: broken2
        channels: [V]
        files:
          - path: here.csv
            columns: {v: V}
    """)
    with pytest.raises(DataError, match="column 'v' not found"):
        load_table(load_manifest(tmp_path / "m2.yaml"), tmp_path)


def test_manifest_validation_errors(tmp_path):
    with pytest.raises(ManifestError):
        DatasetManifest("x", (), ("A", "A"))
    with pytest.raises(ManifestError):
        DatasetManifest(
            "x", (), ("A",),
            magnitude_specs=(MagnitudeSpec("A", "A", "B", "M"),),
        )
    with pytest.raises(ManifestError):
        DatasetManifest(
            "x",
            (FileSpec("f.csv", {"c": "Nope"}),),
            ("A",),
        )
    write(tmp_path / "bad.yaml", "just a string")
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "bad.yaml")
    write(tmp_path / "nofields.yaml", "name: x\n")
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "nofields.yaml")


def test_manifest_rejects_two_columns_on_one_channel(tmp_path):
    # loading would keep one of the two columns and silently drop the other
    write(tmp_path / "a.csv", "ax,ax2,ay\n1,2,3\n4,5,6\n")
    write(tmp_path / "m.yaml", """\
        name: twice
        channels: [Acc.X, Acc.Y]
        files:
          - path: a.csv
            columns: {ax: Acc.X, ax2: Acc.X, ay: Acc.Y}
    """)
    with pytest.raises(ManifestError,
                       match="file 'a.csv' maps two columns onto channel 'Acc.X'"):
        load_manifest(tmp_path / "m.yaml")
    # two files may each map a column onto the same channel: rows pool
    DatasetManifest("x", (FileSpec("a.csv", {"ax": "A"}),
                          FileSpec("b.csv", {"bx": "A"})), ("A",))


def test_empty_manifest_rejected(tmp_path):
    write(tmp_path / "m.yaml", """\
        name: hollow
        channels: [V]
        files: []
    """)
    with pytest.raises(ManifestError, match="empty"):
        load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)


def test_loaded_table_is_one_column_major_array(simple_dataset):
    write(simple_dataset / "a.csv", "ax,ay,az\n3,4,0\n1,,2\n")
    table = load_table(load_manifest(simple_dataset / "m.yaml"), simple_dataset)
    assert table.rows.flags.f_contiguous
    for name in table.channels:
        col = table.column(name)
        assert col.flags.c_contiguous
        assert np.shares_memory(col, table.rows)


def test_two_files_and_two_magnitudes_match_the_formula(tmp_path):
    rng = np.random.default_rng(4)
    values = rng.normal(size=(7, 6)) * 10.0 ** rng.integers(-3, 4, size=(7, 6))
    values[rng.random(values.shape) < 0.2] = np.nan
    write(tmp_path / "one.csv", "a,b,c,d,e,f\n" + "".join(
        ",".join("" if np.isnan(v) else repr(float(v)) for v in row) + "\n"
        for row in values[:4]))
    # the second file maps no "d": those rows miss it, and the magnitude of it
    write(tmp_path / "two.csv", "f,e,c,b,a\n" + "".join(
        ",".join("" if np.isnan(v) else repr(float(v)) for v in row[[5, 4, 2, 1, 0]])
        + "\n" for row in values[4:]))
    write(tmp_path / "m.yaml", """\
        name: pooled
        channels: [A, B, C, D, E, F]
        files:
          - path: one.csv
            columns: {a: A, b: B, c: C, d: D, e: E, f: F}
          - path: two.csv
            columns: {a: A, b: B, c: C, e: E, f: F}
        magnitudes:
          - {x: A, y: B, z: C, name: ABC}
          - {x: F, y: D, z: E, name: FDE}
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    values[4:, 3] = np.nan
    assert table.channels == ("A", "B", "C", "D", "E", "F", "ABC", "FDE")
    want = np.column_stack([
        values,
        np.sqrt(values[:, 0] ** 2 + values[:, 1] ** 2 + values[:, 2] ** 2),
        np.sqrt(values[:, 5] ** 2 + values[:, 3] ** 2 + values[:, 4] ** 2),
    ])
    assert table.rows.tobytes() == want.tobytes()
    assert np.isnan(table.column("FDE")[4:]).all()


def test_header_only_file_gives_zero_rows(simple_dataset):
    write(simple_dataset / "a.csv", "t,ax,ay,az\n")
    table = load_table(load_manifest(simple_dataset / "m.yaml"), simple_dataset)
    assert table.channels == ("Acc.X", "Acc.Y", "Acc.Z", "Acc.Mag")
    assert table.rows.shape == (0, 4)


@pytest.mark.parametrize("name", ["Acc.Y", "Acc.Mag"])
def test_magnitude_name_already_taken(tmp_path, name):
    write(tmp_path / "m.yaml", f"""\
        name: taken
        channels: [Acc.X, Acc.Y, Acc.Z]
        files:
          - path: a.csv
            columns: {{ax: Acc.X}}
        magnitudes:
          - {{x: Acc.X, y: Acc.Y, z: Acc.Z, name: Acc.Mag}}
          - {{x: Acc.Z, y: Acc.Y, z: Acc.X, name: {name}}}
    """)
    with pytest.raises(ManifestError,
                       match=f"magnitude name {name!r} is already taken"):
        load_manifest(tmp_path / "m.yaml")


def test_sample_table_shape_validation():
    with pytest.raises(DataError):
        SampleTable(("A", "B"), np.ones((4, 3)), "t")
    with pytest.raises(DataError):
        SampleTable(("A",), np.ones(4), "t")


def test_delimiter_option(tmp_path):
    write(tmp_path / "d.tsv", "a;b\n1;2\n")
    write(tmp_path / "m.yaml", """\
        name: semi
        channels: [A, B]
        files:
          - path: d.tsv
            columns: {a: A, b: B}
            delimiter: ";"
    """)
    table = load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    assert table.column("A")[0] == 1.0
    assert table.column("B")[0] == 2.0


def test_manifest_rejects_drop_value_policy(tmp_path):
    # accepted once, but nothing ever acted on it
    write(tmp_path / "m.yaml", """\
        name: dropper
        channels: [V]
        files:
          - path: one.csv
            columns: {v: V}
        missing_policy: drop-value
    """)
    with pytest.raises(ManifestError, match="unknown missing policy 'drop-value'"):
        load_manifest(tmp_path / "m.yaml")


def reference_rows(path, columns, channels, delimiter):
    """The per-cell loader as it was before the np.loadtxt pass."""
    def parse_cell(cell, where):
        cell = cell.strip()
        if not cell:
            return math.nan
        try:
            return float(cell)
        except ValueError:
            raise DataError(f"non-numeric cell {cell!r} at {where}") from None

    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = [h.strip() for h in next(reader)]
        positions = [(header.index(src), channels.index(ch))
                     for src, ch in columns.items()]
        raw_rows = list(reader)
    block = np.full((len(raw_rows), len(channels)), np.nan)
    for r, row in enumerate(raw_rows):
        for src_i, ch_i in positions:
            if src_i < len(row):
                block[r, ch_i] = parse_cell(row[src_i], f"{path}:{r + 2}")
    return block


NUMBERS = st.one_of(
    st.sampled_from(["", "", "0", "1", "-2.5", "1e3", ".5", "5.", "inf", "-inf",
                     "nan", "NaN", "1e400"]),
    st.floats(allow_nan=False).map(repr),
)
ODD_CELLS = st.sampled_from([
    " ", "\t", " 3 ", "1_0", "abc", "1 2", "--1", "0x10", "١٢",
    '"4"', '"5,6"', '""', '"a"', "\r", '"7\n8"', '"9\r\n"',
])


@st.composite
def csv_files(draw):
    """(text, delimiter, source->channel map, channels) of a headed CSV."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t"]))
    width = draw(st.integers(1, 4))
    cells = st.one_of(NUMBERS, ODD_CELLS) if draw(st.booleans()) else NUMBERS
    rows = draw(st.lists(
        st.lists(cells, min_size=0, max_size=width + 2), max_size=8))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = [delimiter.join(f"c{i}" for i in range(width))]
    lines += [delimiter.join(row) for row in rows]
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    mapped = draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True))
    columns = {f"c{i}": f"V{k}" for k, i in enumerate(mapped)}
    channels = tuple(f"V{k}" for k in range(len(mapped) + 1))  # one unmapped
    return text, delimiter, columns, channels


def outcome(load):
    try:
        return "rows", load().tobytes()
    except DataError as exc:
        return "error", str(exc)


def check_against_reference(root, case):
    text, delimiter, columns, channels = case
    (root / "d.csv").write_text(text, newline="")
    manifest = DatasetManifest(
        "prop", (FileSpec("d.csv", columns, delimiter),), channels)
    got = outcome(lambda: load_table(manifest, root).rows)
    want = outcome(lambda: reference_rows(
        root / "d.csv", columns, channels, delimiter))
    assert got == want


@given(csv_files())
@example(("x,y\n1,\n,2\n\n3,4", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@example(("x,y\n1,2\n3,oops\n", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@settings(max_examples=300, deadline=None)
def test_load_table_matches_per_cell_reference(tmp_path_factory, case):
    check_against_reference(tmp_path_factory.mktemp("csv"), case)


@pytest.mark.parametrize("block_bytes", [1, 5])
@given(csv_files())
@example(("x,y\n1,\n,2\n\n3,4", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@example(("x,y\n1,2\n3,oops\n", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@settings(max_examples=300, deadline=None)
def test_load_table_matches_reference_in_tiny_blocks(tmp_path_factory, block_bytes, case):
    # at these sizes most files span many blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        check_against_reference(tmp_path_factory.mktemp("csv"), case)


def load_one(root, text, columns, channels, delimiter=","):
    (root / "d.csv").write_bytes(text.encode() if isinstance(text, str) else text)
    manifest = DatasetManifest(
        "blocks", (FileSpec("d.csv", columns, delimiter),), channels)
    return load_table(manifest, root).rows


XY = ({"x": "X", "y": "Y"}, ("X", "Y"))


@pytest.mark.parametrize("block_bytes", [1, 4, 5, 8, 1 << 20])
@pytest.mark.parametrize("text, want", [
    # "1,2\n" fills the first block of 4 bytes: the next starts with an empty
    # cell, and "4," ends one
    ("x,y\n1,2\n,3\n4,\n", [[1, 2], [math.nan, 3], [4, math.nan]]),
    # blank lines at the start, the middle and the end of blocks
    ("x,y\n1,2\n\n3,4\n\n\n5,6\n\n", [[1, 2], [math.nan] * 2, [3, 4],
                                      [math.nan] * 2, [math.nan] * 2, [5, 6],
                                      [math.nan] * 2]),
    # the last line has no newline, alone in the last block
    ("x,y\n1,2\n3,", [[1, 2], [3, math.nan]]),
    ("x,y\n1,2\n,", [[1, 2], [math.nan, math.nan]]),
    ("x,y\n1,2\n\n", [[1, 2], [math.nan, math.nan]]),
])
def test_block_boundaries(tmp_path, monkeypatch, block_bytes, text, want):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    got = load_one(tmp_path, text, *XY)
    np.testing.assert_array_equal(got, np.array(want, dtype=float))


@pytest.mark.parametrize("block_bytes", [1, 4, 1 << 20])
def test_bad_cell_in_last_block_names_its_line(tmp_path, monkeypatch, block_bytes):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    with pytest.raises(DataError, match=r"non-numeric cell 'oops' at .*d\.csv:5$"):
        load_one(tmp_path, "x,y\n1,2\n3,4\n\n5,oops\n", *XY)


@pytest.mark.parametrize("block_bytes", [1, 6, 1 << 20])
def test_non_ascii_unmapped_column_gives_the_same_table(tmp_path, monkeypatch,
                                                        block_bytes):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    columns = {"x": "X", "y": "Y"}, ("X", "Y", "Z")
    lines = ["1,cafe,2", "3,,", ",tea,4", "", "5,x,6"]
    plain = load_one(tmp_path, "x,what,y\n" + "\n".join(lines), *columns)
    lines[0] = "1,café,2"
    accented = load_one(tmp_path, "x,what,y\n" + "\n".join(lines), *columns)
    assert accented.tobytes() == plain.tobytes()
    assert accented.tobytes() == reference_rows(
        tmp_path / "d.csv", *columns, ",").tobytes()


@pytest.mark.parametrize("block_bytes", [1, 4, 1 << 20])
def test_plain_blocks_never_take_the_per_cell_path(tmp_path, monkeypatch, block_bytes):
    def per_cell(*args):
        raise AssertionError("per-cell parse of a plain block")

    monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(ingest, "_parse_rows", per_cell)
    # a non-ASCII header does not keep the body from the byte path
    got = load_one(tmp_path, "x,y,z (m/s²)\n\n1,,3\n,2,\n\n\n4,5,6\n,", *XY)
    want = [[math.nan] * 2, [1, math.nan], [math.nan, 2], [math.nan] * 2,
            [math.nan] * 2, [4, 5], [math.nan] * 2]
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("body", ["1,2\n,3\n4,\n", "1,2\n\"3\",4\n"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, body, newline):
    # CRLF and quoted bodies take the per-cell path, the rest the byte path
    text = "x,y\n" + body
    plain = load_one(tmp_path, text.replace("\n", newline), *XY)
    marked = load_one(tmp_path, b"\xef\xbb\xbf" + text.replace("\n", newline).encode(),
                      *XY)
    assert marked.tobytes() == plain.tobytes()
    # a mark anywhere else is part of the text
    with pytest.raises(DataError, match="column 'x' not found"):
        load_one(tmp_path, "\ufeff\ufeff" + text, *XY)


def test_mapped_column_twice_in_the_header_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match=r"column 'x' appears more than once in .*d\.csv"):
        load_one(tmp_path, "x,x,y\n1,2,3\n", *XY)
    # a repeated column that no channel reads is accepted
    got = load_one(tmp_path, "x,z,y,z\n1,5,2,6\n", *XY)
    np.testing.assert_array_equal(got, [[1, 2]])


def test_csv_that_is_not_utf8_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match=r"d\.csv is not UTF-8 text: .* at byte 8"):
        load_one(tmp_path, b"x,y\n1,2\n\xff,3\n", *XY)
    with pytest.raises(DataError, match=r"d\.csv is not UTF-8 text: .* at byte 2"):
        load_one(tmp_path, b"x,\xff\n1,2\n", *XY)
    # in a column no channel reads, too
    with pytest.raises(DataError, match=r"d\.csv is not UTF-8 text"):
        load_one(tmp_path, b"x,y,z\n1,2,\xff\n", *XY)


@pytest.mark.parametrize("text, at", [
    ('x\n"' + "9" * 200_000 + '"\n', 2),  # in the count pass
    ('"' + "x" * 200_000 + '"\n1\n', 0),  # in the header
    # in a column no channel reads, whichever line ends the file has
    ("x,y\n1," + "9" * 200_000 + "\n2,3\n", 4),
    ("x,y\r\n1," + "9" * 200_000 + "\r\n2,3\r\n", 5),
], ids=["body", "header", "unmapped-lf", "unmapped-crlf"])
def test_cell_past_the_csv_field_limit_is_a_data_error(tmp_path, capsys, text, at):
    write(tmp_path / "d.csv", text)
    write(tmp_path / "m.yaml", """\
        name: d
        channels: [X]
        files:
          - {path: d.csv, columns: {x: X}}
    """)
    message = (f"{tmp_path / 'd.csv'}: field larger than field limit (131072) "
               f"in the line at byte {at}")
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_table(load_manifest(tmp_path / "m.yaml"), tmp_path)
    assert cli_report.run(["single", "--manifest", str(tmp_path / "m.yaml")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_manifest_that_is_not_utf8_is_a_manifest_error(tmp_path):
    (tmp_path / "m.yaml").write_bytes(
        b"name: d\xff\nchannels: [V]\nfiles:\n  - {path: a.csv, columns: {v: V}}\n")
    with pytest.raises(ManifestError, match=r"m\.yaml is not UTF-8 text"):
        load_manifest(tmp_path / "m.yaml")


@pytest.mark.parametrize("text, key, line", [
    ("""\
        name: twice
        channels: [X, Y]
        files:
          - path: a.csv
            columns: {ax: X, ax: Y}
    """, "ax", 5),
    ("""\
        name: first
        channels: [X]
        name: second
        files:
          - path: a.csv
            columns: {ax: X}
    """, "name", 3),
    ("""\
        name: twice
        channels: [X]
        files:
          - path: a.csv
            columns: {ax: X}
        channels: [Y]
    """, "channels", 6),
])
def test_manifest_rejects_repeated_keys(tmp_path, text, key, line):
    write(tmp_path / "m.yaml", text)
    with pytest.raises(ManifestError, match=f"duplicate key '{key}' at line {line}"):
        load_manifest(tmp_path / "m.yaml")


def test_manifest_merge_key_may_be_overridden(tmp_path):
    write(tmp_path / "m.yaml", """\
        shared: &csv {path: a.csv, delimiter: ";"}
        name: merged
        channels: [X]
        files:
          - <<: *csv
            delimiter: ","
            columns: {ax: X}
    """)
    assert load_manifest(tmp_path / "m.yaml").files[0].delimiter == ","


def gappy_values():
    """60,000 x 4 normal values, about 5 % missing, and their cells as text."""
    rng = np.random.default_rng(5)
    values = rng.normal(size=(60_000, 4))
    values[rng.random(values.shape) < 0.05] = np.nan
    cells = values.astype(str)
    cells[np.isnan(values)] = ""
    return values, cells


def load_traced(manifest, root):
    """The loaded table and the tracemalloc peak of its load."""
    tracemalloc.start()
    try:
        table = load_table(manifest, root)
        return table, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ABCD = {"a": "A", "b": "B", "c": "C", "d": "D"}


@pytest.mark.parametrize("files", [1, 2])
def test_byte_path_load_holds_the_table_and_a_few_blocks(tmp_path, monkeypatch, files):
    # the files' text is more than twice the table, and no file is held whole
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64 << 10)
    values, cells = gappy_values()
    specs = []
    for i, part in enumerate(np.array_split(cells, files)):
        write(tmp_path / f"d{i}.csv", "a,b,c,d\n" + "".join(
            ",".join(row) + "\n" for row in part.tolist()))
        specs.append(FileSpec(f"d{i}.csv", ABCD))
    manifest = DatasetManifest("blocks", tuple(specs), ("A", "B", "C", "D"))
    table, peak = load_traced(manifest, tmp_path)
    assert table.rows.tobytes(order="F") == values.tobytes(order="F")
    assert peak <= table.rows.nbytes + 8 * ingest._BLOCK_BYTES


@pytest.mark.parametrize("form", ["crlf", "cr", "tab", "quoted"])
def test_per_cell_load_holds_the_table_and_a_few_blocks(tmp_path, monkeypatch, form):
    # carriage returns, a whitespace delimiter and a quote each keep the
    # body from the np.loadtxt pass; it is still read a block at a time
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64 << 10)
    values, cells = gappy_values()
    delimiter, newline = {"crlf": (",", "\r\n"), "cr": (",", "\r"),
                          "tab": ("\t", "\n"), "quoted": (",", "\n")}[form]
    rows = [list("abcd"), *cells.tolist()]
    if form == "quoted":
        for row in rows:
            row[0] = f'"{row[0]}"'
    (tmp_path / "d.csv").write_bytes(
        "".join(delimiter.join(row) + newline for row in rows).encode())
    manifest = DatasetManifest("cells", (FileSpec("d.csv", ABCD, delimiter),),
                               ("A", "B", "C", "D"))
    table, peak = load_traced(manifest, tmp_path)
    assert table.rows.tobytes(order="F") == values.tobytes(order="F")
    assert peak <= table.rows.nbytes + 16 * ingest._BLOCK_BYTES


def test_blocks_before_the_first_quote_take_the_byte_path(tmp_path, monkeypatch):
    loadtxt, parsed = np.loadtxt, []

    def spy(*args, **kwargs):
        rows = loadtxt(*args, **kwargs)
        parsed.append(len(rows))
        return rows

    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4 << 10)
    monkeypatch.setattr(ingest.np, "loadtxt", spy)
    text = "x,y\n" + "".join(f"{i},{i / 8}\n" for i in range(5000)) + '"7",8\n'
    got = load_one(tmp_path, text, *XY)
    assert got.tobytes() == reference_rows(tmp_path / "d.csv", *XY, ",").tobytes()
    blocks = [block for _, block in ingest._blocks(tmp_path / "d.csv", len("x,y\n"))]
    assert len(blocks) > 2 and [b'"' in block for block in blocks][-2:] == [False, True]
    assert parsed == [ingest._records(block) for block in blocks[:-1]]


@pytest.mark.parametrize("text, delimiter", [
    ("x,y\r1,2\r\r3,4", ","),  # "\r" line ends, a blank line, no last one
    ("x,y\r\n1,2\r\n\r\n3,\r\n", ","),
    ("x,y\n1,2\r3,\r\n\n,4\r", ","),  # all three line ends
    ("x\ty\n1\t2\n\n\t4", "\t"),  # a whitespace delimiter
])
def test_quote_free_per_cell_rows_are_its_lines(tmp_path, text, delimiter):
    got = load_one(tmp_path, text, *XY, delimiter=delimiter)
    want = reference_rows(tmp_path / "d.csv", *XY, delimiter)
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def big_dataset(tmp_path):
    """40,000 rows of three channels and a magnitude: 1.2 MiB of float64,
    in a file for the byte path and a quoted one for the per-cell path."""
    write(tmp_path / "plain.csv", "x,y,z\n" + "1,2,3\n" * 30_000)
    write(tmp_path / "quoted.csv", "x,y,z\n" + '"4",5,6\n' * 10_000)
    write(tmp_path / "m.yaml", """\
        name: big
        channels: [X, Y, Z]
        files:
          - {path: plain.csv, columns: {x: X, y: Y, z: Z}}
          - {path: quoted.csv, columns: {x: X, y: Y, z: Z}}
        magnitudes:
          - {x: X, y: Y, z: Z, name: M}
    """)
    return tmp_path


def test_table_past_the_memory_budget_is_refused_before_any_cell_is_parsed(
        big_dataset, monkeypatch, capsys):
    def parse(*args, **kwargs):
        raise AssertionError("a cell was parsed")

    monkeypatch.setattr(ingest, "_memory_budget", lambda: 1 << 20)
    monkeypatch.setattr(ingest, "_parse_rows", parse)
    monkeypatch.setattr(ingest.np, "loadtxt", parse)
    refusal = ("a table of 40000 rows x 4 columns needs 1.2 MiB, "
               "more than the 1.0 MiB this process may use")
    with pytest.raises(DataError, match=f"^{re.escape(refusal)}$"):
        load_table(load_manifest(big_dataset / "m.yaml"), big_dataset)
    assert cli_report.run(["single", "--manifest", str(big_dataset / "m.yaml")]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"


def test_table_the_size_of_the_memory_budget_loads(big_dataset, monkeypatch):
    monkeypatch.setattr(ingest, "_memory_budget", lambda: 40_000 * 4 * 8)
    table = load_table(load_manifest(big_dataset / "m.yaml"), big_dataset)
    assert table.rows.shape == (40_000, 4)
    assert table.rows[-1].tolist() == [4, 5, 6, math.sqrt(77)]


def test_memory_budget_is_what_the_address_space_limit_leaves(monkeypatch):
    resource = ingest.resource
    page = ingest.os.sysconf("SC_PAGE_SIZE")
    monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
    assert ingest._memory_budget() == page * ingest.os.sysconf("SC_PHYS_PAGES")
    with open("/proc/self/statm") as fh:
        used = int(fh.read().split()[0]) * page
    limit = used + (1 << 30)
    monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
    # the address space moves a little between the two reads
    assert abs(ingest._memory_budget() - (1 << 30)) < 64 << 20
    monkeypatch.setattr(resource, "getrlimit", lambda which: (used // 2, used // 2))
    assert ingest._memory_budget() == 0


@pytest.mark.parametrize("path", ["plain.csv", "quoted.csv"])
@pytest.mark.parametrize("more", [-1, 1])
def test_file_that_changes_between_the_passes_is_a_data_error(big_dataset, monkeypatch,
                                                             path, more):
    count = ingest._count_file

    def miscount(fs, root, channels):
        body = count(fs, root, channels)
        return dataclasses.replace(body, rows=body.rows + more * (fs.path == path))

    monkeypatch.setattr(ingest, "_count_file", miscount)
    with pytest.raises(DataError, match=rf"{path} changed while it was loaded$"):
        load_table(load_manifest(big_dataset / "m.yaml"), big_dataset)
