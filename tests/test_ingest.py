import csv
import math
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entroscope.errors import DataError, ManifestError
from entroscope.ingest import (
    DatasetManifest,
    FileSpec,
    MagnitudeSpec,
    SampleTable,
    add_magnitude,
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


def test_add_magnitude_rules():
    rows = np.array([[3.0, 4.0, 0.0], [1.0, np.nan, 1.0]])
    table = SampleTable(("X", "Y", "Z"), rows, "t")
    out = add_magnitude(table, "X", "Y", "Z", "M")
    assert out.column("M")[0] == 5.0
    assert math.isnan(out.column("M")[1])
    with pytest.raises(DataError, match="duplicate"):
        add_magnitude(out, "X", "Y", "Z", "M")
    with pytest.raises(DataError, match="unknown channel"):
        add_magnitude(table, "X", "Y", "Q", "M2")


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
    '"4"', '"5,6"', '""', '"a"', "\r",
])


@st.composite
def csv_files(draw):
    """(text, delimiter, source->channel map, channels) of a headed CSV."""
    delimiter = draw(st.sampled_from([",", ",", ";", "\t"]))
    width = draw(st.integers(1, 4))
    cells = st.one_of(NUMBERS, ODD_CELLS) if draw(st.booleans()) else NUMBERS
    rows = draw(st.lists(
        st.lists(cells, min_size=0, max_size=width + 2), max_size=8))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
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


@given(csv_files())
@example(("x,y\n1,\n,2\n\n3,4", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@example(("x,y\n1,2\n3,oops\n", ",", {"x": "V0", "y": "V1"}, ("V0", "V1", "V2")))
@settings(max_examples=300, deadline=None)
def test_load_table_matches_per_cell_reference(tmp_path_factory, case):
    text, delimiter, columns, channels = case
    root = tmp_path_factory.mktemp("csv")
    (root / "d.csv").write_text(text, newline="")
    manifest = DatasetManifest(
        "prop", (FileSpec("d.csv", columns, delimiter),), channels)
    got = outcome(lambda: load_table(manifest, root).rows)
    want = outcome(lambda: reference_rows(
        root / "d.csv", columns, channels, delimiter))
    assert got == want
