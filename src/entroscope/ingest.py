"""Dataset ingestion: YAML manifests, delimited text files, pooled tables.

A manifest names the dataset, lists the files to pool (each with a source
column to channel mapping), and declares which triaxial channels get a
synthesized vector-magnitude column. Values stay in raw physical units; the
loader never converts anything.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import DataError, ManifestError


@dataclass(frozen=True)
class FileSpec:
    path: str
    columns: dict[str, str]  # source column name -> channel name
    delimiter: str = ","


@dataclass(frozen=True)
class MagnitudeSpec:
    x: str
    y: str
    z: str
    name: str


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    files: tuple[FileSpec, ...]
    channels: tuple[str, ...]
    magnitude_specs: tuple[MagnitudeSpec, ...] = ()

    def __post_init__(self):
        if len(set(self.channels)) != len(self.channels):
            raise ManifestError("channel names must be unique")
        taken = set(self.channels)
        for spec in self.magnitude_specs:
            for ref in (spec.x, spec.y, spec.z):
                if ref not in self.channels:
                    raise ManifestError(
                        f"magnitude {spec.name!r} references undeclared channel {ref!r}"
                    )
            if spec.name in taken:
                raise ManifestError(f"magnitude name {spec.name!r} is already taken")
            taken.add(spec.name)
        for fs in self.files:
            mapped = set()
            for channel in fs.columns.values():
                if channel not in self.channels:
                    raise ManifestError(
                        f"file {fs.path!r} maps onto undeclared channel {channel!r}"
                    )
                if channel in mapped:
                    raise ManifestError(
                        f"file {fs.path!r} maps two columns onto channel {channel!r}"
                    )
                mapped.add(channel)


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest file."""
    text = Path(path).read_text()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ManifestError(f"cannot parse manifest {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} must be a mapping")
    # rows missing a channel are dropped per subset; no other policy exists
    policy = str(doc.get("missing_policy", "drop-row-for-subset"))
    if policy != "drop-row-for-subset":
        raise ManifestError(f"unknown missing policy {policy!r}")

    def check(ok: bool, field: str, what: str, value) -> None:
        if not ok:
            raise ManifestError(f"manifest {path}: {field} must be {what}, "
                                f"not {value!r}")

    try:
        files = []
        for entry in doc.get("files", []) or []:
            columns, delimiter = entry["columns"], entry.get("delimiter", ",")
            check(isinstance(columns, dict), "columns", "a mapping", columns)
            check(isinstance(delimiter, str) and len(delimiter) == 1,
                  "delimiter", "one character", delimiter)
            files.append(FileSpec(
                path=str(entry["path"]),
                columns={str(k): str(v) for k, v in columns.items()},
                delimiter=delimiter,
            ))
        magnitudes = tuple(
            MagnitudeSpec(str(m["x"]), str(m["y"]), str(m["z"]), str(m["name"]))
            for m in doc.get("magnitudes", []) or []
        )
        channels = doc["channels"]
        check(isinstance(channels, list), "channels", "a list", channels)
        return DatasetManifest(
            name=str(doc["name"]),
            files=tuple(files),
            channels=tuple(str(c) for c in channels),
            magnitude_specs=magnitudes,
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest {path} is missing or mistypes a field: {exc}") from exc


@dataclass(frozen=True, eq=False)
class SampleTable:
    """Pooled, channel-aligned samples. NaN marks a missing slot."""

    channels: tuple[str, ...]
    rows: np.ndarray  # (rows, len(channels)) float64
    source: str

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.channels):
            raise DataError("rows must be a matrix with one column per channel")

    def column(self, name: str) -> np.ndarray:
        """Full aligned column for one channel, missing slots as NaN."""
        try:
            i = self.channels.index(name)
        except ValueError:
            raise DataError(f"unknown channel {name!r}") from None
        return self.rows[:, i]


def _parse_rows(rows: list[list[str]], positions: list[tuple[int, int]],
                width: int, fpath: Path) -> np.ndarray:
    """Per-cell parse of csv records, for files the one-pass parse cannot
    take exactly; it alone names a bad cell's file:line."""
    block = np.full((len(rows), width), np.nan)
    for r, row in enumerate(rows):
        for src_i, ch_i in positions:
            if src_i >= len(row):
                continue
            cell = row[src_i].strip()
            if not cell:
                continue
            try:
                block[r, ch_i] = float(cell)
            except ValueError:
                raise DataError(
                    f"non-numeric cell {cell!r} at {fpath}:{r + 2}") from None
    return block


def _parse_fast(body: str, delimiter: str,
                usecols: list[int]) -> np.ndarray | None:
    """Parse the data lines in one C pass, or None where it may not be exact.

    With no quote or carriage return in the text, csv splits each line on the
    delimiter alone, which is also all np.loadtxt does. Empty cells and blank
    lines become "nan" (so the delimiter may not be one of its letters).
    Every cell np.loadtxt then accepts reads to the float that float() gives;
    it rejects some cells float() takes (1_0, non-ASCII digits), and those,
    short rows and whitespace-only cells raise ValueError and go to the
    per-cell path.
    """
    d = delimiter
    if d.isspace() or d in '"an' or '"' in body or "\r" in body:
        return None
    text = "\n" + body if body.endswith("\n") else "\n" + body + "\n"
    blank = d.join(["nan"] * (max(usecols) + 1))
    # a pattern that is absent costs one scan and no copy; a first pass over
    # a run of delimiters or blank lines leaves a pair only where the run was
    # three or longer, and a second pass fills those; no fill makes another's
    # pattern, so their order does not matter
    fills = ((d + d, d + "nan" + d, 2), ("\n\n", "\n" + blank + "\n", 2),
             ("\n" + d, "\nnan" + d, 1), (d + "\n", d + "nan\n", 1))
    for old, new, passes in fills:
        for _ in range(passes):
            if old not in text:
                break
            text = text.replace(old, new)
    try:
        return np.loadtxt(io.StringIO(text[1:]), delimiter=d, usecols=usecols,
                          comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None


def _load_file(fs: FileSpec, root: Path, channels: tuple[str, ...]) -> np.ndarray:
    fpath = root / fs.path
    if not fpath.is_file():
        raise DataError(f"missing file {fpath}")
    with open(fpath, newline="") as fh:
        header = next(csv.reader(fh, delimiter=fs.delimiter), None)
        if header is None:
            raise DataError(f"{fpath} has no header row")
        header = [h.strip() for h in header]
        positions: list[tuple[int, int]] = []  # (source index, channel index)
        for src, channel in fs.columns.items():
            if src not in header:
                raise DataError(f"column {src!r} not found in {fpath}")
            positions.append((header.index(src), channels.index(channel)))
        body = fh.read()

    usecols = [src for src, _ in positions]
    parsed = _parse_fast(body, fs.delimiter, usecols) if body and usecols else None
    if parsed is None:
        rows = list(csv.reader(io.StringIO(body, newline=""), delimiter=fs.delimiter))
        return _parse_rows(rows, positions, len(channels), fpath)
    block = np.full((parsed.shape[0], len(channels)), np.nan)
    for k, (_, ch_i) in enumerate(positions):
        block[:, ch_i] = parsed[:, k]
    return block


def load_table(manifest: DatasetManifest, root) -> SampleTable:
    """Pool every manifest file into one table, magnitudes appended last.

    Rows concatenate in manifest file order. Channels a file does not map
    stay missing for that file's rows. Empty cells are missing; non-numeric
    text is an error.
    """
    if not manifest.files:
        raise ManifestError("empty manifest")
    root = Path(root)
    blocks = [_load_file(fs, root, manifest.channels) for fs in manifest.files]
    table = SampleTable(
        channels=manifest.channels,
        rows=np.vstack(blocks),
        source=manifest.name,
    )
    for spec in manifest.magnitude_specs:
        table = add_magnitude(table, spec.x, spec.y, spec.z, spec.name)
    return table


def add_magnitude(table: SampleTable, x: str, y: str, z: str,
                  name: str) -> SampleTable:
    """Append the Euclidean norm of three channels as a new channel.

    A row's magnitude is missing whenever any component is missing.
    """
    if name in table.channels:
        raise DataError(f"duplicate channel name {name!r}")
    vx, vy, vz = table.column(x), table.column(y), table.column(z)
    mag = np.sqrt(vx ** 2 + vy ** 2 + vz ** 2)
    return SampleTable(
        channels=table.channels + (name,),
        rows=np.column_stack([table.rows, mag]),
        source=table.source,
    )
