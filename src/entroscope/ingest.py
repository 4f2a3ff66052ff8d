"""Dataset ingestion: YAML manifests, delimited text files, pooled tables.

A manifest names the dataset, lists the files to pool (each with a source
column to channel mapping), and declares which triaxial channels get a
synthesized vector-magnitude column. Values stay in raw physical units; the
loader never converts anything.

Manifests and data files are read as UTF-8, past a data file's leading
byte-order mark; bytes that do not decode are a data error naming the file.
A data file is read once as bytes. When its body has no quote or carriage
return, the body is cut into line-aligned blocks of about a mebibyte and
each ASCII block is parsed in one np.loadtxt pass; a block with a non-ASCII
byte or a cell that pass rejects, and a file it declines, go through a
per-cell csv parse with the same rules, the only one that names a bad
cell's file:line.
"""

from __future__ import annotations

import codecs
import csv
import io
import re
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


class _ManifestLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping with a repeated key, which PyYAML
    would otherwise resolve silently to the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                repeated = key in seen
            except TypeError:  # unhashable: SafeLoader reports it
                break
            if repeated:
                raise yaml.constructor.ConstructorError(
                    problem=f"duplicate key {key!r} at line {key_node.start_mark.line + 1}")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"manifest {path} is not UTF-8 text: {exc.reason} "
                            f"at byte {exc.start}") from None
    try:
        doc = yaml.load(text, Loader=_ManifestLoader)
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


_BLOCK_BYTES = 1 << 20  # the byte path hands np.loadtxt about this much per call
_EOL = re.compile(rb"\r\n?|\n")  # where a file opened with newline="" ends a line
_NL = ord("\n")
_NAN = np.frombuffer(b"nan", np.uint8)


def _decode(raw: bytes, fpath: Path, offset: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{fpath} is not UTF-8 text: {exc.reason} at byte "
                        f"{offset + exc.start}") from None


def _read_header(data: bytes, delimiter: str, fpath: Path) -> tuple[list[str] | None, int]:
    """The file's first csv record, after any UTF-8 byte-order mark, and the
    offset of the byte after it."""
    end = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0

    def lines():
        nonlocal end
        while end < len(data):
            eol = _EOL.search(data, end)
            start, end = end, eol.end() if eol else len(data)
            yield _decode(data[start:end], fpath, start)

    return next(csv.reader(lines(), delimiter=delimiter), None), end


def _parse_rows(data: bytes, start: int, end: int, first: int, delimiter: str,
                positions: list[tuple[int, int]], width: int,
                fpath: Path) -> np.ndarray:
    """Per-cell parse of the csv records in data[start:end], whose first is
    body record `first`, for text the byte path cannot take exactly; it alone
    names a bad cell's file:line."""
    text = _decode(data[start:end], fpath, start)
    rows = list(csv.reader(io.StringIO(text, newline=""), delimiter=delimiter))
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
                    f"non-numeric cell {cell!r} at {fpath}:{first + r + 2}") from None
    return block


def _fill_empty(block: np.ndarray, delimiter: int, rest: np.ndarray) -> np.ndarray:
    """Write "nan" into each empty cell of a block of whole lines, and a
    full row of them into each blank line: "nan", then `rest`, which is the
    delimiter and "nan" once per further column."""
    sep = (block == delimiter) | (block == _NL)
    # a cell is empty where a separator follows a separator; the block ends
    # in a newline, so wrapping round (roll, at - 1) puts one before its
    # first byte, as before every line start
    at = np.flatnonzero(sep & np.roll(sep, 1))
    if not at.size:
        return block
    blank = at[(block[at] == _NL) & (block[at - 1] == _NL)]
    # np.insert keeps the given order among equal indices: "nan" before rest
    return np.insert(block, np.concatenate([np.repeat(at, _NAN.size),
                                            np.repeat(blank, rest.size)]),
                     np.concatenate([np.tile(_NAN, at.size), np.tile(rest, blank.size)]))


def _parse_blocks(data: bytes, start: int, delimiter: str,
                  positions: list[tuple[int, int]], width: int,
                  fpath: Path) -> np.ndarray:
    """Parse the body data[start:] in line-aligned blocks of about
    _BLOCK_BYTES, each in one np.loadtxt pass where that is exact.

    The body has no quote or carriage return, so csv splits each line on the
    delimiter alone, which is also all np.loadtxt does. Empty cells and blank
    lines become "nan" (so the delimiter may not be one of its letters).
    Every cell np.loadtxt then accepts reads to the float that float() gives;
    it rejects some cells float() takes (1_0), and a block with such a
    cell, a short row, a whitespace-only cell or a non-ASCII byte goes to the
    per-cell path instead.
    """
    d = ord(delimiter)
    usecols = [src for src, _ in positions]
    cols = [ch for _, ch in positions]
    rest = np.frombuffer((delimiter + "nan").encode() * max(usecols), np.uint8)
    buf = np.frombuffer(data, np.uint8)
    out = np.full((data.count(b"\n", start) + (data[-1] != _NL), width), np.nan)
    r = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(data)
        block = buf[start:end]
        rows = None
        if block.max() < 0x80:
            if block[-1] != _NL:
                block = np.append(block, np.uint8(_NL))
            text = io.BytesIO(_fill_empty(block, d, rest))
            try:
                rows = np.loadtxt(text, delimiter=delimiter, usecols=usecols,
                                  comments=None, ndmin=2, dtype=float,
                                  encoding="latin1")
            except ValueError:
                pass
        if rows is not None:
            out[r:r + len(rows), cols] = rows
        else:
            rows = _parse_rows(data, start, end, r, delimiter, positions, width, fpath)
            out[r:r + len(rows)] = rows
        r += len(rows)
        start = end
    return out


def _load_file(fs: FileSpec, root: Path, channels: tuple[str, ...]) -> np.ndarray:
    fpath = root / fs.path
    if not fpath.is_file():
        raise DataError(f"missing file {fpath}")
    data = fpath.read_bytes()
    d = fs.delimiter
    header, start = _read_header(data, d, fpath)
    if header is None:
        raise DataError(f"{fpath} has no header row")
    header = [h.strip() for h in header]
    positions: list[tuple[int, int]] = []  # (source index, channel index)
    for src, channel in fs.columns.items():
        if src not in header:
            raise DataError(f"column {src!r} not found in {fpath}")
        if header.count(src) > 1:
            raise DataError(f"column {src!r} appears more than once in {fpath}")
        positions.append((header.index(src), channels.index(channel)))

    if (positions and start < len(data) and d.isascii() and not d.isspace()
            and d not in '"an' and data.find(b'"', start) < 0
            and data.find(b"\r", start) < 0):
        return _parse_blocks(data, start, d, positions, len(channels), fpath)
    return _parse_rows(data, start, len(data), 0, d, positions, len(channels), fpath)


def load_table(manifest: DatasetManifest, root) -> SampleTable:
    """Pool every manifest file into one table, magnitudes appended last.

    Rows concatenate in manifest file order. Channels a file does not map
    stay missing for that file's rows. Empty cells are missing; non-numeric
    text is an error. A magnitude is the Euclidean norm of its three
    components, missing whenever any of them is. The table is one
    column-major array, so each column is contiguous.
    """
    if not manifest.files:
        raise ManifestError("empty manifest")
    root = Path(root)
    blocks = [_load_file(fs, root, manifest.channels) for fs in manifest.files]
    width = len(manifest.channels)
    rows = np.empty((sum(len(b) for b in blocks),
                     width + len(manifest.magnitude_specs)), order="F")
    np.concatenate(blocks, out=rows[:, :width])
    column = dict(zip(manifest.channels, rows.T))
    for out, spec in zip(rows.T[width:], manifest.magnitude_specs):
        vx, vy, vz = column[spec.x], column[spec.y], column[spec.z]
        np.sqrt(vx ** 2 + vy ** 2 + vz ** 2, out=out)
    names = manifest.channels + tuple(s.name for s in manifest.magnitude_specs)
    return SampleTable(names, rows, manifest.name)
