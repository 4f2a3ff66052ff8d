"""Dataset ingestion: YAML manifests, delimited text files, pooled tables.

A manifest names the dataset, lists the files to pool (each with a source
column to channel mapping), and declares which triaxial channels get a
synthesized vector-magnitude column. Values stay in raw physical units; the
loader never converts anything.

Manifests and data files are read as UTF-8, past a data file's leading
byte-order mark; bytes that do not decode are a data error naming the file.
A table is loaded in two passes over its files, each reading a file in
blocks of about a mebibyte that end at a line end, so no file is held whole.
The first checks each header and counts each body's rows, parsing no cell; a
table of more float64 cells than the process may hold (what its
address-space limit leaves, else physical memory) is then a data error
naming its rows, columns and both sizes. The second fills one column-major
array. Each quote-free ASCII block without a carriage return is parsed in
one np.loadtxt pass straight into the file's rows. Any other quote-free
block, a block with a line longer than csv's field limit and a block with a
cell that pass rejects go through a per-cell csv parse with the same rules,
the only one that names a bad cell's file:line. From a body's first block
that holds a quote on, both passes stream one csv reader, as a quoted cell
may span lines and blocks.
"""

from __future__ import annotations

import codecs
import csv
import io
import os
import resource
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


_BLOCK_BYTES = 1 << 20  # the loader reads and np.loadtxt parses about this much at once
_NL = ord("\n")
_NAN = np.frombuffer(b"nan", np.uint8)


def _decode(raw: bytes, fpath: Path, offset: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{fpath} is not UTF-8 text: {exc.reason} at byte "
                        f"{offset + exc.start}") from None


def _changed(fpath: Path) -> DataError:
    return DataError(f"{fpath} changed while it was loaded")


def _blocks(fpath: Path, offset: int):
    """Line-aligned blocks of about _BLOCK_BYTES of a file from `offset` to
    its end, each with the file offset of its first byte. A block ends at a
    "\n", or at a lone "\r" where that comes last in its read."""
    with open(fpath, "rb") as fh:
        fh.seek(offset)
        while block := fh.read(_BLOCK_BYTES):
            if block[-1] != _NL:
                # past the last "\n"; the last byte may start a "\r\n"
                cr = block.rfind(b"\r", block.rfind(b"\n") + 1, -1)
                if cr >= 0:
                    block = block[:cr + 1]
                    fh.seek(offset + len(block))
                else:
                    block += fh.readline()
            yield offset, block
            offset += len(block)


def _csv(blocks, fpath: Path, delimiter: str, end: list[int] | None = None):
    """The csv records of (file offset, bytes) pairs of whole lines, decoded
    and read as they are iterated; end[0], when given, is kept at the offset
    after the last line read. A block is split at each "\n" as it is read,
    or by bytes.splitlines where it holds a "\r": either ends a line where
    csv does, at "\r\n", "\r" or "\n"."""
    end = end or [0]

    def lines():
        nonlocal at
        for at, block in blocks:
            for line in block.splitlines(True) if b"\r" in block else io.BytesIO(block):
                end[0] = at + len(line)
                yield _decode(line, fpath, at)
                at = end[0]

    at = 0
    try:
        yield from csv.reader(lines(), delimiter=delimiter)
    except csv.Error as exc:
        raise DataError(f"{fpath}: {exc} in the line at byte {at}") from None


def _records(block: bytes) -> int:
    """Records in a quote-free block of whole lines, the last maybe without
    its line end: "\r\n", "\r" and "\n" each end one (a numpy compare counts
    newlines several times faster than bytes.count)."""
    n = (np.count_nonzero(np.frombuffer(block, np.uint8) == _NL)
         + (block[-1] not in b"\r\n"))
    if b"\r" in block:
        n += block.count(b"\r") - block.count(b"\r\n")
    return n


def _read_header(fpath: Path, delimiter: str) -> tuple[list[str] | None, int]:
    """The file's first csv record, after any UTF-8 byte-order mark, and the
    offset of the byte after it."""
    with open(fpath, "rb") as fh:
        marked = fh.read(len(codecs.BOM_UTF8)) == codecs.BOM_UTF8
    end = [len(codecs.BOM_UTF8) if marked else 0]
    return next(_csv(_blocks(fpath, end[0]), fpath, delimiter, end), None), end[0]


@dataclass(frozen=True)
class _Body:
    """A data file's body as the count pass found it: where it starts, its
    rows (csv records) and which source column feeds which channel."""

    path: Path
    delimiter: str
    positions: list[tuple[int, int]]  # (source index, channel index)
    start: int
    rows: int


def _count_file(fs: FileSpec, root: Path, channels: tuple[str, ...]) -> _Body:
    """Check a file's header and count its body's rows, parsing no cell."""
    fpath = root / fs.path
    if not fpath.is_file():
        raise DataError(f"missing file {fpath}")
    d = fs.delimiter
    header, start = _read_header(fpath, d)
    if header is None:
        raise DataError(f"{fpath} has no header row")
    header = [h.strip() for h in header]
    positions = []
    for src, channel in fs.columns.items():
        if src not in header:
            raise DataError(f"column {src!r} not found in {fpath}")
        if header.count(src) > 1:
            raise DataError(f"column {src!r} appears more than once in {fpath}")
        positions.append((header.index(src), channels.index(channel)))
    # without a quote each line is one csv record; from the first block
    # with one, a record may span lines and blocks
    rows = 0
    for offset, block in _blocks(fpath, start):
        if b'"' in block:
            rows += sum(1 for _ in _csv(_blocks(fpath, offset), fpath, d))
            break
        rows += _records(block)
    return _Body(fpath, d, positions, start, rows)


def _parse_rows(records, first: int, body: _Body, out: np.ndarray) -> None:
    """Per-cell parse into out of csv records, body record `first` on, for
    text the byte path cannot take exactly; it alone names a bad cell's
    file:line."""
    r = 0
    for row in records:
        if r == len(out):
            raise _changed(body.path)
        for src_i, ch_i in body.positions:
            if src_i >= len(row):
                continue
            cell = row[src_i].strip()
            if not cell:
                continue
            try:
                out[r, ch_i] = float(cell)
            except ValueError:
                raise DataError(f"non-numeric cell {cell!r} at "
                                f"{body.path}:{first + r + 2}") from None
        r += 1
    if r != len(out):
        raise _changed(body.path)


def _has_long_line(block: bytes, limit: int) -> bool:
    """Whether a quote-free ASCII block without a carriage return has a line
    of more than `limit` characters, its line end left out.

    Such a line spans limit + 1 bytes without a "\n", and so holds a whole
    window of w = limit // 2 + 1 bytes aligned at a multiple of w, as
    limit + 1 >= 2w - 1. bytes.find probes those windows; only a block
    with one free of "\n" has its lines measured, by a numpy scan several
    times dearer."""
    w = limit // 2 + 1
    if all(block.find(b"\n", at, at + w) >= 0
           for at in range(0, len(block) - w + 1, w)):
        return False
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == _NL)
    return int(np.diff(ends, prepend=-1, append=len(block)).max()) - 1 > limit


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


def _fill_file(body: _Body, out: np.ndarray) -> None:
    """Parse a counted file's body into out, its rows of the table's
    declared channels; channels it does not map stay missing.

    The body is parsed block by block, each quote-free block in one
    np.loadtxt pass where that is exact: on an ASCII block without a
    carriage return, with a delimiter that is not whitespace, a quote or a
    letter of "nan". Empty cells and blank lines become "nan", and every
    cell np.loadtxt then accepts reads to the float that float() gives. It
    rejects some cells float() takes (1_0), and a block with such a cell, a
    short row or a whitespace-only cell goes to the per-cell path instead,
    as does a block with a line longer than csv's field limit, so a cell
    past that limit is an error on every path.
    From the first block that holds a quote, the rest of the body is parsed
    per cell by one csv reader, as a quoted cell may span blocks.
    """
    out[:] = np.nan
    d = body.delimiter
    usecols = [src for src, _ in body.positions]
    cols = [ch for _, ch in body.positions]
    exact = bool(usecols) and d.isascii() and not d.isspace() and d not in '"an'
    rest = np.frombuffer((d + "nan").encode() * max(usecols, default=0), np.uint8)
    r, blocks = 0, _blocks(body.path, body.start)
    for offset, data in blocks:
        if b'"' in data:
            blocks.close()
            data = block = rows = None  # csv's block alone beside the table
            _parse_rows(_csv(_blocks(body.path, offset), body.path, d), r, body, out[r:])
            return
        n = _records(data)
        if r + n > len(out):
            raise _changed(body.path)
        rows = None
        if (exact and data.isascii() and b"\r" not in data
                and not _has_long_line(data, csv.field_size_limit())):
            block = np.frombuffer(data if data[-1] == _NL else data + b"\n", np.uint8)
            try:
                rows = np.loadtxt(io.BytesIO(_fill_empty(block, ord(d), rest)),
                                  delimiter=d, usecols=usecols, comments=None,
                                  ndmin=2, dtype=float, encoding="latin1")
            except ValueError:
                pass
        if rows is not None:
            out[r:r + n, cols] = rows
        else:
            _parse_rows(_csv([(offset, data)], body.path, d), r, body, out[r:r + n])
        r += n
    if r != len(out):
        raise _changed(body.path)


def _memory_budget() -> int:
    """Bytes this process may still use: what its address-space limit
    leaves when one is set, else the machine's physical memory."""
    page = os.sysconf("SC_PAGE_SIZE")
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit == resource.RLIM_INFINITY:
        return page * os.sysconf("SC_PHYS_PAGES")
    try:  # the limit bounds the whole address space, interpreter included
        with open("/proc/self/statm") as fh:
            used = int(fh.read().split()[0]) * page
    except OSError:  # no procfs: count the limit whole
        used = 0
    return max(limit - used, 0)


def load_table(manifest: DatasetManifest, root) -> SampleTable:
    """Pool every manifest file into one table, magnitudes appended last.

    Rows concatenate in manifest file order. Channels a file does not map
    stay missing for that file's rows. Empty cells are missing; non-numeric
    text is an error. A magnitude is the Euclidean norm of its three
    components, missing whenever any of them is. The table is one
    column-major array, so each column is contiguous. A first pass counts
    every file's rows and parses no cell, so a table larger than the
    process may hold is a DataError before the second pass parses each file
    into its rows of the table.
    """
    if not manifest.files:
        raise ManifestError("empty manifest")
    root = Path(root)
    bodies = [_count_file(fs, root, manifest.channels) for fs in manifest.files]
    width = len(manifest.channels)
    shape = (sum(body.rows for body in bodies), width + len(manifest.magnitude_specs))
    need, budget = 8 * shape[0] * shape[1], _memory_budget()
    if need > budget:
        raise DataError(f"a table of {shape[0]} rows x {shape[1]} columns needs "
                        f"{need / 2 ** 20:.1f} MiB, more than the "
                        f"{budget / 2 ** 20:.1f} MiB this process may use")
    rows = np.empty(shape, order="F")
    lo = 0
    for body in bodies:
        _fill_file(body, rows[lo:lo + body.rows, :width])
        lo += body.rows
    column = dict(zip(manifest.channels, rows.T))
    for out, spec in zip(rows.T[width:], manifest.magnitude_specs):
        vx, vy, vz = column[spec.x], column[spec.y], column[spec.z]
        np.sqrt(vx ** 2 + vy ** 2 + vz ** 2, out=out)
    names = manifest.channels + tuple(s.name for s in manifest.magnitude_specs)
    return SampleTable(names, rows, manifest.name)
