"""Dataset ingestion: fetching, parsing, validation, and chronological splits.

Edge lists are delimited UTF-8 text with one quadruple per row. Raw node and
relation identifiers may be arbitrary strings; they are densified at parse
time and the mappings are written to two-column vocabulary sidecars
(``raw<TAB>dense``, sorted by dense id). The canonical on-disk form used
between pipeline stages stores the dense ids themselves, which round-trip
exactly.
"""

from __future__ import annotations

import hashlib
import io
import re
import shutil
import urllib.error
import urllib.request
import warnings
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    FetchError,
    IntegrityError,
    ParseError,
    SchemaError,
    SplitError,
)
from .graph import Granularity, SplitBoundaries, TemporalMultiGraph
from .negatives import STRATEGIES

_FIELDS = ("timestamp", "subject", "relation", "object")
STATIC_TIMESTAMP = 0  # sentinel for the relation-only companion graph
_DENSE_INT = re.compile(r"[+-]?[0-9]+")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_WRITE_BLOCK_ROWS = 1 << 16  # rows per formatted block, bounding the text buffer


@dataclass(frozen=True)
class EdgeListSchema:
    """Column layout of an edge-list file.

    ``columns`` names the four fields in file order; it must be a
    permutation of (timestamp, subject, relation, object). ``node_type_path``
    points at an optional two-column sidecar assigning a type to every node
    (required for THG datasets); ``static_path`` at an optional
    (subject, relation, object) companion file.
    """

    columns: tuple = _FIELDS
    header: bool = True
    delimiter: str = ","
    node_type_path: Path | None = None
    static_path: Path | None = None

    def __post_init__(self):
        if sorted(self.columns) != sorted(_FIELDS):
            raise SchemaError(f"columns must be a permutation of {_FIELDS}, got {self.columns}")
        if len(self.delimiter.encode("utf-8")) != 1:
            raise SchemaError("delimiter must be a single byte")

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    @classmethod
    def from_file(cls, path) -> "EdgeListSchema":
        """Read a ``key = value`` schema file; ``delimiter = \\t`` selects a tab."""
        kv = read_keyvalue_file(path)
        columns = tuple(c.strip() for c in kv.get("columns", ",".join(_FIELDS)).split(","))
        delimiter = kv.get("delimiter", ",")
        return cls(
            columns=columns,
            header=kv.get("header", "true").lower() == "true",
            delimiter="\t" if delimiter == "\\t" else delimiter,
            node_type_path=Path(kv["node_type_path"]) if "node_type_path" in kv else None,
            static_path=Path(kv["static_path"]) if "static_path" in kv else None,
        )


@dataclass(frozen=True)
class DatasetManifest:
    """Descriptor for one distributable dataset."""

    name: str
    url: str
    checksum: str  # "sha256:<hex>"; required for any remote fetch
    granularity: Granularity
    kind: str  # "tkg" | "thg"
    strategy: str  # one of negatives.STRATEGIES
    q: int = 0

    def __post_init__(self):
        if self.kind not in ("tkg", "thg"):
            raise ConfigError(f"kind must be tkg or thg, got {self.kind!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown sampling strategy {self.strategy!r}")
        if self.strategy != "all" and self.q < 1:
            raise ConfigError("q must be >= 1 for 1-vs-q strategies")
        if self.url and not self.checksum:
            raise ConfigError("checksum is required for any remote fetch")

    @classmethod
    def from_file(cls, path) -> "DatasetManifest":
        kv = read_keyvalue_file(path)
        try:
            return cls(
                name=kv["name"],
                url=kv.get("url", ""),
                checksum=kv.get("checksum", ""),
                granularity=Granularity(kv["granularity"]),
                kind=kv["kind"],
                strategy=kv["strategy"],
                q=int(kv.get("q", "0")),
            )
        except KeyError as exc:
            raise ConfigError(f"dataset manifest {path} is missing key {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"dataset manifest {path}: {exc}") from exc

    def to_file(self, path) -> None:
        write_keyvalue_file(
            path,
            [
                ("name", self.name),
                ("url", self.url),
                ("checksum", self.checksum),
                ("granularity", self.granularity.value),
                ("kind", self.kind),
                ("strategy", self.strategy),
                ("q", str(self.q)),
            ],
        )


@dataclass
class IngestReport:
    """What happened during one parse: vocabularies and data-quality counts."""

    rows_read: int = 0
    duplicates_removed: int = 0
    node_vocab: list = field(default_factory=list)  # raw id per dense id
    relation_vocab: list = field(default_factory=list)
    node_type_vocab: list = field(default_factory=list)
    skipped_lines: list = field(default_factory=list)


# -- key-value config files ----------------------------------------------------


def read_keyvalue_file(path) -> dict:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    return {key: value for key, (value, _) in _read_keyvalue_lines(path).items()}


def _read_keyvalue_lines(path) -> dict:
    """key -> (value, 1-based line number) of a ``key = value`` config file."""
    out = {}
    lines = _split_lines(Path(path).read_text(encoding="utf-8"))
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: malformed line {raw_line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = (value.strip(), lineno)
    return out


def write_keyvalue_file(path, items) -> None:
    text = "".join(f"{k} = {v}\n" for k, v in items)
    Path(path).write_text(text, encoding="utf-8")


# -- fetching -------------------------------------------------------------------


def checksum_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def fetch_dataset(manifest: DatasetManifest, cache_dir) -> Path:
    """Return a local, checksum-verified copy of the dataset file.

    Cached copies are reused without refetching. A cached file failing the
    checksum is deleted before the integrity error is raised, so the next
    call refetches.
    """
    cache_dir = Path(cache_dir)
    filename = manifest.url.rsplit("/", 1)[-1] or manifest.name
    target = cache_dir / manifest.name / filename
    if target.exists():
        actual = checksum_file(target)
        if actual == manifest.checksum:
            return target
        target.unlink()
        raise IntegrityError(
            f"cached {target} failed checksum ({actual} != {manifest.checksum}); entry purged"
        )
    if not manifest.url:
        raise FetchError(f"dataset {manifest.name} is not cached and has no url")
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_suffix(target.suffix + ".part")
    try:
        with urllib.request.urlopen(manifest.url) as response, open(tmp, "wb") as out:
            shutil.copyfileobj(response, out)
    except (urllib.error.URLError, OSError) as exc:
        tmp.unlink(missing_ok=True)
        raise FetchError(f"download of {manifest.url} failed: {exc}") from exc
    actual = checksum_file(tmp)
    if actual != manifest.checksum:
        tmp.unlink()
        raise IntegrityError(
            f"download of {manifest.url} failed checksum ({actual} != {manifest.checksum})"
        )
    tmp.replace(target)
    return target


# -- delimited text --------------------------------------------------------------


def _read_text(source) -> tuple:
    """(text, path) of a file path, or of a text or binary file object (path None)."""
    if hasattr(source, "read"):
        data = source.read()
        return (data.decode("utf-8") if isinstance(data, bytes) else data), None
    return Path(source).read_text(encoding="utf-8"), source


def _split_lines(text: str) -> list:
    """The lines of ``text``: a line ends at "\\n", "\\r\\n" or "\\r", and at nothing else."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _rows(text: str, path, width: int, delimiter: str, header: bool = False,
          split_last: bool = False) -> tuple:
    """The fields of delimited text, in the grammar every text input shares.

    Lines end as :func:`_split_lines` says. With ``header`` the first line is
    skipped, and so is every line holding only whitespace. Each other line is
    split at ``delimiter`` into ``width`` fields, each stripped of the
    whitespace around it; with ``split_last`` at its last ``width - 1``
    delimiters, so the first field may hold the delimiter. A line with
    another field count is a SchemaError naming ``path`` (when given) and the
    line; such a line refuses the file before any field value is checked.

    Returns (line numbers, fields): the 1-based number of each kept line, and
    the ``width`` fields of every kept line in line order.
    """
    lines = _split_lines(text)[int(header):]
    filled = list(map(str.strip, lines))
    numbers = list(compress(count(1 + int(header)), filled))
    lines = list(compress(lines, filled))
    if split_last:
        rows = [line.rsplit(delimiter, width - 1) for line in lines]
        cuts, fields = [len(row) - 1 for row in rows], list(chain.from_iterable(rows))
    else:
        cuts = list(map(str.count, lines, repeat(delimiter)))
        fields = delimiter.join(lines).split(delimiter) if lines else []
    if cuts.count(width - 1) != len(cuts):
        k = next(k for k, n in enumerate(cuts) if n != width - 1)
        where = f"{path} " if path is not None else ""
        raise SchemaError(f"{where}line {numbers[k]}: expected {width} columns, got {cuts[k] + 1}")
    return numbers, list(map(str.strip, fields))


def _int64_fields(fields: list, numbers: list, path, what: str = "field") -> np.ndarray:
    """``fields`` as int64, each an optionally signed ASCII decimal integer within int64.

    ``numbers[k]`` is the line of ``fields[k]``; the first bad field is a
    ParseError naming its line.
    """
    joined = "".join(fields)
    if joined.isascii() and "_" not in joined:  # then int() accepts exactly the grammar
        try:
            return np.array(list(map(int, fields)), dtype=np.int64)
        except (ValueError, OverflowError):
            pass
    parsed = []
    for value, lineno in zip(fields, numbers):
        if not _DENSE_INT.fullmatch(value):
            raise ParseError(f"{what} {value!r} is not an integer", lineno, path)
        # without leading zeros, so int() never meets its limit on digits
        digits = ("-" if value[0] == "-" else "") + (value.lstrip("+-").lstrip("0") or "0")
        if len(digits) > 20 or not _INT64_MIN <= int(digits) <= _INT64_MAX:
            raise ParseError(f"{what} {value} lies outside the int64 range", lineno, path)
        parsed.append(int(digits))
    return np.array(parsed, dtype=np.int64)


# -- parsing --------------------------------------------------------------------


def parse_edgelist(
    source,
    schema: EdgeListSchema | None = None,
    *,
    granularity: Granularity = Granularity.DAY,
    on_invalid: str = "error",
):
    """Parse a delimited edge list into a graph with dense ids.

    The text follows :func:`_rows`, and the timestamp is an integer as in
    :func:`_int64_fields`. Rows with a missing subject or object (or any
    blank field) are rejected with their line number; with
    ``on_invalid="skip"`` they are dropped and recorded in the report
    instead, mirroring edge-list cleaning. Dense ids follow first-seen order.

    Returns (TemporalMultiGraph, IngestReport).
    """
    schema = schema or EdgeListSchema()
    if on_invalid not in ("error", "skip"):
        raise ConfigError("on_invalid must be 'error' or 'skip'")
    text, path = _read_text(source)
    numbers, fields = _rows(text, path, 4, schema.delimiter, schema.header)
    columns = [fields[schema.column_index(name)::4] for name in _FIELDS]
    report = IngestReport()
    if any("" in column for column in columns):
        filled = ["" not in row for row in zip(*columns)]
        if on_invalid == "error":
            k = filled.index(False)
            _int64_fields(columns[0][:k], numbers, path, "timestamp")  # an earlier line first
            blank = [name for name, column in zip(_FIELDS, columns) if not column[k]]
            raise ParseError(f"missing {', '.join(blank)} column", numbers[k], path)
        report.skipped_lines = [n for n, keep in zip(numbers, filled) if not keep]
        numbers = list(compress(numbers, filled))
        columns = [list(compress(column, filled)) for column in columns]
    times, subjects, relations, objects = columns
    timestamps = _int64_fields(times, numbers, path, "timestamp")
    nodes, relation_ids = {}, {}
    ends = [nodes.setdefault(raw, len(nodes)) for pair in zip(subjects, objects) for raw in pair]
    rels = [relation_ids.setdefault(raw, len(relation_ids)) for raw in relations]

    node_types = None
    if schema.node_type_path is not None:
        node_types, report.node_type_vocab = _parse_node_types(
            schema.node_type_path, nodes, schema.delimiter
        )

    graph = TemporalMultiGraph(
        ends[0::2],
        rels,
        ends[1::2],
        timestamps,
        node_count=len(nodes),
        relation_count=len(relation_ids),
        node_types=node_types,
        granularity=granularity,
    )
    report.rows_read = len(timestamps)
    report.duplicates_removed = graph.duplicates_removed
    report.node_vocab = list(nodes)
    report.relation_vocab = list(relation_ids)
    return graph, report


def _parse_node_types(path, nodes: dict, delimiter: str):
    """Each node's dense type from a headerless (node, type) sidecar, and the type vocabulary.

    Rows naming a node absent from ``nodes`` are ignored; a node named twice
    keeps its last type.
    """
    _, fields = _rows(*_read_text(path), 2, delimiter)
    types = {}
    typed = {nodes[node]: types.setdefault(kind, len(types))
             for node, kind in zip(fields[0::2], fields[1::2]) if node in nodes}
    assigned = np.full(len(nodes), -1, dtype=np.int64)
    assigned[list(typed)] = list(typed.values())
    missing = int((assigned < 0).sum())
    if missing:
        raise DataError(f"{missing} nodes have no type in {path}")
    return assigned, list(types)


def parse_static_edgelist(source, node_index: dict, *, delimiter: str = ",", header: bool = True):
    """Parse the optional static companion file of (subject, relation, object) rows.

    The text follows :func:`_rows`. Nodes are resolved through the temporal
    graph's vocabulary; rows naming unknown nodes are skipped and counted,
    since static edges are scorer context only and never enter splits or
    metrics. Relations get their own id space and every row carries the
    sentinel timestamp.

    Returns (TemporalMultiGraph, relation_vocab, skipped_count).
    """
    _, fields = _rows(*_read_text(source), 3, delimiter, header)
    subjects, relations, objects = fields[0::3], fields[1::3], fields[2::3]
    known = [s in node_index and o in node_index for s, o in zip(subjects, objects)]
    relation_ids = {}
    rels = [relation_ids.setdefault(raw, len(relation_ids)) for raw in compress(relations, known)]
    graph = TemporalMultiGraph(
        [node_index[raw] for raw in compress(subjects, known)],
        rels,
        [node_index[raw] for raw in compress(objects, known)],
        [STATIC_TIMESTAMP] * len(rels),
        node_count=max(node_index.values()) + 1 if node_index else 0,
        relation_count=len(relation_ids),
    )
    return graph, list(relation_ids), len(known) - len(rels)


def _read_int_table(source, width: int, delimiter: str, header: bool) -> np.ndarray:
    """The ``(rows, width)`` int64 table of a dense delimited file or file object.

    The text follows :func:`_rows` with ``width`` fields per line, each an
    integer as in :func:`_int64_fields`.

    ``np.loadtxt`` parses the whole file in one bulk pass. Text it refuses or
    warns about is re-read by :func:`_int_table_by_line`, which accepts what
    the grammar allows and otherwise raises: SchemaError for a wrong field
    count, ParseError for a bad field.
    """
    text, path = _read_text(source) if hasattr(source, "read") else (None, source)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            table = np.loadtxt(
                io.StringIO(text, newline=None) if path is None else path,
                dtype=np.int64, delimiter=delimiter, comments=None,
                skiprows=int(header), ndmin=2, encoding="utf-8",
            )
        if table.shape[1] == width:
            return table
    except (ValueError, UserWarning):
        pass
    if path is not None:
        text = _read_text(path)[0]
    return _int_table_by_line(text, width, delimiter, header, path)


def _int_table_by_line(text: str, width: int, delimiter: str, header: bool, path) -> np.ndarray:
    """:func:`_read_int_table` through the row reader, naming ``path`` in its errors."""
    numbers, fields = _rows(text, path, width, delimiter, header)
    lines = [lineno for lineno in numbers for _ in range(width)]
    return _int64_fields(fields, lines, path).reshape(-1, width)


def _write_int_table(fh, columns, delimiter: str) -> None:
    """Write parallel int columns as delimited decimal rows, one bulk format per block."""
    line = delimiter.replace("%", "%%").join(["%d"] * len(columns)) + "\n"
    for lo in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
        block = np.column_stack([c[lo : lo + _WRITE_BLOCK_ROWS] for c in columns])
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def load_dense_edgelist(
    source,
    *,
    node_count: int,
    relation_count: int,
    node_types=None,
    granularity: Granularity = Granularity.DAY,
    inverse_augmented: bool = False,
    schema: EdgeListSchema | None = None,
) -> TemporalMultiGraph:
    """Read an edge list whose fields already are dense integer ids.

    This is the exact inverse of :func:`write_edgelist`, preserving ids
    bit-for-bit (unlike :func:`parse_edgelist`, which assigns fresh dense ids
    in first-seen order). The accepted text is described in
    :func:`_read_int_table`.
    """
    schema = schema or EdgeListSchema()
    return _dense_graph(
        _read_int_table(source, 4, schema.delimiter, schema.header),
        schema,
        node_count=node_count,
        relation_count=relation_count,
        node_types=node_types,
        granularity=granularity,
        inverse_augmented=inverse_augmented,
    )


def _dense_graph(table: np.ndarray, schema: EdgeListSchema, **meta) -> TemporalMultiGraph:
    s, r, o, t = (table[:, schema.column_index(name)]
                  for name in ("subject", "relation", "object", "timestamp"))
    return TemporalMultiGraph(s, r, o, t, **meta)


def write_edgelist(graph: TemporalMultiGraph, path, schema: EdgeListSchema | None = None) -> None:
    """Serialize a graph to delimited text with dense ids (canonical form)."""
    schema = schema or EdgeListSchema()
    columns = {
        "timestamp": graph.timestamps,
        "subject": graph.subjects,
        "relation": graph.relations,
        "object": graph.objects,
    }
    with open(path, "w", encoding="utf-8") as fh:
        if schema.header:
            fh.write(schema.delimiter.join(schema.columns) + "\n")
        elif graph.is_empty:
            fh.write("\n")
        _write_int_table(fh, [columns[name] for name in schema.columns], schema.delimiter)


def write_vocab(path, raw_ids) -> None:
    """Two-column (raw-id, dense-id) file, sorted by dense id."""
    with open(path, "w", encoding="utf-8") as fh:
        for dense, raw in enumerate(raw_ids):
            fh.write(f"{raw}\t{dense}\n")


def read_vocab(path) -> list:
    """The raw ids of a :func:`write_vocab` file, by dense id.

    The text follows :func:`_rows`, each line split at its last tab, since a
    raw id may hold a tab. The dense ids must read 0..n-1 in line order.
    """
    numbers, fields = _rows(*_read_text(path), 2, "\t", split_last=True)
    dense = _int64_fields(fields[1::2], numbers, path, "dense id")
    out_of_order = np.flatnonzero(dense != np.arange(len(dense)))
    if out_of_order.size:
        lineno = numbers[out_of_order[0]]
        raise DataError(f"{path} line {lineno}: dense ids must be 0..n-1 in order")
    return fields[0::2]


# -- chronological split --------------------------------------------------------


def chronological_split(
    graph: TemporalMultiGraph,
    train_frac: float = 0.70,
    valid_frac: float = 0.15,
):
    """Split a graph chronologically into train/valid/test parts.

    The boundary rule: ``train_end`` is the smallest timestamp whose
    cumulative edge fraction reaches ``train_frac``, with the whole boundary
    timestamp assigned to the earlier split; ``valid_end`` likewise at
    ``train_frac + valid_frac``. Edges of one timestamp therefore never
    straddle a boundary, and the realized train fraction can overshoot the
    target by up to the boundary timestamp's edge share.

    Returns (train, valid, test, SplitBoundaries).

    Raises
    ------
    SplitError
        If the graph has fewer than three distinct timestamps or the
        cumulative rule leaves any part empty.
    """
    if graph.is_empty:
        raise SplitError("cannot split an empty graph")
    if train_frac <= 0 or valid_frac <= 0 or train_frac + valid_frac >= 1:
        raise ConfigError("fractions must be positive and sum to less than 1")
    distinct, counts = np.unique(graph.timestamps, return_counts=True)
    if len(distinct) < 3:
        raise SplitError(f"need at least 3 distinct timestamps, got {len(distinct)}")
    cumulative = np.cumsum(counts) / len(graph)
    train_idx = _first_reaching(cumulative, train_frac)
    valid_idx = _first_reaching(cumulative, train_frac + valid_frac)
    if valid_idx <= train_idx:
        raise SplitError("validation split is empty under the cumulative boundary rule")
    if valid_idx >= len(distinct) - 1:
        raise SplitError("test split is empty under the cumulative boundary rule")
    boundaries = SplitBoundaries(int(distinct[train_idx]), int(distinct[valid_idx]))
    train = graph.time_slice(graph.t_min, boundaries.train_end)
    valid = graph.time_slice(boundaries.train_end + 1, boundaries.valid_end)
    test = graph.time_slice(boundaries.valid_end + 1, graph.t_max)
    return train, valid, test, boundaries


def _first_reaching(cumulative: np.ndarray, fraction: float) -> int:
    idx = int(np.searchsorted(cumulative, fraction, side="left"))
    return min(idx, len(cumulative) - 1)


# -- graph directories (pipeline storage convention) ----------------------------


def write_graph_dir(
    graph: TemporalMultiGraph,
    directory,
    report: IngestReport | None = None,
    static: TemporalMultiGraph | None = None,
    static_relation_vocab=None,
) -> None:
    """Write a graph plus sidecars into a directory (canonical dense-id form)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edgelist(graph, directory / "edgelist.csv")
    kind = "thg" if graph.is_heterogeneous else "tkg"
    write_keyvalue_file(
        directory / "meta.txt",
        [
            ("node_count", graph.node_count),
            ("relation_count", graph.relation_count),
            ("granularity", graph.granularity.value),
            ("kind", kind),
            ("inverse_augmented", str(graph.inverse_augmented).lower()),
        ],
    )
    if graph.is_heterogeneous:
        with open(directory / "node_types.csv", "w", encoding="utf-8") as fh:
            fh.write("node,type\n")
            _write_int_table(fh, [np.arange(graph.node_count), graph.node_types], ",")
    if report is not None:
        write_vocab(directory / "nodes.vocab", report.node_vocab)
        write_vocab(directory / "relations.vocab", report.relation_vocab)
        if report.node_type_vocab:
            write_vocab(directory / "node_types.vocab", report.node_type_vocab)
        write_keyvalue_file(
            directory / "ingest_report.txt",
            [
                ("rows_read", report.rows_read),
                ("duplicates_removed", report.duplicates_removed),
                ("skipped_lines", ",".join(map(str, report.skipped_lines))),
            ],
        )
    if static is not None:
        write_edgelist(static, directory / "static_edgelist.csv")
        if static_relation_vocab is not None:
            write_vocab(directory / "static_relations.vocab", static_relation_vocab)


def load_graph_dir(directory):
    """Load a graph directory written by :func:`write_graph_dir`.

    Returns (graph, static_graph_or_None).
    """
    directory = Path(directory)
    meta_path = directory / "meta.txt"
    meta = read_keyvalue_file(meta_path)
    node_count = _meta_field(meta, "node_count", meta_path, _count, "a non-negative integer")
    relation_count = _meta_field(meta, "relation_count", meta_path, _count,
                                 "a non-negative integer")
    granularity = _meta_field(meta, "granularity", meta_path, Granularity,
                              f"one of {[g.value for g in Granularity]}")
    augmented = meta.get("inverse_augmented", "false") == "true"

    node_types = None
    if meta.get("kind") == "thg":
        types_path = directory / "node_types.csv"
        if not types_path.exists():
            raise DataError(f"{directory}: THG graph dir lacks node_types.csv")
        nodes, types = _read_int_table(types_path, 2, ",", header=True).T
        outside = nodes[(nodes < 0) | (nodes >= node_count)]
        if outside.size:
            raise DataError(f"{types_path}: node id {outside[0]} outside [0, {node_count})")
        typed = np.zeros(node_count, dtype=bool)
        typed[nodes] = True
        if not typed.all():
            raise DataError(f"node {int(np.argmin(typed))} has no type in {types_path}")
        node_types = np.empty(node_count, dtype=np.int64)
        node_types[nodes] = types

    graph = load_dense_edgelist(
        directory / "edgelist.csv",
        node_count=node_count,
        relation_count=relation_count,
        node_types=node_types,
        granularity=granularity,
        inverse_augmented=augmented,
    )
    static = None
    static_path = directory / "static_edgelist.csv"
    if static_path.exists():
        schema = EdgeListSchema()
        table = _read_int_table(static_path, 4, schema.delimiter, schema.header)
        vocab_path = directory / "static_relations.vocab"
        if vocab_path.exists():
            static_relations = len(read_vocab(vocab_path))
        else:
            relations = table[:, schema.column_index("relation")]
            static_relations = int(relations.max()) + 1 if len(relations) else 1
        static = _dense_graph(table, schema, node_count=node_count,
                              relation_count=static_relations, granularity=granularity)
    return graph, static


def _int64(value: str) -> int:
    """One field under :func:`_int64_fields`' rule; a bad one is a ValueError."""
    try:
        return int(_int64_fields([value], [None], None)[0])
    except ParseError:
        raise ValueError(value) from None


def _count(value: str) -> int:
    if (count := _int64(value)) < 0:
        raise ValueError(value)
    return count


def _meta_field(meta: dict, key: str, path, convert, expected: str):
    if key not in meta:
        raise DataError(f"{path} lacks {key}")
    try:
        return convert(meta[key])
    except ValueError:
        lineno = _read_keyvalue_lines(path)[key][1]
        raise ParseError(f"{key} {meta[key]!r} is not {expected}", lineno, path) from None


def save_splits(directory, train, valid, test, boundaries: SplitBoundaries) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_edgelist(train, directory / "train.csv")
    write_edgelist(valid, directory / "valid.csv")
    write_edgelist(test, directory / "test.csv")
    write_keyvalue_file(
        directory / "boundaries.txt",
        [("train_end", boundaries.train_end), ("valid_end", boundaries.valid_end)],
    )


def load_splits(directory, template: TemporalMultiGraph):
    """Load split graphs written by :func:`save_splits`.

    ``template`` supplies the vocabulary sizes and metadata (usually the full
    graph the splits were derived from).
    """
    directory = Path(directory)
    path = directory / "boundaries.txt"
    kv = read_keyvalue_file(path)
    boundaries = SplitBoundaries(
        *(_meta_field(kv, key, path, _int64, "an int64 timestamp")
          for key in ("train_end", "valid_end")))
    parts = []
    for name in ("train.csv", "valid.csv", "test.csv"):
        parts.append(
            load_dense_edgelist(
                directory / name,
                node_count=template.node_count,
                relation_count=template.relation_count,
                node_types=template.node_types,
                granularity=template.granularity,
                inverse_augmented=template.inverse_augmented,
            )
        )
    return parts[0], parts[1], parts[2], boundaries
