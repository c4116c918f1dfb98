"""Reproducible negative-candidate generation and its on-disk format.

Candidate draws use a counter-based RNG keyed on (seed, query index), so a
query's draw does not depend on the order in which queries are generated. All
strategies share one pool -> exclude -> draw -> pad routine and differ only in
the pool each query draws from and whether short lists are padded. Candidate
lists never contain the true destination and never contain a temporal
conflict, i.e. a node c for which (source, relation, c, timestamp) is a true
fact anywhere in the dataset.

Serialized layout (little-endian)::

    magic     8s   b"TMGNSET1"
    version   u16  1
    strategy  u8   0=all 1=type-aware 2=node-type 3=random
    reserved  u8   0
    q         u64
    seed      u64
    queries   u64  record count
    dataset   u16 length + utf-8 bytes      (provenance)
    split     u16 length + utf-8 bytes
    generator u16 length + utf-8 bytes
    records   per query six varints: source, relation, zigzag timestamp,
              truth, direction (a u8, 0 tail / 1 head, so also its own
              1-byte varint) and candidate count; then the sorted candidate
              ids delta-encoded as varints (first id, then gaps)
    crc       u32 crc32 of everything above

The records form one unsigned-LEB128 varint stream, coded with numpy in
fixed-size blocks. A magic or version mismatch raises FormatError; any other
malformed or out-of-range content raises CorruptionError.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, CorruptionError, DataError, FormatError, ProtocolError
from .graph import TemporalMultiGraph, run_starts

GENERATOR_VERSION = "chronolink-negatives-1"
STRATEGIES = ("all", "type-aware", "node-type", "random")

_MAGIC = b"TMGNSET1"
_VERSION = 1
_STRATEGY_CODE = {name: i for i, name in enumerate(STRATEGIES)}
_DIRECTIONS = ("tail", "head")
_DIRECTION_CODE = {name: i for i, name in enumerate(_DIRECTIONS)}

_RECORD_FIELDS = 6  # source, relation, zigzag timestamp, truth, direction, count
_BLOCK_RECORDS = 256  # records per vectorised encode pass
_BLOCK_BYTES = 1 << 14  # record bytes per vectorised decode pass, cut at a varint end
_SHIFTS = np.arange(0, 70, 7, dtype=np.uint64)  # bit offset of each varint byte


class EvalQuery(NamedTuple):
    """One ranking query (source, relation, ?, timestamp) with its answer.

    Head-direction queries exist only for TKG datasets; inverse augmentation
    has already mapped them to tail form, so ``relation`` is then an inverse
    relation id and ``direction`` records the provenance.
    """

    source: int
    relation: int
    timestamp: int
    true_destination: int
    direction: str = "tail"


@dataclass(frozen=True)
class Provenance:
    dataset: str = ""
    split: str = ""
    generator: str = GENERATOR_VERSION


class NegativeSampleSet:
    """Pre-generated candidate lists, one per evaluation query.

    ``candidates[i]`` is a sorted int64 array for ``queries[i]``. For the
    "all" strategy the lists may be left unmaterialized (``candidates is
    None``, every node implied); :meth:`candidates_for` reconstructs one on
    demand, and the engine ranks every node without building the lists,
    which keeps 1-vs-all evaluation memory-lean.
    """

    def __init__(
        self,
        strategy: str,
        q: int,
        seed: int,
        queries: Sequence[EvalQuery],
        candidates: Sequence[np.ndarray] | None,
        provenance: Provenance = Provenance(),
    ):
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}")
        if candidates is not None and len(candidates) != len(queries):
            raise DataError("one candidate list per query required")
        if candidates is None and strategy != "all":
            raise DataError("only the all-strategy supports unmaterialized candidates")
        self.strategy = strategy
        self.q = int(q)
        self.seed = int(seed)
        self.queries = list(queries)
        self.candidates = None if candidates is None else list(candidates)
        self.provenance = provenance
        self._lookup = None

    def __len__(self) -> int:
        return len(self.queries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NegativeSampleSet):
            return NotImplemented
        header = (self.strategy, self.q, self.seed, self.queries, self.provenance)
        if header != (other.strategy, other.q, other.seed, other.queries, other.provenance):
            return False
        if self.candidates is None or other.candidates is None:
            return self.candidates is other.candidates
        return all(np.array_equal(a, b) for a, b in zip(self.candidates, other.candidates))

    def index_of(self, query: EvalQuery) -> int:
        if self._lookup is None:
            self._lookup = {query: i for i, query in enumerate(self.queries)}
        got = self._lookup.get(query)
        if got is None:
            raise ProtocolError(f"no negative record for query {query}")
        return got

    def candidates_for(self, query: EvalQuery, universe: TemporalMultiGraph | None = None):
        """Candidate array for one query; never silently skips a missing record."""
        i = self.index_of(query)
        if self.candidates is not None:
            return self.candidates[i]
        if universe is None:
            raise ProtocolError("unmaterialized all-strategy set needs the full graph")
        return all_candidates(universe, query)


def _check_queries(universe: TemporalMultiGraph, queries) -> None:
    for query in queries:
        if query.relation >= universe.relation_count:
            raise DataError(
                "query relation outside the graph's relation space; pass the "
                "inverse-augmented graph when evaluating TKG queries"
            )


def all_candidates(universe: TemporalMultiGraph, query: EvalQuery) -> np.ndarray:
    """Every node except the truth and the temporal conflicts, ascending."""
    return _everything_but_excluded(universe, [query])[0]


def _everything_but_excluded(universe: TemporalMultiGraph, queries) -> list:
    # a pool of every node and q = node_count: nothing is sampled or padded
    everything = np.arange(universe.node_count, dtype=np.int64)
    return _draw(universe, queries, universe.node_count, 0, [everything] * len(queries), False)


def collect_tail_pools(graph: TemporalMultiGraph) -> dict:
    """relation-id -> sorted array of every node observed as its object.

    Collected over the whole dataset (all splits). On an inverse-augmented
    graph the pool of r + R therefore equals the subjects of r.
    """
    codes = np.sort(graph.relations * graph.node_count + graph.objects)
    relations, objects = np.divmod(codes[run_starts(codes)], graph.node_count)
    firsts = np.flatnonzero(run_starts(relations))
    return dict(zip(relations[firsts].tolist(), np.split(objects, firsts[1:])))


def _clamp_q(q: int, node_count: int) -> int:
    if q < 1:
        raise ConfigError("q must be >= 1")
    if q > node_count - 1:
        warnings.warn(
            f"q={q} exceeds node_count-1={node_count - 1}; clamped", stacklevel=3
        )
        return node_count - 1
    return q


def _draw(universe: TemporalMultiGraph, queries, q: int, seed: int, pools, pad: bool) -> list:
    """Candidate list per query: pool minus exclusions, sampled or padded to q.

    ``pools[i]`` is the sorted pool of ``queries[i]``. A query keeps every
    pool member that is neither its truth nor a temporal conflict. More than
    q kept members are sampled down to q; with ``pad``, fewer than q are
    topped up from the conflict-free nodes outside the pool, so the list has
    min(q, available) entries. Every query's conflicts come from one bulk
    lookup of the universe's fact runs.

    Excluded ids are located in the pool by binary search and never copied
    out: a draw picks positions among the kept members, and
    ``Generator.choice(kept, ...)`` is ``kept[choice(len(kept), ...)]``, so
    the Philox stream and its one ``choice`` call per query are unchanged.
    """
    node_count = universe.node_count
    keys = np.array([query[:3] for query in queries], dtype=np.int64).reshape(-1, 3)
    lo, hi = universe.fact_runs(keys[:, 0], keys[:, 1], keys[:, 2])
    # One Philox bit generator, reset per query to the state Philox(key=(seed, i))
    # starts in: counter-based streams, so generation order cannot change draws.
    bits = np.random.Philox(key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state
    key = fresh["state"]["key"]
    lists = []
    for i, (query, pool, a, b) in enumerate(zip(queries, pools, lo.tolist(), hi.tolist())):
        # the temporal conflicts and the truth, each once
        excluded = universe.objects[a:b]
        truth = query.true_destination
        if truth not in excluded:
            excluded = np.append(excluded, truth)
        where = pool.searchsorted(excluded)
        removed = where[pool.take(where, mode="clip") == excluded] if len(pool) else where[:0]
        removed.sort()
        kept = len(pool) - len(removed)
        if kept > q:
            key[1] = i
            bits.state = fresh
            lists.append(pool[_skip(np.sort(rng.choice(kept, size=q, replace=False)), removed)])
            continue
        own = np.delete(pool, removed)
        if pad and kept < q:
            # the nodes outside the pool and the exclusions are arange(node_count) minus these
            barred = np.union1d(pool, excluded[(excluded >= 0) & (excluded < node_count)])
            take = min(q - kept, node_count - len(barred))
            key[1] = i
            bits.state = fresh
            padding = _skip(rng.choice(node_count - len(barred), size=take, replace=False), barred)
            own = np.sort(np.concatenate([own, padding]))
        lists.append(own)
    return lists


def _skip(picked: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """Map positions among the kept members to positions in the whole sorted array.

    ``removed`` holds the sorted, distinct positions left out. Kept position k
    lies past every removed position p with p - (removed before p) <= k.
    """
    return picked + np.searchsorted(removed - np.arange(len(removed)), picked, side="right")


def generate_type_aware(
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    q: int,
    seed: int,
    provenance: Provenance = Provenance(),
) -> NegativeSampleSet:
    """1-vs-q sampling biased to observed objects of the query's edge type.

    Draws without replacement from the relation's tail pool first; if fewer
    than q conflict-free pool members exist, pads uniformly from the nodes
    outside the pool. Emits exactly min(q, available) candidates per query.
    """
    _check_queries(graph_all, queries)
    q = _clamp_q(q, graph_all.node_count)
    tail_pools = collect_tail_pools(graph_all)
    empty = np.empty(0, dtype=np.int64)
    pools = [tail_pools.get(query.relation, empty) for query in queries]
    candidates = _draw(graph_all, queries, q, seed, pools, pad=True)
    return NegativeSampleSet("type-aware", q, seed, list(queries), candidates, provenance)


def generate_node_type(
    graph_all: TemporalMultiGraph,
    node_types,
    queries: Sequence[EvalQuery],
    q: int,
    seed: int,
    provenance: Provenance = Provenance(),
    entire_type_universe: bool = False,
) -> NegativeSampleSet:
    """1-vs-q sampling restricted to nodes sharing the truth's node type.

    There is deliberately no cross-type padding: when fewer than q same-type
    nodes remain, the whole same-type universe is emitted. With
    ``entire_type_universe`` the sampling step is skipped entirely and every
    same-type node is kept (q is recorded as 0).
    """
    if node_types is None:
        raise DataError("node-type sampling requires node types")
    types = np.asarray(node_types, dtype=np.int64)
    if len(types) != graph_all.node_count:
        raise DataError("node_types must cover every node")
    _check_queries(graph_all, queries)
    # no list can exceed node_count entries, so q = node_count never draws
    q = graph_all.node_count if entire_type_universe else _clamp_q(q, graph_all.node_count)
    by_type = {int(t): np.flatnonzero(types == t).astype(np.int64) for t in np.unique(types)}
    pools = [by_type[int(types[query.true_destination])] for query in queries]
    candidates = _draw(graph_all, queries, q, seed, pools, pad=False)
    return NegativeSampleSet(
        "node-type",
        0 if entire_type_universe else q,
        seed,
        list(queries),
        candidates,
        provenance,
    )


def generate_random(
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    q: int,
    seed: int,
    provenance: Provenance = Provenance(),
) -> NegativeSampleSet:
    """Uniform 1-vs-q sampling over all nodes (the ablation arm)."""
    _check_queries(graph_all, queries)
    q = _clamp_q(q, graph_all.node_count)
    everything = np.arange(graph_all.node_count, dtype=np.int64)
    candidates = _draw(graph_all, queries, q, seed, [everything] * len(queries), pad=False)
    return NegativeSampleSet("random", q, seed, list(queries), candidates, provenance)


def generate_all(
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    provenance: Provenance = Provenance(),
    materialize: bool = True,
) -> NegativeSampleSet:
    """The 1-vs-all universe: all nodes minus conflicts minus the truth."""
    _check_queries(graph_all, queries)
    candidates = _everything_but_excluded(graph_all, queries) if materialize else None
    return NegativeSampleSet("all", 0, 0, list(queries), candidates, provenance)


def generate_negative_set(
    strategy: str,
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    q: int = 0,
    seed: int = 0,
    provenance: Provenance = Provenance(),
) -> NegativeSampleSet:
    """Dispatch to the strategy-specific generator."""
    if strategy == "all":
        return generate_all(graph_all, queries, provenance)
    if strategy == "type-aware":
        return generate_type_aware(graph_all, queries, q, seed, provenance)
    if strategy == "node-type":
        return generate_node_type(graph_all, graph_all.node_types, queries, q, seed, provenance)
    if strategy == "random":
        return generate_random(graph_all, queries, q, seed, provenance)
    raise ConfigError(f"unknown strategy {strategy!r}")


# -- serialization ---------------------------------------------------------------


def _leb128(values: np.ndarray) -> bytes:
    """LEB128 bytes of a uint64 array: 7-bit groups, low first, high bit = more."""
    widths = np.searchsorted(np.uint64(1) << _SHIFTS[1:], values, side="right") + 1
    out = np.empty(int(widths.sum()), dtype=np.uint8)
    pos = np.cumsum(widths) - widths
    while len(values):
        more = values > 0x7F
        out[pos] = values & 0x7F | more * np.uint64(0x80)
        values = values[more] >> 7
        pos = pos[more] + 1
    return out.tobytes()


def _encode_block(queries, candidates) -> bytes:
    """The varint stream of a run of records: six fields each, then the id gaps."""
    if any(q.direction not in _DIRECTION_CODE for q in queries):
        raise DataError(f"query directions must be one of {_DIRECTIONS}")
    arrays = [np.asarray(c) for c in candidates]
    if any(a.size and a.dtype.kind not in "iu" for a in arrays):
        raise DataError("candidate ids must be integer arrays")
    try:
        fields = np.array(
            [(q.source, q.relation, q.timestamp, q.true_destination,
              _DIRECTION_CODE[q.direction], len(c)) for q, c in zip(queries, arrays)],
            dtype=np.int64,
        ).reshape(-1, _RECORD_FIELDS)
    except OverflowError:
        raise DataError("record fields must lie in the int64 range") from None
    ids = np.concatenate([np.asarray(a, dtype=np.int64) for a in [[], *arrays]])
    if (fields[:, [0, 1, 3]] < 0).any() or (ids < 0).any():
        raise DataError("varint fields must be non-negative")
    counts = fields[:, 5]
    starts = np.cumsum(counts) - counts
    firsts = starts[counts > 0]
    gaps = np.diff(ids, prepend=0)
    if (np.delete(gaps, firsts) <= 0).any():
        raise DataError("candidate lists must be strictly sorted")
    gaps[firsts] = ids[firsts]
    words = fields.view(np.uint64)
    words[:, 2] = (words[:, 2] << 1) ^ (fields[:, 2] >> 63).view(np.uint64)  # zigzag
    heads = np.repeat(starts, _RECORD_FIELDS)
    return _leb128(np.insert(gaps.view(np.uint64), heads, words.ravel()))


def _decode_block(chunk, wanted: int, remaining: int, queries: list, candidates: list) -> int:
    """Append up to ``wanted`` whole records from the front of a uint8 chunk.

    Returns the bytes they took (0: none fits); ``remaining`` counts the record
    bytes from the chunk's start to the end of the file.
    """
    ends = np.flatnonzero(chunk < 0x80)
    if not len(ends):
        return 0
    starts = np.concatenate(([0], ends[:-1] + 1))
    widths = ends - starts + 1
    if ((widths > 1) & (chunk[ends] == 0)).any():
        raise CorruptionError("malformed varint in negative-set file")
    if ((widths > 10) | (widths == 10) & (chunk[ends] > 1)).any():
        raise CorruptionError("varint outside the int64 range")
    shifts = _SHIFTS[np.arange(ends[-1] + 1) - np.repeat(starts, widths)]
    values = np.add.reduceat((chunk[: ends[-1] + 1] & 0x7F).astype(np.uint64) << shifts, starts)
    rows, i = [], 0
    while len(rows) < wanted and i + _RECORD_FIELDS <= len(values):
        count = int(values[i + _RECORD_FIELDS - 1])
        if i + _RECORD_FIELDS + count > len(values):
            # every candidate takes at least one varint byte
            if count >= remaining - int(ends[i + _RECORD_FIELDS - 1]):
                raise CorruptionError("candidate count exceeds the remaining file bytes")
            break
        rows.append(i)
        i += _RECORD_FIELDS + count
    if not rows:
        return 0
    heads = (np.array(rows)[:, None] + np.arange(_RECORD_FIELDS)).ravel()
    fields = values[heads].reshape(-1, _RECORD_FIELDS)
    gaps = np.delete(values[:i], heads)
    counts = fields[:, 5].astype(np.int64)
    firsts = (np.cumsum(counts) - counts)[counts > 0]
    if (fields[:, 4] > 1).any():
        raise CorruptionError("unknown direction code in negative-set file")
    if (np.delete(gaps, firsts) == 0).any():
        raise CorruptionError("candidate ids not strictly increasing")
    # per-record running sums: the uint64 wrap-around cancels in the
    # subtraction, and the first sum past 2**63 reads as a negative int64
    total = np.cumsum(gaps)
    ids = (total - np.repeat(total[firsts] - gaps[firsts], counts[counts > 0])).view(np.int64)
    if (fields[:, [0, 1, 3]] >> 63).any() or (gaps >> 63).any() or (ids < 0).any():
        raise CorruptionError("record field or candidate id outside the int64 range")
    zigzag = fields[:, 2]
    fields[:, 2] = (zigzag >> 1) ^ (0 - (zigzag & 1))
    for source, relation, timestamp, truth, direction in fields[:, :5].view(np.int64).tolist():
        queries.append(EvalQuery(source, relation, timestamp, truth, _DIRECTIONS[direction]))
    candidates.extend(np.split(ids, np.cumsum(counts)[:-1]))
    return int(ends[i - 1]) + 1


def write_negative_set(sample_set: NegativeSampleSet, path) -> None:
    """Serialize a materialized sample set; an unmaterialized one is a DataError."""
    if sample_set.candidates is None:
        raise DataError("cannot serialize an unmaterialized all-strategy set; "
                        "regenerate with materialize=True")
    p = sample_set.provenance
    texts = [text.encode("utf-8") for text in (p.dataset, p.split, p.generator)]
    if max(map(len, texts)) > 0xFFFF:
        raise DataError("provenance string too long")
    if not 0 <= sample_set.q <= 0xFFFFFFFFFFFFFFFF:
        raise DataError(f"q must lie in the uint64 range, got {sample_set.q}")
    code, seed = _STRATEGY_CODE[sample_set.strategy], sample_set.seed & 0xFFFFFFFFFFFFFFFF
    header = struct.pack("<HBBQQQ", _VERSION, code, 0, sample_set.q, seed, len(sample_set))
    parts = [_MAGIC + header]
    parts += [struct.pack("<H", len(text)) + text for text in texts]
    for lo in range(0, len(sample_set), _BLOCK_RECORDS):
        hi = lo + _BLOCK_RECORDS
        parts.append(_encode_block(sample_set.queries[lo:hi], sample_set.candidates[lo:hi]))
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def read_negative_set(path) -> NegativeSampleSet:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 2:
        raise CorruptionError("negative-set file shorter than its header")
    if data[: len(_MAGIC)] != _MAGIC:
        raise FormatError("not a negative-set file (bad magic)")
    (version,) = struct.unpack_from("<H", data, len(_MAGIC))
    if version != _VERSION:
        raise FormatError(f"unsupported negative-set version {version}")
    if len(data) < len(_MAGIC) + 4 + 24 + 4:
        raise CorruptionError("truncated negative-set file")
    limit = len(data) - 4
    if zlib.crc32(memoryview(data)[:limit]) != struct.unpack_from("<I", data, limit)[0]:
        raise CorruptionError("negative-set file failed its checksum")

    strategy_code, _reserved, q, seed, count = struct.unpack_from("<BBQQQ", data, len(_MAGIC) + 2)
    if strategy_code >= len(STRATEGIES):
        raise FormatError(f"unknown strategy code {strategy_code}")
    offset = len(_MAGIC) + 4 + 24
    texts = []
    for _ in range(3):
        length = int.from_bytes(data[offset : offset + 2], "little")
        offset += 2 + length
        if offset > limit:
            raise CorruptionError("truncated negative-set file")
        try:
            texts.append(data[offset - length : offset].decode("utf-8"))
        except UnicodeDecodeError:
            raise CorruptionError("provenance string is not utf-8") from None
    queries, candidates = [], []
    size = _BLOCK_BYTES
    while len(queries) < count:
        stop = min(offset + size, limit)
        chunk = np.frombuffer(data, dtype=np.uint8, count=stop - offset, offset=offset)
        taken = _decode_block(chunk, count - len(queries), limit - offset, queries, candidates)
        if not taken and stop == limit:
            raise CorruptionError("truncated negative-set file")
        offset += taken
        if not taken:
            size *= 2  # one record outgrows the block
    if offset != limit:
        raise CorruptionError("trailing bytes after the last negative record")
    return NegativeSampleSet(STRATEGIES[strategy_code], q, seed, queries, candidates,
                             Provenance(*texts))
