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
    records   per query: varint source, varint relation, zigzag-varint
              timestamp, varint truth, u8 direction (0 tail / 1 head),
              varint candidate count, then the sorted candidate ids
              delta-encoded as varints (first id, then gaps)
    crc       u32 crc32 of everything above

A magic or version mismatch raises FormatError; truncation or a failed
checksum raises CorruptionError.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, CorruptionError, DataError, FormatError, ProtocolError
from .graph import TemporalMultiGraph

GENERATOR_VERSION = "chronolink-negatives-1"
STRATEGIES = ("all", "type-aware", "node-type", "random")

_MAGIC = b"TMGNSET1"
_VERSION = 1
_STRATEGY_CODE = {name: i for i, name in enumerate(STRATEGIES)}
_DIRECTION_CODE = {"tail": 0, "head": 1}


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
    "all" strategy the lists may be left unmaterialized (``candidates &
    node_count`` implied); :meth:`candidates_for` then reconstructs them on
    demand, which keeps 1-vs-all evaluation memory-lean.
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
        if (
            self.strategy != other.strategy
            or self.q != other.q
            or self.seed != other.seed
            or self.queries != other.queries
            or self.provenance != other.provenance
        ):
            return False
        if (self.candidates is None) != (other.candidates is None):
            return False
        if self.candidates is None:
            return True
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


def _query_rng(seed: int, query_index: int) -> np.random.Generator:
    # Counter-based: every query gets an independent stream derived from
    # (seed, index), so generation order cannot change draws.
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, query_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _excluded(universe: TemporalMultiGraph, query: EvalQuery) -> np.ndarray:
    """Sorted union of the true destination and all temporal conflicts."""
    conflicts = universe.objects_at(query.source, query.relation, query.timestamp)
    return np.union1d(conflicts, np.array([query.true_destination], dtype=np.int64))


def _check_queries(universe: TemporalMultiGraph, queries) -> None:
    for query in queries:
        if query.relation >= universe.relation_count:
            raise DataError(
                "query relation outside the graph's relation space; pass the "
                "inverse-augmented graph when evaluating TKG queries"
            )


def all_candidates(universe: TemporalMultiGraph, query: EvalQuery) -> np.ndarray:
    """Every node except the truth and the temporal conflicts, ascending."""
    return np.setdiff1d(
        np.arange(universe.node_count, dtype=np.int64),
        _excluded(universe, query),
        assume_unique=True,
    )


def collect_tail_pools(graph: TemporalMultiGraph) -> dict:
    """relation-id -> sorted array of every node observed as its object.

    Collected over the whole dataset (all splits). On an inverse-augmented
    graph the pool of r + R therefore equals the subjects of r.
    """
    pools = {}
    order = np.lexsort((graph.objects, graph.relations))
    r = graph.relations[order]
    o = graph.objects[order]
    n = len(r)
    if n == 0:
        return pools
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = r[1:] != r[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    for lo, hi in zip(starts, ends):
        pools[int(r[lo])] = np.unique(o[lo:hi])
    return pools


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
    min(q, available) entries.
    """
    everything = np.arange(universe.node_count, dtype=np.int64)
    lists = []
    for i, (query, pool) in enumerate(zip(queries, pools)):
        excluded = _excluded(universe, query)
        kept = np.setdiff1d(pool, excluded, assume_unique=True)
        if len(kept) > q:
            kept = np.sort(_query_rng(seed, i).choice(kept, size=q, replace=False))
        elif pad and len(kept) < q:
            outside = np.setdiff1d(everything, np.union1d(pool, excluded), assume_unique=True)
            take = min(q - len(kept), len(outside))
            padding = _query_rng(seed, i).choice(outside, size=take, replace=False)
            kept = np.sort(np.concatenate([kept, padding]))
        lists.append(kept)
    return lists


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
    candidates = None
    if materialize:
        candidates = [all_candidates(graph_all, query) for query in queries]
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


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise DataError("varint fields must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _write_string(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    if len(data) > 0xFFFF:
        raise DataError("provenance string too long")
    out.extend(struct.pack("<H", len(data)))
    out.extend(data)


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise CorruptionError("truncated negative-set file")
        chunk = self.data[self.offset : self.offset + n]
        self.offset += n
        return chunk

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 70:
                raise CorruptionError("malformed varint in negative-set file")

    def string(self) -> str:
        (length,) = struct.unpack("<H", self.take(2))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError:
            raise CorruptionError("provenance string is not utf-8") from None


def write_negative_set(sample_set: NegativeSampleSet, path) -> None:
    """Serialize a sample set; unmaterialized all-strategy sets are materialized first."""
    if sample_set.candidates is None:
        raise DataError(
            "cannot serialize an unmaterialized all-strategy set; "
            "regenerate with materialize=True"
        )
    out = bytearray()
    out.extend(_MAGIC)
    out.extend(struct.pack("<HBB", _VERSION, _STRATEGY_CODE[sample_set.strategy], 0))
    out.extend(
        struct.pack(
            "<QQQ",
            sample_set.q,
            sample_set.seed & 0xFFFFFFFFFFFFFFFF,
            len(sample_set),
        )
    )
    _write_string(out, sample_set.provenance.dataset)
    _write_string(out, sample_set.provenance.split)
    _write_string(out, sample_set.provenance.generator)
    for query, cands in zip(sample_set.queries, sample_set.candidates):
        _write_varint(out, query.source)
        _write_varint(out, query.relation)
        _write_varint(out, _zigzag(query.timestamp))
        _write_varint(out, query.true_destination)
        out.append(_DIRECTION_CODE[query.direction])
        _write_varint(out, len(cands))
        previous = None
        for value in cands.tolist():
            if previous is None:
                _write_varint(out, value)
            else:
                gap = value - previous
                if gap <= 0:
                    raise DataError("candidate lists must be strictly sorted")
                _write_varint(out, gap)
            previous = value
    out.extend(struct.pack("<I", zlib.crc32(bytes(out))))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


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
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(data[:-4]) != stored_crc:
        raise CorruptionError("negative-set file failed its checksum")

    reader = _Reader(data[:-4], len(_MAGIC) + 2)
    strategy_code, _reserved = struct.unpack("<BB", reader.take(2))
    try:
        strategy = STRATEGIES[strategy_code]
    except IndexError:
        raise FormatError(f"unknown strategy code {strategy_code}") from None
    q, seed, count = struct.unpack("<QQQ", reader.take(24))
    provenance = Provenance(reader.string(), reader.string(), reader.string())
    queries = []
    candidates = []
    directions = {code: name for name, code in _DIRECTION_CODE.items()}
    for _ in range(count):
        source = reader.varint()
        relation = reader.varint()
        timestamp = _unzigzag(reader.varint())
        truth = reader.varint()
        direction_code = reader.take(1)[0]
        if direction_code not in directions:
            raise CorruptionError(f"unknown direction code {direction_code}")
        n_cands = reader.varint()
        if n_cands > len(reader.data) - reader.offset:
            # every candidate takes at least one varint byte
            raise CorruptionError("candidate count exceeds the remaining file bytes")
        values = np.empty(n_cands, dtype=np.int64)
        running = 0
        try:
            for j in range(n_cands):
                step = reader.varint()
                running = step if j == 0 else running + step
                values[j] = running
        except OverflowError:
            raise CorruptionError("candidate id outside the int64 range") from None
        queries.append(EvalQuery(source, relation, timestamp, truth, directions[direction_code]))
        candidates.append(values)
    if reader.offset != len(reader.data):
        raise CorruptionError("trailing bytes after the last negative record")
    return NegativeSampleSet(strategy, q, seed, queries, candidates, provenance)
