"""Reproducible negative-candidate generation and its on-disk format.

:func:`generate_negative_set` is the one generator: every strategy in
:data:`STRATEGIES` runs the same pool -> exclude -> draw -> pad routine and
differs only in the pool each query draws from, whether short lists are
padded, and the q it records (the table in its docstring). Candidate draws use
a counter-based RNG keyed on (seed, query index), so a query's draw does not
depend on the order in which queries are generated. Candidate lists never
contain the true destination and never contain a temporal conflict, i.e. a
node c for which (source, relation, c, timestamp) is a true fact anywhere in
the dataset.

Generation is bulk work over the query table in passes cut by :func:`_cuts`;
only the Philox reset and one ``Generator.choice`` per sampled or padded list
are per query (see :func:`_draw`).

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
    records   in canonical order (timestamp, source, relation, truth,
              direction), per query six varints: source, relation, zigzag
              timestamp, truth, direction (a u8, 0 tail / 1 head, so also
              its own 1-byte varint) and candidate count; then the sorted
              candidate ids delta-encoded as varints (first id, then gaps)
    crc       u32 crc32 of everything above

The records form one unsigned-LEB128 varint stream, coded with numpy in
fixed-size blocks. A magic or version mismatch raises FormatError; any other
malformed or out-of-range content raises CorruptionError.

:func:`open_negative_set` checks a file and leaves its records on disk; the
engine decodes them one pass of :data:`_BLOCK_BYTES` bytes at a time as it
reaches them (:meth:`NegativeSetFile.passes`). :func:`read_negative_set`
opens a file and takes every record. A record out of canonical order is
malformed content like any other: a CorruptionError naming it, found by the
pass that decodes it.
"""

from __future__ import annotations

import mmap
import os
import struct
import warnings
import zlib
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, CorruptionError, DataError, FormatError
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
_BLOCK_BYTES = 1 << 15  # record bytes per vectorised decode pass, cut at a varint end
_READ_BYTES = 1 << 16  # bytes per read while a file is checked
_SHIFTS = np.arange(0, 70, 7, dtype=np.uint64)  # bit offset of each varint byte
_EMPTY = np.empty(0, dtype=np.int64)


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
    """Pre-generated candidate lists, one per evaluation query, held as columns.

    - ``table``: int64, shape ``(5, n)``: each record's source, relation,
      timestamp, truth and head flag (0 tail, 1 head), one column per
      record; the same rows as the engine's query table, and in its
      canonical order: by timestamp, source, relation, truth, then head.
    - ``offsets``: int64, shape ``(n + 1,)``, from 0 up to ``len(ids)``.
    - ``ids``: int32 or int64; record k's sorted candidates are
      ``ids[offsets[k]:offsets[k + 1]]``. A generated set holds int32 ids
      whenever ``node_count <= 2**31``, a set read from a file whenever
      every id is below 2**31, and the constructor int64; files do not
      depend on it.

    The columns are read-only. ``queries`` and ``candidates`` are read-only
    sequence views over them: ``queries[k]`` is record k's
    :class:`EvalQuery` and ``candidates[k]`` its candidate array, a view
    into ``ids``; ``queries`` compares equal to a list or tuple of the same
    queries. For the "all" strategy the lists may be left
    unmaterialized (``offsets``, ``ids`` and ``candidates`` are None, every
    node implied, :func:`all_candidates` per query); the engine ranks every
    node without building the lists, which keeps 1-vs-all evaluation
    memory-lean.

    The constructor takes per-record sequences and copies them into
    columns; a record that int64 columns cannot hold (a field outside
    int64, an unknown direction, non-integer ids) is a DataError.
    :meth:`from_columns` adopts ready columns. Either way, records in
    canonical order (every set this package generates or reads from a file)
    are found so in one O(n) pass and kept as they are, without a copy;
    records in another order are put in it once, by a stable sort, so equal
    records keep their order.
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
        if candidates is not None and len(candidates) != len(queries):
            raise DataError("one candidate list per query required")
        columns = (None, None) if candidates is None else _flatten(candidates)
        self._adopt(strategy, q, seed, _table(queries), *columns, provenance)

    @classmethod
    def from_columns(cls, strategy: str, q: int, seed: int, table: np.ndarray,
                     offsets: np.ndarray | None, ids: np.ndarray | None,
                     provenance: Provenance = Provenance()) -> NegativeSampleSet:
        """A set over the given columns, made read-only: kept as they are when
        the records are in canonical order, else put in it."""
        sample_set = cls.__new__(cls)
        sample_set._adopt(strategy, q, seed, table, offsets, ids, provenance)
        return sample_set

    def _adopt(self, strategy, q, seed, table, offsets, ids, provenance) -> None:
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}")
        if offsets is None and strategy != "all":
            raise DataError("only the all-strategy supports unmaterialized candidates")
        if table.dtype != np.int64 or table.ndim != 2 or len(table) != 5:
            raise DataError("the query table must be int64 with five rows")
        if offsets is not None and not (
                ids.dtype in (np.int32, np.int64) and offsets.dtype == np.int64 and ids.ndim == 1
                and offsets.shape == (table.shape[1] + 1,) and offsets[0] == 0
                and offsets[-1] == len(ids) and (offsets[1:] >= offsets[:-1]).all()):
            raise DataError("offsets must rise from 0 to len(ids), one step per query")
        if _canonical(table) is not None:
            order = np.lexsort(table[[4, 3, 1, 0, 2]])  # stable: by t, s, r, truth, head
            table = table[:, order]
            if offsets is not None:
                lengths = np.diff(offsets)[order]
                moved = _column(len(ids), ids.dtype)
                np.take(ids, _ranges(offsets[order], lengths), out=moved)
                ids, offsets = moved, np.concatenate([[0], np.cumsum(lengths)])
        for column in (table, offsets, ids):
            if column is not None:
                column.setflags(write=False)
        self.strategy = strategy
        self.q = int(q)
        self.seed = int(seed)
        self.table, self.offsets, self.ids = table, offsets, ids
        self.queries = _Queries(table)
        self.candidates = None if offsets is None else _Candidates(offsets, ids)
        self.provenance = provenance

    def __len__(self) -> int:
        return self.table.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NegativeSampleSet):
            return NotImplemented
        header = (self.strategy, self.q, self.seed, self.provenance)
        if header != (other.strategy, other.q, other.seed, other.provenance):
            return False
        if not np.array_equal(self.table, other.table):
            return False
        if self.candidates is None or other.candidates is None:
            return self.candidates is other.candidates
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.ids, other.ids)

    def passes(self):
        """As :meth:`NegativeSetFile.passes`, views cut by :func:`_cuts` over
        each list and its truth; an unmaterialized set is a DataError."""
        if self.candidates is None:
            raise DataError("an unmaterialized all-strategy set has no lists to pass")
        bounds = _cuts(np.diff(self.offsets) + 1).tolist()
        for a, b in zip(bounds, bounds[1:]):
            offsets = self.offsets[a : b + 1]
            yield self.table[:, a:b], np.diff(offsets), self.ids[offsets[0] : offsets[-1]]


class _Queries(Sequence):
    """Read-only :class:`EvalQuery` view of a query table, one per column."""

    def __init__(self, table: np.ndarray):
        self._table = table

    def __len__(self) -> int:
        return self._table.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _as_queries(self._table[:, k])
        source, relation, timestamp, truth, head = self._table[:, k].tolist()
        return EvalQuery(source, relation, timestamp, truth, _DIRECTIONS[head])

    def __iter__(self):
        return iter(_as_queries(self._table))

    def __eq__(self, other) -> bool:
        if isinstance(other, _Queries):
            return np.array_equal(self._table, other._table)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class _Candidates(Sequence):
    """Read-only view of each record's candidates, ``ids[offsets[k]:offsets[k + 1]]``."""

    def __init__(self, offsets: np.ndarray, ids: np.ndarray):
        self._offsets, self._ids = offsets, ids

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        k = range(len(self))[k]  # a negative index counts from the end
        return self._ids[self._offsets[k]:self._offsets[k + 1]]

    def __iter__(self):
        bounds = self._offsets.tolist()
        return (self._ids[a:b] for a, b in zip(bounds, bounds[1:]))


def _table(queries) -> np.ndarray:
    """The int64 (source, relation, timestamp, truth, head) rows of EvalQuery
    records; a :class:`_Queries` view gives its own table."""
    if isinstance(queries, _Queries):
        return queries._table
    try:
        rows = [(*query[:4], _DIRECTION_CODE[query.direction]) for query in queries]
    except KeyError:
        raise DataError(f"query directions must be one of {_DIRECTIONS}") from None
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 5).T.copy()
    except OverflowError:
        raise DataError("record fields must lie in the int64 range") from None


def _as_queries(table: np.ndarray) -> list:
    """The :class:`EvalQuery` of each column of a query table."""
    directions = np.array(_DIRECTIONS, dtype=object)[table[4]].tolist()
    return list(map(EvalQuery, *table[:4].tolist(), directions))


def _flatten(candidates) -> tuple:
    """(offsets, ids) of a sequence of integer candidate arrays."""
    arrays = [np.asarray(c) for c in candidates]
    if any(a.size and a.dtype.kind not in "iu" for a in arrays):
        raise DataError("candidate ids must be integer arrays")
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    return offsets, np.concatenate([_EMPTY, *arrays], dtype=np.int64, casting="unsafe")


def _canonical(table: np.ndarray) -> int | None:
    """None if the columns of a query table are in canonical order, ascending
    by (timestamp, source, relation, truth, head), where equal columns may
    repeat; else the first column that sorts before the one ahead of it."""
    ordered = np.ones(max(table.shape[1] - 1, 0), dtype=bool)
    for row in (4, 3, 1, 0, 2):  # from the last key to the first
        before, after = table[row, :-1], table[row, 1:]
        ordered = (before < after) | (before == after) & ordered
    return None if ordered.all() else int(ordered.argmin()) + 1


def _check_queries(universe: TemporalMultiGraph, table: np.ndarray) -> None:
    """Every query's relation, source and truth must be ids of the universe."""
    checked = table[[1, 0, 3]]  # relation, source, truth
    bounds = np.array([[universe.relation_count], [universe.node_count], [universe.node_count]])
    outside = ((checked < 0) | (checked >= bounds)).any(axis=1)
    if outside[0]:
        raise DataError(
            "query relation outside the graph's relation space; pass the "
            "inverse-augmented graph when evaluating TKG queries"
        )
    if outside[1:].any():
        raise DataError("query source or truth outside the graph's node space")


def _facts(universe: TemporalMultiGraph, lo, hi, truths) -> tuple:
    """(query, id) of each fact at a query's (s, r, t) other than its truth,
    ids ascending per query; queries count from 0."""
    runs = hi - lo
    query = np.repeat(np.arange(len(runs)), runs)
    facts = universe.objects[_ranges(lo, runs)]
    other = facts != truths[query]
    return query[other], facts[other]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[k] .. starts[k] + lengths[k] - 1``, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def all_candidates(universe: TemporalMultiGraph, query: EvalQuery) -> np.ndarray:
    """Every node except the truth and the temporal conflicts, ascending."""
    table = _table([query])
    return _draw(universe, table, universe.node_count, 0, _pools("all", universe, table), False)[1]


def _tail_pools(graph: TemporalMultiGraph) -> tuple:
    """(objects, bounds): relation r's sorted distinct objects are
    ``objects[bounds[r]:bounds[r + 1]]``."""
    codes = np.sort(graph.relations * graph.node_count + graph.objects)
    relations, objects = np.divmod(codes[run_starts(codes)], graph.node_count)
    return objects, relations.searchsorted(np.arange(graph.relation_count + 1))


def collect_tail_pools(graph: TemporalMultiGraph) -> dict:
    """relation-id -> sorted array of every node observed as its object.

    Collected over the whole dataset (all splits). On an inverse-augmented
    graph the pool of r + R therefore equals the subjects of r.
    """
    objects, bounds = _tail_pools(graph)
    bounds = bounds.tolist()
    return {r: objects[a:b] for r, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a}


def _clamp_q(q: int, node_count: int) -> int:
    if q < 1:
        raise ConfigError("q must be >= 1")
    if q > node_count - 1:
        warnings.warn(
            f"q={q} exceeds node_count-1={node_count - 1}; clamped", stacklevel=3
        )
        return node_count - 1
    return q


# The most cells of one bulk pass beyond its first query's: the cells a draw
# may touch (q plus twice the exclusions per query, which bounds its list, its
# left-out positions and its barred set) or the cells the engine scores into
# one buffer. It bounds the pass's temporaries, e.g. for 1-vs-all lists.
_CHUNK_CELLS = 1 << 15


def _cuts(cells: np.ndarray) -> np.ndarray:
    """Bounds ``0 = c[0] < c[1] < ... = len(cells)`` that cut queries holding
    ``cells`` cells each into passes of at most :data:`_CHUNK_CELLS` cells
    beyond the first query's: a pass ends at the query whose running total
    first exceeds a multiple of the bound."""
    total = np.cumsum(cells)
    multiples = np.arange(_CHUNK_CELLS, total.max(initial=0), _CHUNK_CELLS)
    return np.unique(np.concatenate([[0, len(cells)], total.searchsorted(multiples, "right")]))


def _draw(universe: TemporalMultiGraph, table, q: int, seed: int, pools: _Pools,
          pad: bool) -> tuple:
    """(offsets, ids) of a candidate list per query: pool minus exclusions,
    sampled or padded to q.

    Query i, column i of the query ``table``, draws from pool ``pools.of[i]``.
    It keeps every pool member that is neither its truth nor a temporal
    conflict. More than q kept members are sampled down to q; with ``pad``,
    fewer than q are topped up from the conflict-free nodes outside the pool,
    so the list has min(q, available) entries.

    The queries are drawn in chunks cut by :func:`_cuts`, so temporaries
    stay O(chunk). Within a chunk only the draws are per query: for a
    sampled list, the Philox reset to key (seed, i) and one
    ``Generator.choice(kept, q)`` into a row of the chunk's ``(lists, q)``
    block; for a padded list, the reset and one ``choice(outside, take)``.
    The rest is bulk work over the chunk:

    - the exclusions (fact runs and truths) are found in the pools by one
      binary search of the codes ``pool * node_count + id``;
    - a draw picks positions among the kept members (``Generator.choice(kept,
      ...)`` is ``kept[choice(len(kept), ...)]``, so the Philox stream is
      unchanged); the block's rows are sorted together, a kept list takes
      every position, and one :func:`_skip` maps them all past the excluded
      positions;
    - padding picks positions among the nodes outside each list's barred set
      (its pool and its exclusions), mapped by :func:`_skip` as well, and the
      padded lists are sorted together.

    The lists are written into one ids column sized for the longest lists
    possible; its pages past the ids written are never touched.
    """
    n, m = universe.node_count, table.shape[1]
    lo, hi = universe.fact_runs(*table[:3])
    first = pools.bounds[pools.of]
    size = pools.bounds[pools.of + 1] - first
    # every pool member coded pool * n + id, ascending, then one code above them all
    count = len(pools.bounds) - 1
    members = np.append(np.repeat(np.arange(count), np.diff(pools.bounds)) * n + pools.ids,
                        count * n)
    # One Philox bit generator, reset per query to the state Philox(key=(seed, i))
    # starts in: counter-based streams, so generation order cannot change draws.
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    # the fresh state with lists for arrays, which the state setter reads faster
    fresh = {name: value.tolist() if isinstance(value, np.ndarray) else value
             for name, value in bits.state.items()}
    fresh["state"] = {name: value.tolist() for name, value in fresh["state"].items()}
    key = fresh["state"]["key"]

    def choose(i: int, population: int, k: int) -> np.ndarray:
        key[1] = i
        bits.state = fresh
        return rng.choice(population, size=k, replace=False)

    ids = _column(m * q if pad else int(np.minimum(size, q).sum()), _id_dtype(n - 1))
    lengths = np.zeros(m, dtype=np.int64)
    bounds = _cuts(q + 2 * (hi - lo + 1)).tolist()  # by a bound on each query's cells
    end = 0
    for a, b in zip(bounds, bounds[1:]):
        of, start, length, truths = pools.of[a:b], first[a:b], size[a:b], table[3, a:b]
        rows = np.arange(b - a)
        # the temporal conflicts and the truth of each query, each once
        query, facts = _facts(universe, lo[a:b], hi[a:b], truths)
        query, excluded = np.concatenate([query, rows]), np.concatenate([facts, truths])
        codes = np.where((excluded >= 0) & (excluded < n), of[query] * n + excluded, -1)
        at = members.searchsorted(codes)
        hit = members[at] == codes
        # each query's pool positions left out, coded query * n + position
        removed = np.sort(query[hit] * n + at[hit] - start[query[hit]])
        kept = length - np.bincount(query[hit], minlength=b - a)
        picks = np.minimum(kept, q)
        owner = np.repeat(rows, picks)
        chosen = _ranges(np.zeros(b - a, dtype=np.int64), picks)  # every kept position
        sampled = kept > q
        if sampled.any():
            block = np.empty((np.count_nonzero(sampled), q), dtype=np.int64)
            for row, (i, k) in enumerate(zip(np.flatnonzero(sampled).tolist(),
                                             kept[sampled].tolist())):
                block[row] = choose(a + i, k, q)
            block.sort(axis=1)
            chosen[np.repeat(sampled, picks)] = block.ravel()
        own = pools.ids[start[owner] + _skip(chosen, owner, removed, n)]
        short = pad & (kept < q)
        if short.any():
            # the nodes outside the pool and the exclusions are arange(n) minus these
            outside = ~hit & (codes >= 0) & short[query]
            pooled = np.repeat(rows[short], length[short]) * n
            pooled += pools.ids[_ranges(start[short], length[short])]
            barred = np.sort(np.concatenate([pooled, query[outside] * n + excluded[outside]]))
            available = n - np.bincount(barred // n, minlength=b - a)[short]
            take = np.minimum(q - kept[short], available)
            drawn = [choose(a + i, k, t) for i, k, t in zip(
                np.flatnonzero(short).tolist(), available.tolist(), take.tolist()) if t]
            padded = np.repeat(rows[short], take)
            drawn = np.sort(padded * n + np.concatenate([_EMPTY, *drawn])) - padded * n
            padding = _skip(drawn, padded, barred, n)
            own = np.sort(np.concatenate([owner * n + own, padded * n + padding])) % n
            picks[short] += take
        ids[end:end + len(own)] = own
        end += len(own)
        lengths[a:b] = picks
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets, ids[:end]


def _id_dtype(largest: int):
    """int32 for ids up to ``largest`` when it is below 2**31, else int64."""
    return np.int32 if largest < 2**31 else np.int64


def _column(size: int, dtype) -> np.ndarray:
    """An ids column of ``size`` entries in its own anonymous memory map.

    When a large malloc'd block is freed, glibc raises its mmap threshold to
    that block's size (up to 32 MiB) and its trim threshold to twice that, so
    each freed column of a few MiB would leave as much free heap resident for
    the rest of the process. A map is returned to the system whole when the
    column is freed.
    """
    try:
        buffer = mmap.mmap(-1, max(np.dtype(dtype).itemsize * size, 1))
    except OSError:
        raise MemoryError(f"cannot map a column of {size} ids") from None
    return np.frombuffer(buffer, dtype=dtype, count=size)


def _skip(picked: np.ndarray, rows: np.ndarray, barred: np.ndarray, width: int) -> np.ndarray:
    """Map positions among each row's kept members to positions in the whole row.

    Row r's left-out positions are the sorted codes ``r * width + p`` of
    ``barred``, distinct and below ``width``. ``picked[j]`` is a kept
    position of row ``rows[j]``, and the codes ``rows * width + picked``
    ascend. Kept position k of row r lies past every left-out p of r with
    p - (left-out positions of r before p) <= k, so each such threshold
    shifts the picks of r from the first one at or above it to the row's end.
    """
    picks = rows * width + picked
    heads = barred // width * width
    thresholds = barred - (np.arange(len(barred)) - barred.searchsorted(heads))
    shifts = (np.bincount(picks.searchsorted(thresholds), minlength=len(picks) + 1)
              - np.bincount(picks.searchsorted(heads + width), minlength=len(picks) + 1))
    return picked + np.cumsum(shifts[:-1])


class _Pools(NamedTuple):
    """Sorted candidate pools, concatenated once: pool p is
    ``ids[bounds[p]:bounds[p + 1]]``, and query i draws from pool ``of[i]``."""

    ids: np.ndarray
    bounds: np.ndarray
    of: np.ndarray


def _pools(strategy: str, universe: TemporalMultiGraph, table: np.ndarray) -> _Pools:
    """The pools of a strategy and the pool of each query, a column of ``table``."""
    if strategy == "type-aware":
        return _Pools(*_tail_pools(universe), table[1])
    if strategy == "node-type":
        types = universe.node_types
        if types is None:
            raise DataError("node-type sampling requires node types")
        _, kinds = np.unique(types, return_inverse=True)
        bounds = np.zeros(kinds.max(initial=-1) + 2, dtype=np.int64)
        np.cumsum(np.bincount(kinds), out=bounds[1:])
        return _Pools(np.argsort(kinds, kind="stable"), bounds, kinds[table[3]])
    if strategy in ("all", "random"):
        n = universe.node_count
        return _Pools(np.arange(n, dtype=np.int64), np.array([0, n]),
                      np.zeros(table.shape[1], dtype=np.int64))
    raise ConfigError(f"unknown strategy {strategy!r}")


def generate_negative_set(
    strategy: str,
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    q: int = 0,
    seed: int = 0,
    provenance: Provenance = Provenance(),
) -> NegativeSampleSet:
    """One candidate list per query: its pool minus the truth and the
    temporal conflicts, sampled down to q and, for type-aware, padded up to q.

    ==========  ================================  ====================  ==========
    strategy    pool                              padding               recorded q
    ==========  ================================  ====================  ==========
    all         every node                        none                  0
    type-aware  observed objects of the relation  conflict-free nodes   q
                (:func:`collect_tail_pools`)      outside the pool
    node-type   nodes of the truth's node type    none                  q
    random      every node                        none                  q
    ==========  ================================  ====================  ==========

    A sampled strategy clamps q to ``node_count - 1`` with a warning and
    emits min(q, available) candidates per query. Node-type lists are never
    padded across types, so at ``q = node_count - 1`` each holds every
    same-type node. "all" keeps every pool member and records q and seed 0.
    q and seed must be integers (not bools), else a ConfigError; the seed is
    taken modulo 2**64, as it is drawn with and recorded.
    """
    for name, value in (("q", q), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    table = _table(queries)
    _check_queries(graph_all, table)
    pools = _pools(strategy, graph_all, table)
    if strategy == "all":
        # no list exceeds node_count entries, so none is sampled
        q = seed = 0
        columns = _draw(graph_all, table, graph_all.node_count, 0, pools, False)
    else:
        q = _clamp_q(int(q), graph_all.node_count)
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF  # the Philox key word the draws use
        columns = _draw(graph_all, table, q, seed, pools, strategy == "type-aware")
    return NegativeSampleSet.from_columns(strategy, q, seed, table, *columns, provenance)


def generate_all(
    graph_all: TemporalMultiGraph,
    queries: Sequence[EvalQuery],
    provenance: Provenance = Provenance(),
    materialize: bool = True,
) -> NegativeSampleSet:
    """The 1-vs-all universe: all nodes minus conflicts minus the truth.

    Unmaterialized, the set builds no lists and leaves its queries to be
    checked by the engine that ranks them.
    """
    if materialize:
        return generate_negative_set("all", graph_all, queries, provenance=provenance)
    return NegativeSampleSet.from_columns("all", 0, 0, _table(queries), None, None, provenance)


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


def _encode_block(table: np.ndarray, offsets: np.ndarray, ids: np.ndarray) -> bytes:
    """The varint stream of a run of records: six fields each, then the id gaps.

    ``table`` holds the run's query columns, ``offsets`` its ``len + 1``
    offsets into the set's ids and ``ids`` its records' candidates, coded as
    int64 whatever their dtype.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ((table[4] != 0) & (table[4] != 1)).any():
        raise DataError(f"query directions must be one of {_DIRECTIONS}")
    if (table[[0, 1, 3]] < 0).any() or (ids < 0).any():
        raise DataError("varint fields must be non-negative")
    counts = np.diff(offsets)
    starts = offsets[:-1] - offsets[0]
    firsts = starts[counts > 0]
    gaps = np.diff(ids, prepend=0)
    if (np.delete(gaps, firsts) <= 0).any():
        raise DataError("candidate lists must be strictly sorted")
    gaps[firsts] = ids[firsts]
    words = np.vstack((table, counts)).T.view(np.uint64)
    words[:, 2] = (words[:, 2] << 1) ^ (table[2] >> 63).view(np.uint64)  # zigzag
    heads = np.repeat(starts, _RECORD_FIELDS)
    return _leb128(np.insert(gaps.view(np.uint64), heads, words.ravel()))


def _varints(chunk: np.ndarray) -> tuple:
    """(values, ends): the uint64 value and last byte of every whole varint
    in a uint8 chunk, decoded one byte width at a time (most take one or two)."""
    ends = np.flatnonzero(chunk < 0x80)
    widths = np.diff(ends, prepend=-1)
    last = chunk[ends]
    if ((last == 0) & (widths > 1)).any():
        raise CorruptionError("malformed varint in negative-set file")
    top = int(widths.max(initial=0))
    if top > 10 or top == 10 and (last[widths == 10] > 1).any():
        raise CorruptionError("varint outside the int64 range")
    starts = ends - widths + 1
    low = chunk & 0x7F
    values = low[starts].astype(np.uint64)
    for width in range(1, top):
        # byte ``width`` of every varint that long, else 0
        byte = low.take(starts + width, mode="clip") * (widths > width)
        values |= byte.astype(np.uint64) << _SHIFTS[width]
    return values, ends


def _decode_block(chunk, wanted: int, remaining: int, ids_left: int) -> tuple:
    """(bytes taken, fields, ids) of up to ``wanted`` whole records from the
    front of a uint8 chunk.

    ``fields`` is an int64 ``(records, 6)`` array of the records' source,
    relation, timestamp, truth, head and candidate count, and ``ids`` their
    candidates, int64 (0 bytes taken: no record fits). ``remaining`` counts
    the record bytes from the chunk's start to the end of the file, and
    ``ids_left`` the ids the file holds from there on; more ids than that
    mean the file is too short to hold the records its header promises.
    """
    values, ends = _varints(chunk)
    size, rows, i = len(values), [], 0
    for _ in range(min(wanted, size // _RECORD_FIELDS)):
        if i + _RECORD_FIELDS > size:
            break
        count = values.item(i + _RECORD_FIELDS - 1)
        if i + _RECORD_FIELDS + count > size:
            # every candidate takes at least one varint byte
            if count >= remaining - int(ends[i + _RECORD_FIELDS - 1]):
                raise CorruptionError("candidate count exceeds the remaining file bytes")
            break
        rows.append(i)
        i += _RECORD_FIELDS + count
    if not rows:
        return 0, None, None
    heads = (np.array(rows)[:, None] + np.arange(_RECORD_FIELDS)).ravel()
    fields = values[heads].reshape(-1, _RECORD_FIELDS)
    is_id = np.ones(i, dtype=bool)
    is_id[heads] = False
    gaps = values[:i][is_id]
    if len(gaps) > ids_left:
        raise CorruptionError("truncated negative-set file")
    counts = fields[:, 5].astype(np.int64)
    firsts = (np.cumsum(counts) - counts)[counts > 0]
    if (fields[:, 4] > 1).any():
        raise CorruptionError("unknown direction code in negative-set file")
    repeated = gaps == 0
    repeated[firsts] = False  # a first id may be 0
    if repeated.any():
        raise CorruptionError("candidate ids not strictly increasing")
    if max(fields[:, [0, 1, 3]].max(), gaps.max(initial=0)) >> 63:
        raise CorruptionError("record field or candidate id outside the int64 range")
    # one running sum over every record, restarted at each first id by taking
    # the last id of the record before from it: the uint64 wrap-around
    # cancels, and the first sum past 2**63 reads as a negative int64
    if len(firsts) > 1:
        gaps[firsts[1:]] -= np.add.reduceat(gaps, firsts)[:-1]
    ids = np.cumsum(gaps).view(np.int64)
    if ids.min(initial=0) < 0:
        raise CorruptionError("record field or candidate id outside the int64 range")
    zigzag = fields[:, 2]
    fields[:, 2] = (zigzag >> 1) ^ (0 - (zigzag & 1))
    return int(ends[i - 1]) + 1, fields.view(np.int64), ids


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
    table, offsets, ids = sample_set.table, sample_set.offsets, sample_set.ids
    for lo in range(0, len(sample_set), _BLOCK_RECORDS):
        hi = lo + _BLOCK_RECORDS
        bounds = offsets[lo : hi + 1]
        parts.append(_encode_block(table[:, lo:hi], bounds, ids[bounds[0] : bounds[-1]]))
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


def _open(path):
    """The file at ``path`` opened for binary reading; an unreadable path is a
    DataError naming it."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None


def open_negative_set(path) -> NegativeSetFile:
    """Open a negative-set file, check it whole, and leave its records on disk.

    The file is read in blocks of :data:`_READ_BYTES`, never held whole. The
    magic and version are checked first (FormatError), then the checksum, the
    header and the header's record count against the varints the file holds,
    as every record takes at least six (CorruptionError). Anything else wrong
    with a record is found when it is decoded. An unreadable path is a
    DataError naming it.
    """
    with _open(path) as fh:
        limit = os.fstat(fh.fileno()).st_size - 4
        head = fh.read(len(_MAGIC) + 2)
        if len(head) < len(_MAGIC) + 2:
            raise CorruptionError("negative-set file shorter than its header")
        if head[: len(_MAGIC)] != _MAGIC:
            raise FormatError("not a negative-set file (bad magic)")
        (version,) = struct.unpack_from("<H", head, len(_MAGIC))
        if version != _VERSION:
            raise FormatError(f"unsupported negative-set version {version}")
        if limit < len(_MAGIC) + 4 + 24:
            raise CorruptionError("truncated negative-set file")
        fh.seek(0)
        crc, varints, left = 0, 0, limit
        while left:
            block = fh.read(min(left, _READ_BYTES))
            if not block:
                raise CorruptionError("truncated negative-set file")
            crc = zlib.crc32(block, crc)
            varints += int(np.count_nonzero(np.frombuffer(block, dtype=np.uint8) < 0x80))
            left -= len(block)
        if crc != struct.unpack("<I", fh.read(4))[0]:
            raise CorruptionError("negative-set file failed its checksum")

        fh.seek(len(_MAGIC) + 2)
        fixed = fh.read(26)
        strategy_code, _reserved, q, seed, count = struct.unpack("<BBQQQ", fixed)
        if strategy_code >= len(STRATEGIES):
            raise FormatError(f"unknown strategy code {strategy_code}")
        header, texts = [head, fixed], []
        for _ in range(3):
            size = fh.read(2)
            length = int.from_bytes(size, "little")
            if sum(map(len, header)) + 2 + length > limit:
                raise CorruptionError("truncated negative-set file")
            text = fh.read(length)
            header += [size, text]
            try:
                texts.append(text.decode("utf-8"))
            except UnicodeDecodeError:
                raise CorruptionError("provenance string is not utf-8") from None
    body = sum(map(len, header))
    varints -= sum(int(np.count_nonzero(np.frombuffer(part, dtype=np.uint8) < 0x80))
                   for part in header)
    if count > varints // _RECORD_FIELDS:
        raise CorruptionError(f"record count {count} exceeds what the file holds")
    return NegativeSetFile(path, STRATEGIES[strategy_code], q, seed, Provenance(*texts),
                           count, body, limit, varints - _RECORD_FIELDS * count)


class NegativeSetFile:
    """A checked negative-set file whose records are decoded only when read.

    ``strategy``, ``q``, ``seed`` and ``provenance`` come from its header, and
    ``len()`` is its record count. Each call of :meth:`passes` reads the file
    from its first record, so one opened file can be evaluated more than
    once; :meth:`read` decodes every record into a :class:`NegativeSampleSet`.
    """

    def __init__(self, path, strategy, q, seed, provenance, count, body, limit, ids):
        self.path, self.strategy, self.q, self.seed = path, strategy, q, seed
        self.provenance = provenance
        # records from byte ``body`` up to ``limit``, holding ``ids`` candidates
        self._count, self._body, self._limit, self._ids = count, body, limit, ids

    def __len__(self) -> int:
        return self._count

    def passes(self):
        """Yield ``(table, counts, ids)`` of consecutive whole records, one
        decode pass at a time: their ``(5, k)`` query columns, candidate counts
        and candidates, int64. A pass reads :data:`_BLOCK_BYTES` bytes, and
        grows, and stays grown, while one record outgrows it; no byte is held
        between passes. A malformed record, or one out of canonical order, is
        a CorruptionError when its pass reaches it, and bytes after the last
        record are one when the passes run out."""
        offset, records, ids_left, size = self._body, 0, self._ids, _BLOCK_BYTES
        last = np.empty((5, 0), dtype=np.int64)  # the record before the pass
        while records < self._count:
            want = min(size, self._limit - offset)
            with _open(self.path) as fh:
                fh.seek(offset)
                data = fh.read(want)
            taken, fields, ids = _decode_block(np.frombuffer(data, dtype=np.uint8),
                                               self._count - records, self._limit - offset,
                                               ids_left)
            if len(data) < want or not taken and want == self._limit - offset:
                raise CorruptionError("truncated negative-set file")
            if not taken:
                size *= 2  # one record outgrows the pass
                continue
            table = fields[:, :5].T
            disorder = _canonical(np.concatenate([last, table], axis=1))
            if disorder is not None:
                k = disorder - last.shape[1]
                raise CorruptionError(f"negative record {records + k} is out of canonical "
                                      f"order: {_Queries(table)[k]}")
            offset, records, ids_left = offset + taken, records + len(fields), ids_left - len(ids)
            last = table[:, -1:]
            yield table, fields[:, 5], ids
        if offset != self._limit:
            raise CorruptionError("trailing bytes after the last negative record")

    def read(self) -> NegativeSampleSet:
        """Every record, decoded into columns: one ids column of the size the
        file holds, int32 until an id reaches 2**31."""
        ids = _column(self._ids, np.int32)
        tables, lengths, filled = [np.empty((5, 0), dtype=np.int64)], [_EMPTY], 0
        for table, counts, block in self.passes():
            if ids.dtype == np.int32 and block.max(initial=0) >= 2**31:
                wide = _column(len(ids), np.int64)
                wide[:filled] = ids[:filled]
                ids = wide
            ids[filled : filled + len(block)] = block
            filled += len(block)
            tables.append(table)
            lengths.append(counts)
        offsets = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
        return NegativeSampleSet.from_columns(self.strategy, self.q, self.seed,
                                              np.concatenate(tables, axis=1), offsets, ids,
                                              self.provenance)


def read_negative_set(path) -> NegativeSampleSet:
    """Decode a whole negative-set file into a :class:`NegativeSampleSet`: open
    it (:func:`open_negative_set`, which checks it) and take every record."""
    return open_negative_set(path).read()
