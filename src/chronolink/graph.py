"""Temporal multi-relational graph data model.

A graph is a *set* of quadruples (subject, relation, object, timestamp) held
in columnar int64 arrays, sorted lexicographically by (timestamp, subject,
relation, object) and deduplicated at construction. All node and relation ids
are dense non-negative integers; raw string identifiers live in vocabulary
sidecars handled by :mod:`chronolink.datasets`.

Construction packs each row into one int64 key, ``(((t - t_min) * N' + s) *
R' + r) * N' + o``. N' and R' are the node and relation counts rounded up to
powers of two when the key still fits int64, and the counts themselves when
only they fit. Equal keys are identical rows, so one unstable sort of the keys
orders the rows, dropping equal neighbours removes the duplicates, and the
four columns are decoded back from the sorted keys (by masks and shifts for
power-of-two radices). Rows whose keys already strictly increase, such as a
reloaded edge list, a time slice or a merge of consecutive splits, are kept
as they are after one O(n) check. Graphs whose key would not fit int64 even
with exact radices, such as unix-second spans times N * R * N, fall back to
a four-column lexsort.

Instances are immutable after construction and safe for unrestricted
concurrent reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataError


class Granularity(str, enum.Enum):
    """Unit of one timestamp step."""

    YEAR = "year"
    DAY = "day"
    SECOND = "second"


class Quadruple(NamedTuple):
    """One timestamped directed typed edge."""

    subject: int
    relation: int
    object: int
    timestamp: int


@dataclass(frozen=True)
class SplitBoundaries:
    """Inclusive upper timestamps of the train and validation splits."""

    train_end: int
    valid_end: int

    def __post_init__(self):
        if self.train_end >= self.valid_end:
            raise DataError(
                f"train_end ({self.train_end}) must precede valid_end ({self.valid_end})"
            )


def _as_id_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise DataError(f"{name} must be one-dimensional")
    return arr


class TemporalMultiGraph:
    """Immutable, time-sorted columnar store of quadruples.

    Parameters
    ----------
    subjects, relations, objects, timestamps:
        Parallel int64 sequences; one entry per quadruple. They are sorted
        and exact duplicates are removed (set semantics); the number of
        dropped duplicates is kept in :attr:`duplicates_removed`.
    node_count, relation_count:
        Sizes of the dense id spaces; every subject/object must be
        ``< node_count`` and every relation ``< relation_count``.
    node_types:
        Optional array of length ``node_count`` assigning exactly one type
        id to every node (temporal heterogeneous graphs only).
    """

    __slots__ = (
        "subjects",
        "relations",
        "objects",
        "timestamps",
        "node_count",
        "relation_count",
        "node_types",
        "granularity",
        "inverse_augmented",
        "duplicates_removed",
        "_run_codes",
    )

    def __init__(
        self,
        subjects,
        relations,
        objects,
        timestamps,
        *,
        node_count: int,
        relation_count: int,
        node_types=None,
        granularity: Granularity = Granularity.DAY,
        inverse_augmented: bool = False,
    ):
        s = _as_id_array(subjects, "subjects")
        r = _as_id_array(relations, "relations")
        o = _as_id_array(objects, "objects")
        t = _as_id_array(timestamps, "timestamps")
        if not (len(s) == len(r) == len(o) == len(t)):
            raise DataError("quadruple columns have mismatched lengths")

        dropped, rows = 0, None
        if len(s) > 0:
            if s.min() < 0 or o.min() < 0 or int(max(s.max(), o.max())) >= node_count:
                raise DataError("node id out of range [0, node_count)")
            if r.min() < 0 or int(r.max()) >= relation_count:
                raise DataError("relation id out of range [0, relation_count)")
            packed = _sort_key(s, r, o, t, int(node_count), int(relation_count))
            if packed is None:  # too wide for one int64 code
                order = np.lexsort((o, r, s, t))
                new = _first_of_equal_rows(order, (s, r, o, t))
                order = order[new]
                rows = s[order], r[order], o[order], t[order]
            else:
                key, radices, t_min = packed
                del packed  # the sort below then frees the unsorted keys
                if not (key[1:] > key[:-1]).all():
                    # equal keys are identical rows, so an unstable sort will do
                    key = np.sort(key)
                    new = run_starts(key)
                    rows = _unpack(key if new.all() else key[new], radices, t_min)
            if rows is not None:
                dropped = int(len(s) - np.count_nonzero(new))
        if rows is None:  # empty, or sorted and unique already
            # the columns get frozen below: never freeze or alias one the caller writes
            s, r, o, t = (c.copy() if c.flags.writeable else c for c in (s, r, o, t))
        else:
            s, r, o, t = rows

        types = None
        if node_types is not None:
            types = _as_id_array(node_types, "node_types")
            if len(types) != node_count:
                raise DataError(
                    f"node_types must assign a type to all {node_count} nodes, got {len(types)}"
                )
            if node_count and types.min() < 0:
                raise DataError("node type ids must be non-negative")
            types.setflags(write=False)

        for arr in (s, r, o, t):
            arr.setflags(write=False)

        object.__setattr__(self, "subjects", s)
        object.__setattr__(self, "relations", r)
        object.__setattr__(self, "objects", o)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "relation_count", int(relation_count))
        object.__setattr__(self, "node_types", types)
        object.__setattr__(self, "granularity", Granularity(granularity))
        object.__setattr__(self, "inverse_augmented", bool(inverse_augmented))
        object.__setattr__(self, "duplicates_removed", dropped)
        object.__setattr__(self, "_run_codes", None)

    def __setattr__(self, name, value):
        raise AttributeError("TemporalMultiGraph is immutable")

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def is_heterogeneous(self) -> bool:
        return self.node_types is not None

    @property
    def t_min(self) -> int:
        if self.is_empty:
            raise DataError("empty graph has no t_min")
        return int(self.timestamps[0])

    @property
    def t_max(self) -> int:
        if self.is_empty:
            raise DataError("empty graph has no t_max")
        return int(self.timestamps[-1])

    def quadruple(self, i: int) -> Quadruple:
        return Quadruple(
            int(self.subjects[i]),
            int(self.relations[i]),
            int(self.objects[i]),
            int(self.timestamps[i]),
        )

    def __iter__(self) -> Iterator[Quadruple]:
        for i in range(len(self)):
            yield self.quadruple(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalMultiGraph):
            return NotImplemented
        if (
            self.node_count != other.node_count
            or self.relation_count != other.relation_count
            or self.granularity != other.granularity
            or self.inverse_augmented != other.inverse_augmented
        ):
            return False
        if (self.node_types is None) != (other.node_types is None):
            return False
        if self.node_types is not None and not np.array_equal(
            self.node_types, other.node_types
        ):
            return False
        return (
            np.array_equal(self.timestamps, other.timestamps)
            and np.array_equal(self.subjects, other.subjects)
            and np.array_equal(self.relations, other.relations)
            and np.array_equal(self.objects, other.objects)
        )

    def __repr__(self) -> str:
        kind = "THG" if self.is_heterogeneous else "TKG"
        return (
            f"TemporalMultiGraph({kind}, quads={len(self)}, nodes={self.node_count}, "
            f"relations={self.relation_count})"
        )

    # -- derived views -----------------------------------------------------

    def distinct_timestamps(self) -> np.ndarray:
        """Sorted distinct timestamps carrying at least one edge."""
        return np.unique(self.timestamps)

    def span(self) -> int:
        """t_max - t_min + 1; the full number of timestamp slots."""
        return self.t_max - self.t_min + 1

    def time_slice(self, t_from: int, t_to: int) -> "TemporalMultiGraph":
        """Every quadruple with ``t_from <= t <= t_to``; vocabularies unchanged.

        A window outside the populated range yields an empty slice, not an
        error.
        """
        if t_from > t_to:
            raise DataError(f"empty window: t_from={t_from} > t_to={t_to}")
        lo = int(np.searchsorted(self.timestamps, t_from, side="left"))
        hi = int(np.searchsorted(self.timestamps, t_to, side="right"))
        return self._replace_rows(slice(lo, hi))

    def _replace_rows(self, rows) -> "TemporalMultiGraph":
        return TemporalMultiGraph(
            self.subjects[rows],
            self.relations[rows],
            self.objects[rows],
            self.timestamps[rows],
            node_count=self.node_count,
            relation_count=self.relation_count,
            node_types=self.node_types,
            granularity=self.granularity,
            inverse_augmented=self.inverse_augmented,
        )

    def objects_at(self, subject: int, relation: int, timestamp: int) -> np.ndarray:
        """Sorted objects o with (subject, relation, o, timestamp) in the graph."""
        (lo,), (hi,) = self.fact_runs([subject], [relation], [timestamp])
        return self.objects[lo:hi] if hi > lo else _EMPTY_IDS

    def fact_runs(self, subjects, relations, timestamps) -> tuple:
        """Row bounds ``(lo, hi)`` of each query's facts, in bulk.

        ``objects[lo[i]:hi[i]]`` are the sorted objects o with (subjects[i],
        relations[i], o, timestamps[i]) in the graph. Ids outside the id spaces
        and timestamps the graph does not contain give an empty run.
        """
        s, r, t = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64)
                                        for a in (subjects, relations, timestamps)))
        times, codes = self._fact_codes()
        rank = np.searchsorted(times, t)
        valid = (times.take(rank, mode="clip") == t) if len(times) else np.zeros(t.shape, bool)
        valid &= (s >= 0) & (s < self.node_count) & (r >= 0) & (r < self.relation_count)
        # invalid queries get code -1, below every row, so an empty run
        query = np.where(valid, (rank * self.node_count + s) * self.relation_count + r, -1)
        lo = np.searchsorted(codes, query, side="left")
        hi = np.searchsorted(codes, query, side="right")
        return lo, hi

    def _fact_codes(self):
        # Rows are sorted by (t, s, r, o), so the codes (rank(t) * node_count +
        # s) * relation_count + r are sorted too and each (t, s, r) is one run.
        # Ranking the timestamps keeps unix-second graphs inside int64.
        if self._run_codes is None:
            t = self.timestamps
            change = run_starts(t)
            times = t[change]
            if len(times) * self.node_count * self.relation_count >= 2**63:
                raise DataError(
                    f"{len(times)} timestamps, {self.node_count} nodes and "
                    f"{self.relation_count} relations overflow int64 fact codes"
                )
            rank = np.cumsum(change) - 1
            codes = (rank * self.node_count + self.subjects) * self.relation_count + self.relations
            object.__setattr__(self, "_run_codes", (times, codes))
        return self._run_codes


def _sort_key(s, r, o, t, node_count: int, relation_count: int):
    """(key, radices, t_min): int64 keys ``(((t - t_min) * N' + s) * R' + r) *
    N' + o``, in (t, s, r, o) order, with radices (N', R', N') as the module
    docstring describes; None if even exact radices would overflow int64."""
    t_min = int(t.min())
    span = int(t.max()) - t_min + 1
    radices = tuple(1 << (n - 1).bit_length() for n in (node_count, relation_count, node_count))
    if span * radices[0] * radices[1] * radices[2] >= 2**63:
        radices = (node_count, relation_count, node_count)
        if span * node_count * relation_count * node_count >= 2**63:
            return None
    key = t - t_min
    for radix, column in zip(radices, (s, r, o)):
        key *= radix  # in place: one n-row temporary in all
        key += column
    return key, radices, t_min


def _unpack(key, radices, t_min: int) -> tuple:
    """The (s, r, o, t) columns that :func:`_sort_key` packed into ``key``,
    which becomes the t column."""
    columns = []
    for radix in reversed(radices):
        if radix & (radix - 1):
            columns.append(key % radix)
            key //= radix
        else:  # masks and shifts, about twice as fast as % and //
            columns.append(key & (radix - 1))
            key >>= radix.bit_length() - 1
    key += t_min
    o, r, s = columns
    return s, r, o, key


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the positions of a sorted array whose value differs from the previous one.

    On int64 codes this sort-and-mask is what ``np.unique`` does, without its
    overhead (measured 10-30x slower on NumPy 2.4)."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _first_of_equal_rows(order, columns) -> np.ndarray:
    """Mask of the positions in ``order`` whose row differs from the previous one."""
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for column in columns:
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    return new


_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)


def from_quadruples(
    quads: Sequence[tuple],
    *,
    node_count: int,
    relation_count: int,
    node_types=None,
    granularity: Granularity = Granularity.DAY,
) -> TemporalMultiGraph:
    """Build a graph from an iterable of (s, r, o, t) tuples."""
    rows = list(quads)
    if rows:
        s, r, o, t = zip(*rows)
    else:
        s = r = o = t = ()
    return TemporalMultiGraph(
        s,
        r,
        o,
        t,
        node_count=node_count,
        relation_count=relation_count,
        node_types=node_types,
        granularity=granularity,
    )


def add_inverse_relations(graph: TemporalMultiGraph) -> TemporalMultiGraph:
    """Augment a graph with one inverse quadruple (o, r + R, s, t) per edge.

    The returned graph has ``2 * relation_count`` relations and exactly twice
    the quadruples: an inverse's relation is at least R, so it never equals a
    base quadruple, and distinct base quadruples have distinct inverses.

    Raises
    ------
    DataError
        If the graph was already augmented (the operation is intentionally
        not idempotent).
    """
    if graph.inverse_augmented:
        raise DataError("graph already carries inverse relations")
    inv_relations = graph.relations + graph.relation_count
    return TemporalMultiGraph(
        np.concatenate([graph.subjects, graph.objects]),
        np.concatenate([graph.relations, inv_relations]),
        np.concatenate([graph.objects, graph.subjects]),
        np.concatenate([graph.timestamps, graph.timestamps]),
        node_count=graph.node_count,
        relation_count=2 * graph.relation_count,
        node_types=graph.node_types,
        granularity=graph.granularity,
        inverse_augmented=True,
    )


def merge(*graphs: TemporalMultiGraph) -> TemporalMultiGraph:
    """Union of several graphs sharing the same vocabularies."""
    if not graphs:
        raise DataError("merge needs at least one graph")
    first = graphs[0]
    for g in graphs[1:]:
        if (
            g.node_count != first.node_count
            or g.relation_count != first.relation_count
            or g.granularity != first.granularity
            or g.inverse_augmented != first.inverse_augmented
        ):
            raise DataError("cannot merge graphs with different vocabularies")
    return TemporalMultiGraph(
        np.concatenate([g.subjects for g in graphs]),
        np.concatenate([g.relations for g in graphs]),
        np.concatenate([g.objects for g in graphs]),
        np.concatenate([g.timestamps for g in graphs]),
        node_count=first.node_count,
        relation_count=first.relation_count,
        node_types=first.node_types,
        granularity=first.granularity,
        inverse_augmented=first.inverse_augmented,
    )
