"""Single-step forecasting evaluation: time-aware filtered MRR and Hits@k.

The engine walks the evaluated split one timestamp at a time. Within a
timestamp every query is scored against its negative candidates plus the
true destination, after removal of same-timestamp true facts (the time-aware
filter); only then is that timestamp's ground truth revealed to the scorer.
Queries inside one timestamp therefore never see each other's answers, and
no score may depend on facts at or after the query time.

The queries are one int64 table in canonical order, (timestamp, source,
relation, truth, head), which is the order of the graph's rows and of every
negative set's records. Every query's same-timestamp facts are looked up
once, in bulk, as a run of the universe's sorted rows. One counter ranks
every query over a list of cells that ends with its truth. Conflicts (facts
at the query's (source, relation, timestamp) other than its truth) are
scored and then masked, which is exact only because a score may not depend
on the other candidates (the :class:`Scorer` contract). The lists are of two
kinds:

- A materialized list is the set's candidates for the query, with the
  truth appended, read in query order through one cursor (:class:`_Lists`)
  over the set's passes of whole records; record k must be query k. A set
  in memory passes slices of its ``ids`` column. An opened file
  (:func:`negatives.open_negative_set`) is decoded one pass at a time as the
  chunks reach it, so its ids column never exists whole.
- An unmaterialized 1-vs-all query is a weighted list. The supports of all
  of a timestamp's queries are named first (:meth:`Scorer.support`; every
  node if the scorer names none). A query's cells are then its support, its
  free node (the smallest node outside the support, the conflicts and the
  truth) if there is one, and its truth. The free node's cell counts once
  for every node it stands for; the conflicts, and the truth where the
  support holds it, are masked.

A timestamp's queries are cut into chunks of at most
``negatives._CHUNK_CELLS`` cells beyond their first query's, by the cutter
that cuts the generator's passes (materialized lists are cut at the set's
passes instead). Each query's scores go into one buffer for the
chunk, and one pass compares every segment with its truth's score and sums
the cells above and tied per segment. A score may be NaN only at a masked
cell.

Tied scores receive the average of their best and worst possible rank, so
ranks live on a half-integer grid; a query counts for Hits@k iff its rank is
at most k. Reciprocal ranks are aggregated with exact summation, making the
reported MRR independent of accumulation order.
"""

from __future__ import annotations

import abc
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ProtocolError
from .graph import TemporalMultiGraph, add_inverse_relations, run_starts
from .negatives import (
    EvalQuery,
    NegativeSampleSet,
    NegativeSetFile,
    _as_queries,
    _check_queries,
    _facts,
    _cuts,
    _Queries,
)

DEFAULT_KS = (1, 3, 10)


class Scorer(abc.ABC):
    """Assigns plausibility scores to candidate destinations of a query.

    Scoring must be pure given the history observed so far, and per
    candidate: the score of one candidate may not depend on which other
    candidates appear in the array. The engine relies on this: for 1-vs-all
    it scores only the :meth:`support` and two more nodes, and it masks the
    excluded conflicts after scoring them. The engine calls :meth:`observe`
    with strictly ascending timestamps, and the candidate array it passes is
    read-only.
    """

    name = "scorer"

    def fit(self, history: TemporalMultiGraph, static_context: TemporalMultiGraph | None = None):
        """Absorb everything known before the first evaluated timestamp."""

    @abc.abstractmethod
    def score_query(self, query: EvalQuery, candidates: np.ndarray) -> np.ndarray:
        """Score per candidate; higher means more plausible.

        An ``(m, candidates)`` block scores m variants in one replay; it must
        have the same m for every query.
        """

    def support(self, query: EvalQuery) -> np.ndarray | None:
        """Sorted distinct node ids outside which every node scores bitwise the same.

        For an unmaterialized 1-vs-all query the engine then scores only these
        ids, the truth and one node outside both, and counts the other nodes
        from that node's score. Like a score, the support may not depend on
        facts at or after the query time. ``None``, the default, means the
        scorer cannot say, and every node is scored. A support that is not an
        integer array of sorted distinct ids in ``[0, node_count)`` is a
        :class:`ProtocolError`.

        The supports of all of a timestamp's queries are named before any of
        them is scored, and the engine may hold a returned array until then,
        so a scorer must not change it in place.
        """
        return None

    def observe(self, quads: TemporalMultiGraph):
        """Receive the ground truth of one finished timestep."""

    def params_manifest(self) -> dict:
        """Everything needed to reproduce this scorer's numbers."""
        return {"scorer": self.name}


class OracleScorer(Scorer):
    """Scores 1 for the true destination and 0 otherwise (protocol self-check)."""

    name = "oracle"

    def score_query(self, query, candidates):
        return (candidates == query.true_destination).astype(np.float64)

    def support(self, query):
        return np.array([query.true_destination], dtype=np.int64)


class ConstantScorer(Scorer):
    """Scores every candidate identically, forcing full ties."""

    name = "constant"

    def score_query(self, query, candidates):
        return np.zeros(len(candidates), dtype=np.float64)

    def support(self, query):
        return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class EvalResult:
    """MRR/Hits aggregates with per-relation and per-timestep breakdowns."""

    mrr: float
    hits: dict  # k -> fraction of queries with rank <= k
    query_count: int
    per_relation: dict  # relation -> (mrr, query count); count-weighted mean is mrr
    per_timestep: tuple  # ((timestamp, mrr, query count), ...) ascending
    tied_queries: int
    max_tie_group: int

    def to_text(self) -> str:
        lines = [f"mrr = {_fmt(self.mrr)}"]
        for k in sorted(self.hits):
            lines.append(f"hits@{k} = {_fmt(self.hits[k])}")
        lines.append(f"query_count = {self.query_count}")
        lines.append(f"tied_queries = {self.tied_queries}")
        lines.append(f"max_tie_group = {self.max_tie_group}")
        return "\n".join(lines) + "\n"

    def per_relation_table(self) -> str:
        lines = ["relation\tmrr\tqueries"]
        for relation in sorted(self.per_relation):
            mrr, count = self.per_relation[relation]
            lines.append(f"{relation}\t{_fmt(mrr)}\t{count}")
        return "\n".join(lines) + "\n"

    def per_timestep_table(self) -> str:
        lines = ["timestamp\tmrr\tqueries"]
        for timestamp, mrr, count in self.per_timestep:
            lines.append(f"{timestamp}\t{_fmt(mrr)}\t{count}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def infer_kind(graph: TemporalMultiGraph) -> str:
    return "thg" if graph.is_heterogeneous else "tkg"


def expand_queries(test: TemporalMultiGraph, kind: str) -> Sequence:
    """Turn test quadruples into ranking queries, in canonical order.

    The queries are a read-only sequence of :class:`EvalQuery` over the int64
    query table, which the generators take as it is; a query object is
    built only when it is read.

    THG datasets get one tail query per quadruple. TKG datasets are queried
    in both directions: each quadruple (s, r, o, t) yields the tail query and
    the reversed query (o, r + R, ?, t) through its inverse relation, so a
    TKG graph is inverse-augmented first unless it already is; each
    quadruple of the augmented graph is one query, with the direction
    recovered from the relation id.

    The queries keep the graph's row order, (timestamp, source, relation,
    object), which is the canonical order every negative set holds.
    """
    return _Queries(_query_table(_augment_if_needed(test, kind), kind))


def _query_table(test: TemporalMultiGraph, kind: str) -> np.ndarray:
    """The queries of a THG graph or an inverse-augmented TKG graph as int64 rows
    (source, relation, timestamp, truth, head), one column per query, in the
    graph's row order; as the head flag follows from the relation, that is
    the canonical order."""
    if kind not in ("tkg", "thg"):
        raise DataError(f"kind must be tkg or thg, got {kind!r}")
    r = test.relations
    head = r >= test.relation_count // 2 if kind == "tkg" else np.zeros(len(test), dtype=bool)
    return np.array([test.subjects, r, test.timestamps, test.objects, head],
                    dtype=np.int64).reshape(5, -1)


def time_aware_filter(
    candidates: np.ndarray, query: EvalQuery, full_graph: TemporalMultiGraph
) -> np.ndarray:
    """Drop candidates that are true facts at exactly the query's timestamp.

    The true destination is always retained.
    """
    known = full_graph.objects_at(query.source, query.relation, query.timestamp)
    if known.size == 0:
        return candidates
    keep = ~np.isin(candidates, known)
    keep |= candidates == query.true_destination
    return candidates[keep]


def average_rank(scores: np.ndarray, truth_index: int) -> float:
    """Rank of the truth with ties resolved to the optimistic/pessimistic mean.

    rank = 1 + |{better}| + |{tied, excluding the truth}| / 2, possibly a
    half-integer.
    """
    truth_score = scores[truth_index]
    better = int(np.count_nonzero(scores > truth_score))
    tied = int(np.count_nonzero(scores == truth_score)) - 1
    return 1.0 + better + tied / 2.0


def _augment_if_needed(graph: TemporalMultiGraph, kind: str) -> TemporalMultiGraph:
    if kind == "tkg" and not graph.inverse_augmented:
        return add_inverse_relations(graph)
    return graph


def evaluate_single_step(
    scorer: Scorer,
    history: TemporalMultiGraph,
    eval_graph: TemporalMultiGraph,
    negatives: NegativeSampleSet | NegativeSetFile,
    full_graph: TemporalMultiGraph,
    ks=DEFAULT_KS,
    kind: str | None = None,
    static_context: TemporalMultiGraph | None = None,
) -> EvalResult | tuple:
    """Run the single-step protocol over one split.

    ``history`` is everything the scorer may know up front (train for
    validation runs, train plus validation for test runs); ``full_graph`` is
    the conflict/filter universe (the whole dataset). For TKG inputs all
    three graphs are inverse-augmented internally when not already, so
    negatives must have been generated against the augmented universe.
    ``negatives`` is a set in memory or an opened file, whose records are
    decoded as the replay reaches them; either must hold one record per
    query (a query without one is a ProtocolError naming it). Query ids and
    candidate ids outside the universe's id spaces are a DataError.

    Candidates are ranked along the last axis of the scores. A scorer that
    returns one score per candidate gives one :class:`EvalResult`; one that
    returns an ``(m, candidates)`` block gives a tuple of ``m`` results in row
    order, each equal to a separate run of a scorer returning that row.
    """
    if any(int(k) < 1 for k in ks):
        raise ConfigError(f"Hits@k cutoffs must be >= 1, got {tuple(ks)}")
    kind = kind or infer_kind(full_graph)
    # the universe is read only at the evaluated timestamps (and for its id
    # spaces), so its rows outside them are dropped before augmenting
    if not eval_graph.is_empty:
        full_graph = full_graph.time_slice(eval_graph.t_min, eval_graph.t_max)
    universe = _augment_if_needed(full_graph, kind)
    feed = _augment_if_needed(eval_graph, kind)
    history = _augment_if_needed(history, kind)

    table = _query_table(feed, kind)
    count = table.shape[1]
    dense = isinstance(negatives, NegativeSampleSet) and negatives.candidates is None
    if isinstance(negatives, NegativeSampleSet):
        _require_records(negatives, table)
    elif len(negatives) != count:
        raise ProtocolError(f"negative set covers {len(negatives)} queries, expected {count}")
    _check_queries(universe, table)
    source, relation, timestamp, truth = table[:4]
    # each query's same-timestamp facts: universe.objects[lo:hi]
    lo, hi = universe.fact_runs(source, relation, timestamp)

    scorer.fit(history, static_context)

    ranks = _Ranks(scorer, count, universe.node_count)
    lists = None if dense else _Lists(negatives, table, universe.node_count)
    cuts = [0, *(np.flatnonzero(np.diff(timestamp)) + 1).tolist(), count]
    for i, j in zip(cuts[:-1], cuts[1:]) if count else ():
        queries = _as_queries(table[:, i:j])  # this timestamp's, from query i on
        if dense:  # every support is named before any query is scored
            supports = ranks.supports(queries)
            # at most each support, its free node and its truth
            bounds = _cuts(np.fromiter(map(len, supports), np.int64, len(supports)) + 2).tolist()
            for a, b in zip(bounds, bounds[1:]):
                rows = slice(i + a, i + b)
                ids, starts, excluded, free = _one_vs_all(
                    supports[a:b], queries[a:b], universe, lo[rows], hi[rows], truth[rows])
                ranks.lists(i + a, queries[a:b], ids, starts, excluded, free)
        else:
            for a, b, ids, starts in lists.chunks(i, j, truth):
                excluded = _conflicts(ids, starts, universe, lo[a:b], hi[a:b], truth[a:b])
                ranks.lists(a, queries[a - i : b - i], ids, starts, excluded, None)
        scorer.observe(feed.time_slice(timestamp[i], timestamp[i]))
    if lists is not None:
        lists.finish()

    better, tied = ranks.better, ranks.tied
    if better is None:  # no query to rank
        better = tied = np.zeros(0, dtype=np.int64)
    groups = (_groups(relation), _groups(timestamp))
    results = tuple(
        _result(b, t, ks, *groups)
        for b, t in zip(np.atleast_2d(better.T), np.atleast_2d(tied.T))
    )
    return results if better.ndim == 2 else results[0]


def _require_records(negatives: NegativeSampleSet, table: np.ndarray) -> None:
    """A set in memory must hold the queries of ``table`` as its records, in
    the same canonical order; else the first query without a record, or the
    surplus records, are a ProtocolError."""
    if np.array_equal(negatives.table, table):
        return
    held = set(zip(*negatives.table.tolist()))
    for k, query in enumerate(zip(*table.tolist())):
        if query not in held:
            raise ProtocolError(f"no negative record for query {_Queries(table)[k]}")
    raise ProtocolError(f"negative set covers {len(negatives)} queries, expected {table.shape[1]}")


class _Ranks:
    """Per query and score row: the ranked candidates above the truth and tied with it.

    The first scores fix the rows: one for a score per candidate, m for an
    ``(m, candidates)`` block.
    """

    def __init__(self, scorer: Scorer, count: int, node_count: int):
        self.scorer = scorer
        self.count = count
        self.node_count = node_count
        self.better = self.tied = None
        self._buffer = self._everything = None

    def _score(self, query: EvalQuery, candidates: np.ndarray) -> np.ndarray:
        scores = np.asarray(self.scorer.score_query(query, candidates), dtype=np.float64)
        if self.better is None:
            self.better, self.tied = np.zeros(
                (2, self.count, *scores.shape[:-1]), dtype=np.int64)
        if self.better.ndim > 2 or scores.shape != (*self.better.shape[1:], len(candidates)):
            raise ProtocolError(
                f"scorer returned {scores.shape} scores for {len(candidates)} candidates"
            )
        return scores

    def supports(self, queries: list) -> list:
        """Each query's :meth:`Scorer.support` as an integer array; ``None`` is
        every node, one read-only ``arange`` shared by all."""
        supports = []
        for query in queries:
            support = self.scorer.support(query)
            if support is None:
                if self._everything is None:
                    self._everything = np.arange(self.node_count, dtype=np.int64)
                    self._everything.setflags(write=False)
                support = self._everything
            else:
                support = np.asarray(support)
                if support.ndim != 1 or support.dtype.kind not in "iu":
                    raise _not_node_ids(query)
            supports.append(support)
        return supports

    def lists(self, a: int, queries: list, ids: np.ndarray, starts: np.ndarray,
              excluded, free) -> None:
        """Rank queries a, a + 1, ... (``queries``) over their segments of ``ids``,
        each ending with its truth: score every segment into one buffer, then
        count them all.

        ``excluded`` (None: no cell) marks the cells that are scored but never
        ranked; their scores may be NaN. ``free`` (None: no such cell) is
        ``(queries, cells, weights)``: each of those cells stands for
        ``weight + 1`` nodes that score like it.
        """
        bounds = starts.tolist()
        for query, x, y in zip(queries, bounds, bounds[1:]):
            scores = self._score(query, ids[x:y])
            if not x:
                buffer = self._cells(bounds[-1])
            buffer[..., x:y] = scores
        top = np.repeat(buffer[..., starts[1:] - 1], np.diff(starts), axis=-1)
        above, same, nan = buffer > top, buffer == top, np.isnan(buffer)
        if excluded is not None:
            above[..., excluded] = same[..., excluded] = nan[..., excluded] = False
        if nan.any():
            cell = np.flatnonzero(nan.reshape(-1, len(ids)).any(axis=0))[0]
            k = int(np.searchsorted(starts, cell, side="right")) - 1
            raise ProtocolError(f"scorer returned NaN scores for {queries[k]}")
        better = np.add.reduceat(above, starts[:-1], axis=-1, dtype=np.int64)
        tied = np.add.reduceat(same, starts[:-1], axis=-1, dtype=np.int64)
        if free is not None:
            at, cells, weights = free
            better[..., at] += weights * above[..., cells]
            tied[..., at] += weights * same[..., cells]
        b = a + len(queries)
        self.better[a:b] = better.T
        self.tied[a:b] = tied.T - 1  # the truth ties with itself

    def _cells(self, cells: int) -> np.ndarray:
        """The reused score buffer, ``(*rows, cells)``."""
        if self._buffer is None or self._buffer.shape[-1] < cells:
            self._buffer = np.empty((*self.better.shape[1:], cells))
        return self._buffer[..., :cells]


class _Lists:
    """A materialized set's candidate lists in query order, one chunk at a time.

    The records come from the set's ``passes()``, of which only the rest of
    the last is held between chunks, so a chunk ends at a pass's end or a
    timestamp's. Records and queries are both in canonical order, so a pass
    whose records are not the next queries is a ProtocolError naming the
    first that differs, without reading ahead. Ids outside
    ``[0, node_count)`` are a DataError.
    """

    def __init__(self, negatives, table: np.ndarray, node_count: int):
        self.table, self.node_count = table, node_count
        self.passes = negatives.passes()
        self.held = None  # (table, counts, ids) of the last pass's records not taken yet

    def chunks(self, i: int, j: int, truths: np.ndarray):
        """``(a, b, ids, starts)`` for queries i..j cut into runs a..b: their
        lists, each followed by its truth, in one read-only int64 array; query
        a + k has ``ids[starts[k]:starts[k + 1]]``."""
        a = i
        while a < j:
            if self.held is None:
                self.held = next(self.passes)
                self._match(a, self.held[0])
            table, counts, ids = self.held
            k = min(j - a, len(counts))
            cut = int(counts[:k].sum())
            self.held = (table[:, k:], counts[k:], ids[cut:]) if k < len(counts) else None
            lists, b = ids[:cut], a + k
            low, high = (lists.min(), lists.max()) if len(lists) else (0, 0)
            if low < 0 or high >= self.node_count:
                raise DataError(f"negative candidate id {low if low < 0 else high} outside "
                                f"the graph's node space [0, {self.node_count})")
            yield a, b, *_with_truths(lists, counts[:k], truths[a:b])
            a = b

    def _match(self, a: int, records: np.ndarray) -> None:
        """Records must be the queries from query a on. Else the first that
        differs sorts after its query, which then has no record, or before
        it, so it repeats the record ahead of it or is no query of the split."""
        queries = self.table[:, a : a + records.shape[1]]
        if np.array_equal(records, queries):
            return
        k = int(np.flatnonzero((records != queries).any(axis=0))[0])
        keys = [2, 0, 1, 3, 4]  # timestamp, source, relation, truth, head
        if records[keys, k].tolist() > queries[keys, k].tolist():
            raise ProtocolError(f"no negative record for query {_Queries(queries)[k]}")
        repeated = a + k and np.array_equal(records[:, k], self.table[:, a + k - 1])
        wrong = "repeats the one before it" if repeated else "is no query of the split"
        raise ProtocolError(f"negative record {a + k} {wrong}: {_Queries(records)[k]}")

    def finish(self) -> None:
        """Run the passes out: a file checks that no byte follows its last record."""
        for _ in self.passes:
            pass


def _with_truths(lists: np.ndarray, lengths: np.ndarray, truths: np.ndarray) -> tuple:
    """``(ids, starts)``: consecutive lists of the given lengths, each followed
    by its truth, in one read-only int64 array; list k is
    ``ids[starts[k]:starts[k + 1] - 1]``."""
    ends = np.cumsum(lengths)
    ids = np.insert(lists.astype(np.int64, copy=False), ends, truths)
    ids.setflags(write=False)
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    starts[1:] = ends + np.arange(1, len(lengths) + 1)
    return ids, starts


def _conflicts(ids, starts, universe: TemporalMultiGraph, lo, hi, truths):
    """Mask of the cells whose id is a fact at its query's (s, r, t) other than
    the truth; None if no cell is.

    Cells and facts are coded ``query * node_count + id``; the facts' codes
    come out sorted, as each run's objects are."""
    query, facts = _facts(universe, lo, hi, truths)
    if not len(facts):
        return None
    n = universe.node_count
    codes = query * n + facts
    cell = np.repeat(np.arange(len(truths)), np.diff(starts)) * n + ids
    return codes.take(np.searchsorted(codes, cell), mode="clip") == cell


def _one_vs_all(supports: list, queries: list, universe: TemporalMultiGraph, lo, hi,
                truths) -> tuple:
    """Unmaterialized 1-vs-all queries as weighted lists for :meth:`_Ranks.lists`:
    ``(ids, starts, excluded, free)``.

    A query's cells are its support, then its free node if it has one, then
    its truth. The free node is the smallest node outside the support, the
    conflicts and the truth; it stands for all ``rest`` such nodes. The
    conflicts, and the truth where the support holds it, are excluded cells.

    Supports and blocked nodes (conflicts and truths) are coded
    ``query * node_count + id``, so one binary search finds the blocked nodes
    inside the supports. A query names fewer nodes than its window of
    ``named + 1`` slots, so its free node is the first open slot there.
    """
    n, m = universe.node_count, len(supports)
    sizes = np.fromiter(map(len, supports), np.int64, m)
    support = np.concatenate(supports, dtype=np.int64, casting="unsafe")
    query = np.repeat(np.arange(m), sizes)
    codes = query * n + support
    # ids in range whose codes ascend are sorted distinct ids per query
    bad = (support < 0) | (support >= n)
    bad[1:] |= codes[1:] <= codes[:-1]
    if bad.any():
        raise _not_node_ids(queries[query[bad.argmax()]])
    fact_query, facts = _facts(universe, lo, hi, truths)
    owner = np.concatenate((fact_query, np.arange(m)))
    blocked = np.concatenate((facts, truths))
    wanted = owner * n + blocked
    at = np.searchsorted(codes, wanted)
    inside = codes.take(at, mode="clip") == wanted if len(codes) else owner < 0
    named = sizes + np.bincount(owner[~inside], minlength=m)
    rest = n - named
    has = np.flatnonzero(rest)  # the queries with a free node

    window = np.where(rest > 0, named + 1, 0)
    first = np.cumsum(window) - window
    taken = np.zeros(int(window.sum()), dtype=bool)
    for q, ids in ((query, support), (owner, blocked)):
        low = ids < window[q]
        taken[first[q[low]] + ids[low]] = True
    open_ = np.flatnonzero(~taken)

    extra = np.where(rest > 0, 2, 1)  # the cells after each support
    starts = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(sizes + extra, out=starts[1:])
    free_cells = starts[has + 1] - 2
    cells = np.empty(starts[-1], dtype=np.int64)
    appended = np.zeros(starts[-1], dtype=bool)
    appended[starts[1:] - 1] = appended[free_cells] = True
    cells[~appended] = support
    cells[starts[1:] - 1] = truths
    cells[free_cells] = open_[np.searchsorted(open_, first[has])] - first[has]
    cells.setflags(write=False)

    excluded = at[inside] + (np.cumsum(extra) - extra)[owner[inside]]
    free = (has, free_cells, rest[has] - 1) if len(has) else None
    return cells, starts, excluded if len(excluded) else None, free


def _not_node_ids(query: EvalQuery) -> ProtocolError:
    return ProtocolError(
        f"scorer returned a support that is not sorted distinct node ids for {query}")


def _groups(keys: np.ndarray) -> list:
    """(key, ascending positions) for each distinct key, in ascending key order."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(run_starts(keys[order]))
    return list(zip(keys[order[starts]].tolist(), np.split(order, starts[1:])))


def _result(better, tied, ks, by_relation, by_timestep) -> EvalResult:
    """One row's aggregates; exact sums keep them independent of query order."""
    ranks = 1.0 + better + tied / 2.0  # the average_rank rule
    reciprocal = 1.0 / ranks
    n = len(ranks)

    def mean(at):
        return math.fsum(reciprocal[at].tolist()) / len(at)

    largest = int(tied.max(initial=0))
    return EvalResult(
        mrr=math.fsum(reciprocal.tolist()) / n if n else 0.0,
        hits={k: int(np.count_nonzero(ranks <= k)) / n if n else 0.0
              for k in dict.fromkeys(int(k) for k in ks)},
        query_count=n,
        per_relation={r: (mean(at), len(at)) for r, at in by_relation},
        per_timestep=tuple((t, mean(at), len(at)) for t, at in by_timestep),
        tied_queries=int(np.count_nonzero(tied)),
        max_tie_group=largest + 1 if largest else 0,
    )
