"""Single-step forecasting evaluation: time-aware filtered MRR and Hits@k.

The engine walks the evaluated split one timestamp at a time. Within a
timestamp every query is scored against its negative candidates plus the
true destination, after removal of same-timestamp true facts (the time-aware
filter); only then is that timestamp's ground truth revealed to the scorer.
Queries inside one timestamp therefore never see each other's answers, and
no score may depend on facts at or after the query time.

Every query's same-timestamp facts are looked up once, in bulk, as a run of
the universe's sorted rows. An unmaterialized 1-vs-all set is ranked without
building candidate lists: each query scores every node once, and the nodes
it excludes (its conflicts and the truth) are subtracted from the counts of
scores above and tied with the truth. That is exact only because a score may
not depend on the other candidates (the :class:`Scorer` contract).

Tied scores receive the average of their best and worst possible rank, so
ranks live on a half-integer grid; a query counts for Hits@k iff its rank is
at most k. Reciprocal ranks are aggregated with exact summation, making the
reported MRR independent of accumulation order.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ProtocolError
from .graph import TemporalMultiGraph, add_inverse_relations
from .negatives import EvalQuery, NegativeSampleSet

DEFAULT_KS = (1, 3, 10)


class Scorer(abc.ABC):
    """Assigns plausibility scores to candidate destinations of a query.

    Scoring must be pure given the history observed so far, and per
    candidate: the score of one candidate may not depend on which other
    candidates appear in the array. The engine relies on this: for 1-vs-all
    it scores every node once and subtracts the excluded conflicts from the
    rank counts. The engine calls :meth:`observe` with strictly ascending
    timestamps, and the candidate array it passes is read-only.
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


class ConstantScorer(Scorer):
    """Scores every candidate identically, forcing full ties."""

    name = "constant"

    def score_query(self, query, candidates):
        return np.zeros(len(candidates), dtype=np.float64)


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


def expand_queries(test: TemporalMultiGraph, kind: str) -> list:
    """Turn test quadruples into ranking queries, in canonical order.

    THG datasets get one tail query per quadruple. TKG datasets are queried
    in both directions: each quadruple (s, r, o, t) yields the tail query and
    the reversed query (o, r + R, ?, t) through its inverse relation. A
    pre-augmented TKG graph already contains the inverse quadruples, so it
    contributes one query per quadruple with the direction recovered from
    the relation id.

    Queries are sorted by (timestamp, source, relation, truth), which is the
    order negative-set files follow.
    """
    if kind not in ("tkg", "thg"):
        raise DataError(f"kind must be tkg or thg, got {kind!r}")
    queries = []
    if kind == "thg":
        for s, r, o, t in test:
            queries.append(EvalQuery(s, r, t, o, "tail"))
    elif test.inverse_augmented:
        base = test.relation_count // 2
        for s, r, o, t in test:
            queries.append(EvalQuery(s, r, t, o, "tail" if r < base else "head"))
    else:
        base = test.relation_count
        for s, r, o, t in test:
            queries.append(EvalQuery(s, r, t, o, "tail"))
            queries.append(EvalQuery(o, r + base, t, s, "head"))
    queries.sort(key=lambda q: (q.timestamp, q.source, q.relation, q.true_destination))
    return queries


def time_aware_filter(
    candidates: np.ndarray, query: EvalQuery, full_graph: TemporalMultiGraph
) -> np.ndarray:
    """Drop candidates that are true facts at exactly the query's timestamp.

    The true destination is always retained.
    """
    known = full_graph.objects_at(query.source, query.relation, query.timestamp)
    if known.size == 0:
        return candidates
    return _drop_conflicts(candidates, known, query.true_destination)


def _drop_conflicts(candidates, known, truth) -> np.ndarray:
    keep = ~np.isin(candidates, known)
    keep |= candidates == truth
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
    negatives: NegativeSampleSet,
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

    Candidates are ranked along the last axis of the scores. A scorer that
    returns one score per candidate gives one :class:`EvalResult`; one that
    returns an ``(m, candidates)`` block gives a tuple of ``m`` results in row
    order, each equal to a separate run of a scorer returning that row.
    """
    if any(int(k) < 1 for k in ks):
        raise ConfigError(f"Hits@k cutoffs must be >= 1, got {tuple(ks)}")
    kind = kind or infer_kind(full_graph)
    universe = _augment_if_needed(full_graph, kind)
    feed = _augment_if_needed(eval_graph, kind)
    history = _augment_if_needed(history, kind)

    queries = expand_queries(eval_graph, kind)
    dense = negatives.candidates is None
    if not dense and len(negatives) != len(queries):
        raise ProtocolError(
            f"negative set covers {len(negatives)} queries, expected {len(queries)}"
        )
    records = [negatives.index_of(query) for query in queries]  # a missing one raises
    source, relation, timestamp, truth = np.array(
        [query[:4] for query in queries], dtype=np.int64).reshape(-1, 4).T
    if dense and ((truth < 0) | (truth >= universe.node_count)).any():
        raise DataError("query destination outside the universe's node space")
    # each query's same-timestamp facts: universe.objects[lo:hi]
    lo, hi = universe.fact_runs(source, relation, timestamp)
    lo, hi, truth = lo.tolist(), hi.tolist(), truth.tolist()
    everything = np.arange(universe.node_count, dtype=np.int64)
    everything.setflags(write=False)

    scorer.fit(history, static_context)

    # per query (and row): the candidates scoring above the truth, tying with it
    better = tied = None
    cuts = [0, *(np.flatnonzero(np.diff(timestamp)) + 1).tolist(), len(queries)]
    for i, j in zip(cuts[:-1], cuts[1:]) if queries else ():
        if not dense:
            scored, stops = _with_truths(negatives.candidates, records[i:j], truth[i:j])
        for k in range(i, j):
            query, facts = queries[k], universe.objects[lo[k]:hi[k]]
            if dense:  # every node; the excluded facts are subtracted below
                scored_ids, at, excluded = everything, truth[k], facts
            else:  # the candidates with the truth appended last
                scored_ids, at, excluded = scored[stops[k - i]:stops[k - i + 1]], -1, _NO_IDS
                if len(facts) > (truth[k] in facts):
                    scored_ids = _drop_conflicts(scored_ids, facts, truth[k])
            scores = np.asarray(scorer.score_query(query, scored_ids), dtype=np.float64)
            if better is None:  # the first query fixes the row count
                better, tied = np.zeros((2, len(queries), *scores.shape[:-1]), dtype=np.int64)
            if better.ndim > 2 or scores.shape != (*better.shape[1:], len(scored_ids)):
                raise ProtocolError(
                    f"scorer returned {scores.shape} scores for {len(scored_ids)} candidates"
                )
            top = scores[..., at, None]
            nan = np.isnan(scores)
            if nan.any():  # an excluded score is never ranked, so it may be NaN
                nan[..., excluded] = False
                if nan.any() or np.isnan(top).any():
                    raise ProtocolError(f"scorer returned NaN scores for {query}")
            axis = -1 if scores.ndim == 2 else None  # None counts a single row fastest
            better[k] = np.count_nonzero(scores > top, axis=axis)
            tied[k] = np.count_nonzero(scores == top, axis=axis) - 1  # the truth ties with itself
            if dense:  # the excluded facts were scored too, the truth perhaps among them
                gone = scores[..., excluded]
                better[k] -= np.count_nonzero(gone > top, axis=axis)
                tied[k] -= np.count_nonzero(gone == top, axis=axis) - (truth[k] in excluded)
        scorer.observe(feed.time_slice(timestamp[i], timestamp[i]))

    if better is None:  # no query to rank
        better = tied = np.zeros(0, dtype=np.int64)
    groups = (_groups(relation), _groups(timestamp))
    results = tuple(
        _result(b, t, ks, *groups)
        for b, t in zip(np.atleast_2d(better.T), np.atleast_2d(tied.T))
    )
    return results if better.ndim == 2 else results[0]


_NO_IDS = np.empty(0, dtype=np.int64)


def _with_truths(candidates, records, truths) -> tuple:
    """One timestamp's candidate lists, each followed by its truth, in one
    read-only array; query k's ids are ``scored[stops[k]:stops[k + 1]]``."""
    lists = [np.asarray(candidates[r], dtype=np.int64) for r in records]
    ends = np.cumsum([len(c) for c in lists])
    scored = np.insert(np.concatenate(lists), ends, truths)
    scored.setflags(write=False)
    return scored, [0, *(ends + np.arange(1, len(lists) + 1)).tolist()]


def _groups(keys: np.ndarray) -> list:
    """(key, ascending positions) for each distinct key, in ascending key order."""
    order = np.argsort(keys, kind="stable")
    distinct, starts = np.unique(keys[order], return_index=True)
    return list(zip(distinct.tolist(), np.split(order, starts[1:])))


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
