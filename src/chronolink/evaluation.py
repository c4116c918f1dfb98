"""Single-step forecasting evaluation: time-aware filtered MRR and Hits@k.

The engine walks the evaluated split one timestamp at a time. Within a
timestamp every query is scored against its negative candidates plus the
true destination, after removal of same-timestamp true facts (the time-aware
filter); only then is that timestamp's ground truth revealed to the scorer.
Queries inside one timestamp therefore never see each other's answers, and
no score may depend on facts at or after the query time.

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
    candidates appear in the array. The engine calls :meth:`observe` with
    strictly ascending timestamps.
    """

    name = "scorer"

    def fit(self, history: TemporalMultiGraph, static_context: TemporalMultiGraph | None = None):
        """Absorb everything known before the first evaluated timestamp."""

    @abc.abstractmethod
    def score_query(self, query: EvalQuery, candidates: np.ndarray) -> np.ndarray:
        """Score per candidate; higher means more plausible."""

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
    negatives: NegativeSampleSet,
    full_graph: TemporalMultiGraph,
    ks=DEFAULT_KS,
    kind: str | None = None,
    static_context: TemporalMultiGraph | None = None,
) -> EvalResult:
    """Run the single-step protocol over one split.

    ``history`` is everything the scorer may know up front (train for
    validation runs, train plus validation for test runs); ``full_graph`` is
    the conflict/filter universe (the whole dataset). For TKG inputs all
    three graphs are inverse-augmented internally when not already, so
    negatives must have been generated against the augmented universe.
    """
    if any(int(k) < 1 for k in ks):
        raise ConfigError(f"Hits@k cutoffs must be >= 1, got {tuple(ks)}")
    kind = kind or infer_kind(full_graph)
    universe = _augment_if_needed(full_graph, kind)
    feed = _augment_if_needed(eval_graph, kind)
    history = _augment_if_needed(history, kind)

    queries = expand_queries(eval_graph, kind)
    if negatives.candidates is not None and len(negatives) != len(queries):
        raise ProtocolError(
            f"negative set covers {len(negatives)} queries, expected {len(queries)}"
        )

    scorer.fit(history, static_context)

    reciprocal = []
    hit_counts = {int(k): 0 for k in ks}
    by_relation = {}
    by_timestep = {}
    tied_queries = 0
    max_tie_group = 0

    i = 0
    while i < len(queries):
        timestamp = queries[i].timestamp
        j = i
        while j < len(queries) and queries[j].timestamp == timestamp:
            query = queries[j]
            candidates = negatives.candidates_for(query, universe)
            candidates = time_aware_filter(candidates, query, universe)
            scored_ids = np.concatenate(
                [candidates, np.array([query.true_destination], dtype=np.int64)]
            )
            scores = np.asarray(scorer.score_query(query, scored_ids), dtype=np.float64)
            if scores.shape != scored_ids.shape:
                raise ProtocolError(
                    f"scorer returned {scores.shape} scores for {len(scored_ids)} candidates"
                )
            if np.isnan(scores).any():
                raise ProtocolError(f"scorer returned NaN scores for {query}")
            rank = average_rank(scores, len(scored_ids) - 1)
            ties = int(np.count_nonzero(scores == scores[-1])) - 1
            if ties:
                tied_queries += 1
                max_tie_group = max(max_tie_group, ties + 1)
            rr = 1.0 / rank
            reciprocal.append(rr)
            for k in hit_counts:
                if rank <= k:
                    hit_counts[k] += 1
            by_relation.setdefault(query.relation, []).append(rr)
            by_timestep.setdefault(timestamp, []).append(rr)
            j += 1
        scorer.observe(feed.time_slice(timestamp, timestamp))
        i = j

    n = len(reciprocal)
    mrr = math.fsum(reciprocal) / n if n else 0.0
    return EvalResult(
        mrr=mrr,
        hits={k: hit_counts[k] / n if n else 0.0 for k in hit_counts},
        query_count=n,
        per_relation={
            r: (math.fsum(v) / len(v), len(v)) for r, v in sorted(by_relation.items())
        },
        per_timestep=tuple(
            (t, math.fsum(v) / len(v), len(v)) for t, v in sorted(by_timestep.items())
        ),
        tied_queries=tied_queries,
        max_tie_group=max_tie_group,
    )
