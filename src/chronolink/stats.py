"""Dataset characterization metrics and distribution reports.

All statistics are pure functions over immutable graphs. Recurrence metrics
look the test triples up in the *entire* dataset restricted to earlier
timestamps, matching the universe used by the time-aware filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .graph import TemporalMultiGraph, run_starts

NODES_PER_TS_METHOD = "distinct-endpoint-union"
_PROBE_T, _FACT = 0, 1  # row kinds; t - 1 probes are 2, sorting last at equal keys
_INT64_MIN = np.iinfo(np.int64).min


@dataclass(frozen=True)
class StatsReport:
    """Fixed-order summary of one dataset (see :func:`dataset_report`)."""

    quadruple_count: int
    node_count: int
    edge_type_count: int
    node_type_count: int
    timestep_count: int  # distinct timestamps with >= 1 edge
    span: int  # t_max - t_min + 1
    granularity: str
    inductive_test_nodes: float
    direct_recurrency: float
    recurrency: float
    consecutiveness: float
    mean_edges_per_ts: float
    mean_nodes_per_ts: float
    relation_histogram: tuple  # ((relation-id, share), ...) top-k by share
    others_share: float

    def to_text(self) -> str:
        lines = [
            f"quadruple_count = {self.quadruple_count}",
            f"node_count = {self.node_count}",
            f"edge_type_count = {self.edge_type_count}",
            f"node_type_count = {self.node_type_count}",
            f"timestep_count = {self.timestep_count}",
            f"span = {self.span}",
            f"granularity = {self.granularity}",
            f"inductive_test_nodes = {_fmt(self.inductive_test_nodes)}",
            f"direct_recurrency = {_fmt(self.direct_recurrency)}",
            f"recurrency = {_fmt(self.recurrency)}",
            f"consecutiveness = {_fmt(self.consecutiveness)}",
            f"mean_edges_per_ts = {_fmt(self.mean_edges_per_ts)}",
            f"mean_nodes_per_ts = {_fmt(self.mean_nodes_per_ts)}",
            f"nodes_per_ts_method = {NODES_PER_TS_METHOD}",
            "relation_histogram =",
        ]
        for relation, share in self.relation_histogram:
            lines.append(f"  {relation}\t{_fmt(share)}")
        lines.append(f"others_share = {_fmt(self.others_share)}")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _RecurrenceCounts(NamedTuple):
    recurrent: int  # test quadruples whose triple is a fact at an earlier time
    direct: int  # test quadruples whose triple is a fact at exactly t - 1
    longest_runs: int  # sum over the full graph's triples of their longest run
    triples: int  # distinct (s, r, o) triples of the full graph


def _recurrence_counts(full: TemporalMultiGraph, test: TemporalMultiGraph | None):
    """Rec, DRec and Con as integer counts (a :class:`_RecurrenceCounts`), from one lexsort.

    The full graph's facts are sorted by (s, r, o, t) together with two probes
    per test quadruple: (s, r, o, t) placed before a fact with the same key,
    and (s, r, o, t - 1) placed after it. A first probe is recurrent when a
    fact precedes it within its triple's segment; a second one is directly
    recurrent when the row just before it is the fact with its key. Among the
    facts alone, a triple's consecutive-timestamp runs break wherever the gap
    to the previous time is not 1.
    """
    facts = (full.subjects, full.relations, full.objects, full.timestamps)
    if test is None:
        probes = tuple(column[:0] for column in facts)
    else:
        probes = (test.subjects, test.relations, test.objects, test.timestamps)
    later = probes[3] > _INT64_MIN  # t - 1 of the smallest int64 is no fact
    s, r, o, t = (np.concatenate([a, b, a[later]]) for a, b in zip(probes, facts))
    t[len(t) - int(later.sum()):] -= 1
    kind = np.repeat(np.arange(3, dtype=np.int8), [len(later), len(full), int(later.sum())])
    # the rows are concatenated in kind order and lexsort is stable, so rows
    # with equal keys stay in kind order
    order = np.lexsort((t, o, r, s))
    s, r, o, t, kind = s[order], r[order], o[order], t[order], kind[order]

    same_triple = np.zeros(len(t), dtype=bool)
    same_triple[1:] = (s[1:] == s[:-1]) & (r[1:] == r[:-1]) & (o[1:] == o[:-1])
    segment_start = np.maximum.accumulate(np.where(same_triple, 0, np.arange(len(t))))
    is_fact = kind == _FACT
    facts_before = np.cumsum(is_fact) - is_fact
    probe = kind == _PROBE_T
    recurrent = facts_before[probe] > facts_before[segment_start[probe]]
    # facts are distinct and a t probe sorts before the fact with its key, so
    # only a t - 1 probe can follow a fact with the same key
    direct = same_triple[1:] & is_fact[:-1] & (t[1:] == t[:-1])

    fact_t, fact_segment = t[is_fact], segment_start[is_fact]
    new_triple = np.ones(len(fact_t), dtype=bool)
    new_triple[1:] = fact_segment[1:] != fact_segment[:-1]
    run_start = new_triple.copy()
    run_start[1:] |= np.diff(fact_t) != 1
    run_length = np.diff(np.append(np.flatnonzero(run_start), len(fact_t)))
    first_runs = np.flatnonzero(new_triple[run_start])  # each triple's first run
    longest = np.maximum.reduceat(run_length, first_runs) if len(first_runs) else run_length
    return _RecurrenceCounts(
        int(recurrent.sum()), int(direct.sum()), int(longest.sum()), len(first_runs)
    )


def recurrency_degree(full_graph: TemporalMultiGraph, test: TemporalMultiGraph) -> float:
    """Fraction of test quadruples whose triple occurred at any earlier time."""
    if test.is_empty:
        raise DataError("recurrency degree is undefined on an empty test set")
    return _recurrence_counts(full_graph, test).recurrent / len(test)


def direct_recurrency_degree(full_graph: TemporalMultiGraph, test: TemporalMultiGraph) -> float:
    """Fraction of test quadruples whose triple occurred at exactly t - 1."""
    if test.is_empty:
        raise DataError("direct recurrency degree is undefined on an empty test set")
    return _recurrence_counts(full_graph, test).direct / len(test)


def consecutiveness(graph: TemporalMultiGraph) -> float:
    """Mean over distinct triples of their longest consecutive-timestamp run."""
    if graph.is_empty:
        raise DataError("consecutiveness is undefined on an empty graph")
    counts = _recurrence_counts(graph, None)
    return counts.longest_runs / counts.triples


def inductive_node_proportion(train: TemporalMultiGraph, test: TemporalMultiGraph) -> float:
    """Share of test nodes never seen as an endpoint during training."""
    if test.is_empty:
        raise DataError("inductive node proportion is undefined on an empty test set")
    test_nodes = np.union1d(test.subjects, test.objects)
    train_nodes = np.union1d(train.subjects, train.objects)
    fresh = np.setdiff1d(test_nodes, train_nodes, assume_unique=True)
    return len(fresh) / len(test_nodes)


def density_per_timestep(graph: TemporalMultiGraph):
    """(mean edges per timestep, mean nodes per timestep) over the full span.

    The denominator is ``t_max - t_min + 1`` including zero-edge timestamps;
    active nodes per timestep are counted as the distinct union of endpoints.
    Raises :class:`DataError` if timestamps times nodes overflow int64, as
    :meth:`TemporalMultiGraph.fact_runs` does.
    """
    if graph.is_empty:
        raise DataError("density is undefined on an empty graph")
    span = graph.span()
    mean_edges = len(graph) / span
    # one code rank(t) * node_count + node per endpoint; the distinct codes
    # are the active (timestep, node) pairs, counted in sorted order (a plain
    # np.unique measured ~40x slower than this sort on NumPy 2.4)
    rank = np.cumsum(run_starts(graph.timestamps)) - 1
    if (int(rank[-1]) + 1) * graph.node_count >= 2**63:
        raise DataError(
            f"{int(rank[-1]) + 1} timestamps and {graph.node_count} nodes overflow int64 codes"
        )
    codes = np.sort(np.concatenate([rank * graph.node_count + graph.subjects,
                                    rank * graph.node_count + graph.objects]))
    return mean_edges, (1 + int(np.count_nonzero(codes[1:] != codes[:-1]))) / span


def relation_histogram(graph: TemporalMultiGraph, top_k: int):
    """Top-k relation shares plus an "Others" bucket summing to exactly 1.

    Returns (((relation-id, share), ...), others_share), sorted by share
    descending with ties broken by relation id ascending.
    """
    if graph.is_empty:
        return (), 0.0
    rels, counts = np.unique(graph.relations, return_counts=True)
    order = np.lexsort((rels, -counts))
    top = order[:top_k]
    shares = tuple((int(rels[i]), counts[i] / len(graph)) for i in top)
    others = float(counts[order[top_k:]].sum() / len(graph)) if len(order) > top_k else 0.0
    return shares, others


def edges_over_time(graph: TemporalMultiGraph, bins: int = 20):
    """Per-bin (mean, min, max) of per-timestep edge counts over [t_min, t_max].

    Bins partition the span into equal-width intervals; timestamps without
    edges contribute zero counts. The default of twenty bins matches the
    reporting convention used throughout the toolkit.
    """
    if graph.is_empty:
        raise DataError("edge histogram is undefined on an empty graph")
    if bins < 1:
        raise DataError("bins must be >= 1")
    span = graph.span()
    bins = min(bins, span)
    t0 = graph.t_min
    distinct, counts = np.unique(graph.timestamps, return_counts=True)
    per_ts = np.zeros(span, dtype=np.int64)
    per_ts[distinct - t0] = counts
    bin_of = ((np.arange(span)) * bins) // span
    out = []
    for b in range(bins):
        chunk = per_ts[bin_of == b]
        out.append((float(chunk.mean()), int(chunk.min()), int(chunk.max())))
    return out


def dataset_report(
    full: TemporalMultiGraph,
    train: TemporalMultiGraph,
    test: TemporalMultiGraph,
    top_k: int = 10,
) -> StatsReport:
    """Assemble the full characterization of a dataset and its split."""
    histogram, others = relation_histogram(full, top_k)
    mean_edges, mean_nodes = density_per_timestep(full)
    inductive = inductive_node_proportion(train, test)  # raises on an empty test set
    counts = _recurrence_counts(full, test)
    return StatsReport(
        quadruple_count=len(full),
        node_count=full.node_count,
        edge_type_count=full.relation_count,
        node_type_count=(
            int(full.node_types.max()) + 1 if full.is_heterogeneous and full.node_count else 0
        ),
        timestep_count=len(full.distinct_timestamps()),
        span=full.span(),
        granularity=full.granularity.value,
        inductive_test_nodes=inductive,
        direct_recurrency=counts.direct / len(test),
        recurrency=counts.recurrent / len(test),
        consecutiveness=counts.longest_runs / counts.triples,
        mean_edges_per_ts=mean_edges,
        mean_nodes_per_ts=mean_nodes,
        relation_histogram=histogram,
        others_share=others,
    )
