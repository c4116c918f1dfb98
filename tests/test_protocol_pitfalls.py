"""The protocol pitfalls of "Comparing Apples and Oranges?" (Gastinger et al.,
ECML PKDD 2023) as named tests on hand-built graphs.

- The filter: the time-aware filter removes only facts true at the query
  time. A static filter also removes facts true only earlier, and the raw
  setting removes nothing; each gives its own rank.
- Single-step feeding: a timestamp's queries are answered before its ground
  truth reaches the scorer, and ground truth arrives in time order.
- Ties: a scorer that cannot tell the candidates apart puts the truth in the
  middle of them, not at the top or the bottom.
"""

import math

import numpy as np
import pytest

from chronolink import (
    ConstantScorer,
    NegativeSampleSet,
    Scorer,
    SynthConfig,
    add_inverse_relations,
    brute_force_evaluate,
    evaluate_single_step,
    expand_queries,
    from_quadruples,
    generate,
    generate_all,
)
from conftest import HashScorer


def _thg(quads, nodes):
    """A graph of one node type, so each quadruple is one tail query."""
    return from_quadruples(quads, node_count=nodes, relation_count=1, node_types=[0] * nodes)


class _Fixed(Scorer):
    """A fixed score per node, whatever the query."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def score_query(self, query, candidates):
        return self.scores[candidates]


# (0, 0, 3) holds only at timestamp 1; at timestamp 2 the queries (0, 0, ?, 2)
# have the truths 1 and 2, each the other's conflict
_FILTERED = _thg([(0, 0, 3, 1), (0, 0, 1, 2), (0, 0, 2, 2)], 6)
_SCORES = [0.0, 0.5, 0.9, 0.8, 0.0, 0.0]  # node 2, then node 3, above node 1


@pytest.mark.parametrize("materialize", [False, True])
def test_time_aware_filter_keeps_a_fact_true_only_earlier(materialize):
    g = _FILTERED
    history, test = g.time_slice(0, 1), g.time_slice(2, 2)
    queries = expand_queries(test, "thg")
    # a static filter removes every fact ever true: the time-aware filter over
    # a universe that holds them all at the query time
    static = _thg([(s, r, o, 2) for s, r, o, _ in g], 6)
    # the raw setting removes nothing: a universe without the query time's facts
    raw = history

    def run(universe):
        negatives = generate_all(universe, queries, materialize=materialize)
        got = evaluate_single_step(_Fixed(_SCORES), history, test, negatives, universe)
        assert got == brute_force_evaluate(_Fixed(_SCORES), history, test, negatives, universe)
        return got

    time_aware = run(g)
    # truth 1 ranks below node 3, true only at timestamp 1; its conflict 2 is removed
    assert time_aware.mrr == (1 / 2 + 1) / 2 and time_aware.hits[1] == 0.5
    # removing node 3 as well puts truth 1 first
    assert run(static).mrr == 1.0
    # keeping its conflict too puts truth 1 third
    assert run(raw).mrr == (1 / 3 + 1) / 2


class _Recording(HashScorer):
    """HashScorer with a support, logging every call with its timestamp."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def fit(self, history, static_context=None):
        self.log.append(("fit", history.t_max))

    def support(self, query):
        self.log.append(("support", query.timestamp))
        return np.arange(0, 12, 3)

    def score_query(self, query, candidates):
        self.log.append(("score", query.timestamp))
        return super().score_query(query, candidates)

    def observe(self, quads):
        assert quads.t_min == quads.t_max
        self.log.append(("observe", quads.t_min))


@pytest.mark.parametrize("materialize", [False, True])
def test_single_step_feeding_answers_a_timestamp_before_revealing_it(materialize):
    g = generate(SynthConfig(node_count=12, relation_count=2, timestep_count=8, rate=5, seed=4))
    history, test = g.time_slice(0, 4), g.time_slice(5, 7)
    queries = expand_queries(test, "tkg")
    negatives = generate_all(add_inverse_relations(g), queries, materialize=materialize)
    log = []
    evaluate_single_step(_Recording(log), history, test, negatives, g)

    assert log[0] == ("fit", 4)
    observed = [t for kind, t in log if kind == "observe"]
    assert observed == sorted(set(test.timestamps.tolist()))  # ascending, once each
    for k, (kind, t) in enumerate(log[1:], 1):
        revealed = [u for what, u in log[:k] if what == "observe"]
        # every call for timestamp t comes after the earlier ones are revealed
        # and before t itself is
        assert all(u < t for u in revealed), (k, kind, t)
    scored = [t for kind, t in log if kind == "score"]
    assert sorted(scored) == scored and len(scored) == len(queries)
    named = [t for kind, t in log if kind == "support"]
    assert len(named) == (0 if materialize else len(queries))
    for t in set(named):  # a timestamp's supports are all named before it is scored
        calls = [kind for kind, u in log if u == t and kind != "observe"]
        assert calls == ["support"] * calls.count("support") + ["score"] * calls.count("score")


# timestamp 5 holds (0, 0, 1) and (0, 0, 6), each the other's conflict, and
# (2, 0, 3); timestamp 6 holds (4, 0, 5)
_TIED = _thg([(1, 0, 2, 0), (0, 0, 1, 5), (0, 0, 6, 5), (2, 0, 3, 5), (4, 0, 5, 6)], 7)


def _rank_mean(others):
    """MRR when each query ties with ``others[k]`` ranked candidates: rank 1 + m/2."""
    return math.fsum(1 / (1 + m / 2) for m in others) / len(others)


def test_ties_rank_the_truth_in_the_middle_of_every_node():
    history, test = _TIED.time_slice(0, 4), _TIED.time_slice(5, 6)
    negatives = generate_all(_TIED, expand_queries(test, "thg"), materialize=False)
    got = evaluate_single_step(ConstantScorer(), history, test, negatives, _TIED)
    # every node but the truth and, for the first two queries, the conflict
    others = [5, 5, 6, 6]
    assert got.mrr == _rank_mean(others)
    assert got.hits == {1: 0.0, 3: 0.0, 10: 1.0}
    assert (got.tied_queries, got.max_tie_group) == (4, 7)


def test_ties_rank_the_truth_in_the_middle_of_a_sampled_list():
    history, test = _TIED.time_slice(0, 4), _TIED.time_slice(5, 6)
    queries = expand_queries(test, "thg")
    conflicts = {1: {6}, 6: {1}}
    lists = [np.array([c for c in range(7) if c != q.true_destination
                       and c not in conflicts.get(q.true_destination, ())][:3])
             for q in queries]
    negatives = NegativeSampleSet("random", 3, 0, queries, lists)
    got = evaluate_single_step(ConstantScorer(), history, test, negatives, _TIED)
    assert got.mrr == _rank_mean([3] * 4) == 1 / 2.5
    assert got.hits == {1: 0.0, 3: 1.0, 10: 1.0}
    assert (got.tied_queries, got.max_tie_group) == (4, 4)
