import re
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    ConfigError,
    ConstantScorer,
    CorruptionError,
    DataError,
    EdgeBankScorer,
    EvalQuery,
    NegativeSampleSet,
    OracleScorer,
    ProtocolError,
    RecurrencyScorer,
    Scorer,
    SynthConfig,
    add_inverse_relations,
    average_rank,
    chronological_split,
    evaluate_single_step,
    expand_queries,
    from_quadruples,
    generate,
    generate_all,
    generate_negative_set,
    merge,
    open_negative_set,
    read_negative_set,
    time_aware_filter,
    write_negative_set,
)
from chronolink import evaluation, negatives
from conftest import HashScorer, write_records


def _tkg(seed=0, **overrides):
    cfg = SynthConfig(node_count=30, relation_count=3, timestep_count=35, rate=5,
                      p_rep=0.4, seed=seed, **overrides)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    return g, train, valid, test


# -- query expansion -------------------------------------------------------------------


def test_expand_thg_one_query_per_quad():
    cfg = SynthConfig(node_count=20, relation_count=2, timestep_count=20,
                      node_type_count=2, rate=4, seed=0)
    g = generate(cfg)
    queries = expand_queries(g, "thg")
    assert len(queries) == len(g)
    assert all(q.direction == "tail" for q in queries)


def test_expand_tkg_two_queries_per_quad(g4):
    queries = expand_queries(g4, "tkg")
    assert len(queries) == 2 * len(g4)


def test_expand_g4_test_contains_reversed_query(g4):
    test = g4.time_slice(3, 3)
    queries = expand_queries(test, "tkg")
    assert len(queries) == 4
    assert EvalQuery(1, 2, 3, 0, "head") in queries  # (1, 0 + R, ?, 3) with R = 2
    assert EvalQuery(0, 0, 3, 1, "tail") in queries


def test_expand_augmented_graph_matches_unaugmented(g4):
    test = g4.time_slice(3, 3)
    direct = expand_queries(test, "tkg")
    via_augmented = expand_queries(add_inverse_relations(test), "tkg")
    assert direct == via_augmented


def test_expand_queries_sorted_canonically(g4):
    queries = expand_queries(g4, "tkg")
    keys = [(q.timestamp, q.source, q.relation, q.true_destination) for q in queries]
    assert keys == sorted(keys)


def _tuple_sorted_queries(test, kind):
    """The query expansion as Python tuples sorted by key: the reference for the
    columnar table."""
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


# negative, zero and unix-second timestamps
_STAMPS = st.sampled_from([-86_400, -3, 0, 2, 1_700_000_000, 1_700_086_400])


@settings(max_examples=80, deadline=None)
@given(quads=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4), _STAMPS),
                      max_size=30),
       form=st.sampled_from(["raw tkg", "augmented tkg", "thg"]))
@example(quads=[], form="raw tkg")
@example(quads=[], form="augmented tkg")
@example(quads=[], form="thg")
@example(quads=[(1, 0, 0, 1_700_000_000), (0, 2, 1, -3), (0, 0, 1, -3)], form="raw tkg")
def test_expand_queries_equal_the_tuple_sort(quads, form):
    types = [0, 1, 0, 1, 2] if form == "thg" else None
    g = from_quadruples(quads, node_count=5, relation_count=3, node_types=types)
    if form == "augmented tkg":
        g = add_inverse_relations(g)
    kind = form[-3:]
    got = expand_queries(g, kind)
    assert got == _tuple_sorted_queries(g, kind)
    assert all(type(field) is int for query in got for field in query[:4])


def test_expand_rejects_unknown_kind(g4):
    with pytest.raises(Exception):
        expand_queries(g4, "static")


# -- time-aware filter ------------------------------------------------------------------


def test_filter_removes_same_timestamp_facts():
    g = from_quadruples([(0, 0, 2, 3), (0, 0, 1, 3)], node_count=4, relation_count=1)
    query = EvalQuery(0, 0, 3, 1)
    kept = time_aware_filter(np.array([0, 2, 3]), query, g)
    assert kept.tolist() == [0, 3]


def test_filter_keeps_other_timestamps():
    g = from_quadruples([(0, 0, 2, 1)], node_count=4, relation_count=1)
    query = EvalQuery(0, 0, 3, 1)
    kept = time_aware_filter(np.array([0, 2, 3]), query, g)
    assert kept.tolist() == [0, 2, 3]


def test_filter_always_retains_truth():
    g = from_quadruples([(0, 0, 1, 3), (0, 0, 2, 3)], node_count=4, relation_count=1)
    query = EvalQuery(0, 0, 3, 1)
    kept = time_aware_filter(np.array([1, 2, 3]), query, g)
    assert kept.tolist() == [1, 3]


@pytest.mark.parametrize("seed", range(6))
def test_filter_soundness_vs_naive(seed):
    g, train, valid, test = _tkg(seed=seed)
    universe = add_inverse_relations(g)
    quadset = {(s, r, o, t) for s, r, o, t in universe}
    for query in expand_queries(test, "tkg"):
        candidates = np.arange(g.node_count, dtype=np.int64)
        kept = time_aware_filter(candidates, query, universe)
        naive = [
            c
            for c in range(g.node_count)
            if c == query.true_destination
            or (query.source, query.relation, c, query.timestamp) not in quadset
        ]
        assert kept.tolist() == naive


# -- average rank -----------------------------------------------------------------------


def test_average_rank_unique_best():
    assert average_rank(np.array([0.2, 0.1, 0.9]), 2) == 1.0


def test_average_rank_paired_tie():
    scores = np.array([0.1, 0.9, 0.9, 0.2])
    assert average_rank(scores, 1) == 1.5
    assert 1.0 / average_rank(scores, 1) == pytest.approx(2.0 / 3.0)


def test_average_rank_full_tie():
    for m in (1, 4, 9):
        scores = np.zeros(m + 1)
        assert average_rank(scores, m) == 1 + m / 2.0


def test_average_rank_worst_case():
    scores = np.array([5.0, 4.0, 3.0, 0.0])
    assert average_rank(scores, 3) == 4.0


# -- the engine -------------------------------------------------------------------------


def test_oracle_scorer_is_perfect():
    g, train, valid, test = _tkg(seed=1)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_all(universe, queries)
    result = evaluate_single_step(OracleScorer(), merge(train, valid), test, negatives, g)
    assert result.mrr == 1.0
    assert all(v == 1.0 for v in result.hits.values())
    assert result.query_count == len(queries)


def test_constant_scorer_full_tie_mrr():
    # one test quad per subject; q=9 conflict-free negatives -> every rank 5.5
    quads = [(s, 0, s + 1, t) for t in range(3) for s in range(5)]
    quads += [(s, 0, s + 1, 3) for s in range(5)]
    g = from_quadruples(quads, node_count=20, relation_count=1)
    train = g.time_slice(0, 2)
    test = g.time_slice(3, 3)
    queries = expand_queries(test, "thg")  # tail-only keeps the arithmetic transparent
    universe = g
    negatives = generate_negative_set("random", universe, queries, q=9, seed=0)
    result = evaluate_single_step(
        ConstantScorer(), train, test, negatives, g, kind="thg"
    )
    assert result.mrr == pytest.approx(2.0 / 11.0)
    assert result.hits[3] == 0.0  # rank 5.5 misses hits@3
    assert result.hits[10] == 1.0
    assert result.tied_queries == result.query_count


def test_half_integer_rank_misses_hits_at_ten():
    # 19 tied negatives -> rank 10.5, which must not count for hits@10
    quads = [(0, 0, 1, t) for t in range(3)] + [(0, 0, 1, 3)]
    g = from_quadruples(quads, node_count=25, relation_count=1)
    train = g.time_slice(0, 2)
    test = g.time_slice(3, 3)
    queries = expand_queries(test, "thg")
    negatives = generate_negative_set("random", g, queries, q=19, seed=1)
    assert len(negatives.candidates[0]) == 19
    result = evaluate_single_step(ConstantScorer(), train, test, negatives, g, kind="thg")
    assert result.mrr == pytest.approx(1.0 / 10.5)
    assert result.hits[10] == 0.0


def test_missing_negative_record_raises():
    g, train, valid, test = _tkg(seed=2)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("random", universe, queries[:-1], q=5, seed=0)
    missing = re.escape(str(queries[-1]))
    with pytest.raises(ProtocolError, match=f"no negative record for query {missing}$"):
        evaluate_single_step(OracleScorer(), merge(train, valid), test, negatives, g)


@pytest.mark.parametrize("materialize", [True, False], ids=["sampled", "1-vs-all"])
def test_a_set_with_more_records_than_queries_is_protocol_error(materialize):
    # a set for the whole test split, evaluated on its first timestamp only
    g, train, valid, test = _tkg(seed=2)
    queries = expand_queries(test, "tkg")
    negatives = generate_all(add_inverse_relations(g), queries, materialize=materialize)
    first = test.time_slice(test.t_min, test.t_min)
    expected = len(expand_queries(first, "tkg"))
    assert expected < len(queries)
    with pytest.raises(ProtocolError,
                       match=f"negative set covers {len(queries)} queries, expected {expected}$"):
        evaluate_single_step(EdgeBankScorer(), merge(train, valid), first, negatives, g)


def _reordered(negatives, records):
    """The set's records ``records`` in that order, as a set from outside."""
    return NegativeSampleSet(negatives.strategy, negatives.q, negatives.seed,
                             [negatives.queries[k] for k in records],
                             [negatives.candidates[k] for k in records])


@pytest.mark.parametrize("chunk", [7, negatives._CHUNK_CELLS])
@pytest.mark.parametrize("make", [EdgeBankScorer, RecurrencyScorer])
def test_shuffled_records_give_the_canonical_result(chunk, make):
    g, train, valid, test = _tkg(seed=3)
    universe = add_inverse_relations(g)
    ns = generate_negative_set("type-aware", universe, expand_queries(test, "tkg"), q=6, seed=2)
    records = np.random.default_rng(0).permutation(len(ns))
    assert not np.array_equal(records, np.arange(len(ns)))
    shuffled = _reordered(ns, records)
    assert shuffled == ns  # put back in canonical order
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        got, want = (evaluate_single_step(make(), merge(train, valid), test, negative_set, g)
                     for negative_set in (shuffled, ns))
    assert got == want


def test_duplicated_record_in_place_of_another_is_protocol_error():
    g, train, valid, test = _tkg(seed=3)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    records = np.arange(len(queries))
    records[5] = 4  # query 5's record replaced by a copy of query 4's
    negatives = _reordered(generate_negative_set("random", universe, queries, q=4, seed=0), records[::-1])
    missing = re.escape(str(queries[5]))
    with pytest.raises(ProtocolError, match=f"no negative record for query {missing}$"):
        evaluate_single_step(EdgeBankScorer(), merge(train, valid), test, negatives, g)


def test_scorer_shape_mismatch_raises():
    class Broken(Scorer):
        def score_query(self, query, candidates):
            return np.zeros(max(0, len(candidates) - 1))

    g, train, valid, test = _tkg(seed=2)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("random", universe, queries, q=5, seed=0)
    with pytest.raises(ProtocolError, match="scorer returned"):
        evaluate_single_step(Broken(), merge(train, valid), test, negatives, g)


def _test_run(scorer, **kwargs):
    g, train, valid, test = _tkg(seed=2)
    negatives = generate_negative_set("random", add_inverse_relations(g), expand_queries(test, "tkg"),
                                q=5, seed=0)
    return evaluate_single_step(scorer, merge(train, valid), test, negatives, g, **kwargs)


class _TruthScorer(Scorer):
    """Scores the truth ``top`` and every other candidate 0."""

    def __init__(self, top):
        self.top = top

    def score_query(self, query, candidates):
        return np.where(candidates == query.true_destination, self.top, 0.0)


def test_nan_scores_are_protocol_error():
    with pytest.raises(ProtocolError, match="NaN"):
        _test_run(_TruthScorer(np.nan))


# (0, 0, ?, 3) has two answers, 1 and 2: each is the other query's conflict
_CONFLICTED = [(0, 0, 1, 1), (0, 0, 1, 3), (0, 0, 2, 3)]


def _conflicted_run(scorer, lists=None, drop_last=False):
    """Rank test timestamp 3 of a 5-node graph, 1-vs-all or over given lists."""
    g = from_quadruples(_CONFLICTED, node_count=5, relation_count=1)
    queries = expand_queries(g.time_slice(3, 3), "thg")[: -1 if drop_last else None]
    if lists is None:
        negatives = generate_all(g, queries, materialize=False)
    else:  # a set from outside, holding the conflicts the filter must drop
        negatives = NegativeSampleSet("random", 4, 0, queries, lists(queries))
    return evaluate_single_step(scorer, g.time_slice(0, 2), g.time_slice(3, 3), negatives, g,
                                kind="thg")


def _every_other_node(queries):
    return [np.delete(np.arange(5), q.true_destination) for q in queries]


class _NanAt(Scorer):
    """HashScorer's scores, with NaN at the query's conflicts, its truth or a fixed node."""

    def __init__(self, where):
        self.where = where

    def score_query(self, query, candidates):
        conflicts = {1, 2} - {query.true_destination}
        nan = {"conflicts": conflicts, "truth": {query.true_destination}, "kept": {4}}
        scores = HashScorer(salt=5).score_query(query, candidates)
        return np.where(np.isin(candidates, list(nan[self.where])), np.nan, scores)


@pytest.mark.parametrize("lists", [None, _every_other_node], ids=["dense", "filtered"])
def test_nan_only_at_conflicts_is_never_ranked(lists):
    assert _conflicted_run(_NanAt("conflicts"), lists) == _conflicted_run(HashScorer(5), lists)


@pytest.mark.parametrize("lists", [None, _every_other_node], ids=["dense", "filtered"])
@pytest.mark.parametrize("where", ["truth", "kept"])
def test_nan_at_a_ranked_score_is_protocol_error(lists, where):
    with pytest.raises(ProtocolError, match="NaN"):
        _conflicted_run(_NanAt(where), lists)


def test_one_vs_all_truth_outside_the_universe_is_data_error():
    g = from_quadruples(_CONFLICTED, node_count=5, relation_count=1)
    test = from_quadruples([(0, 0, 5, 3)], node_count=6, relation_count=1)
    negatives = generate_all(g, expand_queries(test, "thg"), materialize=False)
    with pytest.raises(DataError, match="node space"):
        evaluate_single_step(HashScorer(5), g.time_slice(0, 2), test, negatives, g, kind="thg")


def test_unmaterialized_set_missing_a_query_is_protocol_error():
    with pytest.raises(ProtocolError, match="no negative record"):
        _conflicted_run(HashScorer(5), drop_last=True)


@pytest.mark.parametrize("top", [np.inf, -np.inf])
def test_infinite_scores_rank_like_finite_extremes(top):
    result = _test_run(_TruthScorer(top))
    assert result == _test_run(_TruthScorer(np.sign(top)))
    assert (result.mrr == 1.0) == (top > 0)


def test_cutoffs_below_one_are_config_errors():
    with pytest.raises(ConfigError, match="cutoffs"):
        _test_run(OracleScorer(), ks=(0, -3))


class _Stacked(Scorer):
    """Stacks the scores of several scorers into one (len(scorers), n) block."""

    def __init__(self, *scorers):
        self.scorers = scorers

    def fit(self, history, static_context=None):
        for scorer in self.scorers:
            scorer.fit(history, static_context)

    def observe(self, quads):
        for scorer in self.scorers:
            scorer.observe(quads)

    def score_query(self, query, candidates):
        return np.stack([s.score_query(query, candidates) for s in self.scorers])


def test_score_block_gives_one_result_per_row():
    parts = (HashScorer(salt=3), ConstantScorer())
    results = _test_run(_Stacked(*parts))
    assert results == tuple(_test_run(part) for part in parts)
    assert results[0] != results[1]
    assert _test_run(_Stacked(OracleScorer())) == (_test_run(OracleScorer()),)


class _Reshaped(Scorer):
    """All-zero scores of shape ``shape(n)`` for n candidates."""

    def __init__(self, shape):
        self.shape = shape

    def score_query(self, query, candidates):
        return np.zeros(self.shape(len(candidates)))


@pytest.mark.parametrize("scorer,match", [
    pytest.param(_Stacked(OracleScorer(), _TruthScorer(np.nan)), "NaN", id="nan-second-row"),
    pytest.param(_Stacked(_TruthScorer(np.nan), OracleScorer()), "NaN", id="nan-first-row"),
    pytest.param(_Reshaped(lambda n: (2, n - 1)), r"scorer returned \(", id="short-last-axis"),
    pytest.param(_Reshaped(lambda n: (2, n + 1)), r"scorer returned \(", id="long-last-axis"),
    pytest.param(_Reshaped(lambda n: (n, 2)), r"scorer returned \(", id="transposed"),
    pytest.param(_Reshaped(lambda n: (1, 2, n)), r"scorer returned \(", id="three-axes"),
    pytest.param(_Reshaped(lambda n: ()), r"scorer returned \(", id="scalar"),
])
def test_malformed_score_block_is_protocol_error(scorer, match):
    with pytest.raises(ProtocolError, match=match):
        _test_run(scorer)


def test_score_block_rows_must_not_change_between_queries():
    class Growing(Scorer):
        rows = 0

        def score_query(self, query, candidates):
            self.rows += 1
            return np.zeros((self.rows, len(candidates)))

    with pytest.raises(ProtocolError, match=r"scorer returned \("):
        _test_run(Growing())


def test_score_scale_invariance():
    class Transformed(Scorer):
        def __init__(self, inner, transform):
            self.inner = inner
            self.transform = transform

        def fit(self, history, static_context=None):
            self.inner.fit(history, static_context)

        def observe(self, quads):
            self.inner.observe(quads)

        def score_query(self, query, candidates):
            return self.transform(self.inner.score_query(query, candidates))

    g, train, valid, test = _tkg(seed=3)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("type-aware", universe, queries, q=6, seed=2)
    history = merge(train, valid)
    base = evaluate_single_step(HashScorer(), history, test, negatives, g)
    for transform in (lambda x: 3.0 * x + 1.0, np.exp, lambda x: x**3 + x):
        transformed = evaluate_single_step(
            Transformed(HashScorer(), transform), history, test, negatives, g
        )
        assert transformed == base


@pytest.mark.parametrize("seed", range(5))
def test_candidate_subset_monotone_per_query(seed):
    # removing candidates never worsens the truth's rank; the scorer is
    # stateless, so ranks can be compared query by query
    g, train, valid, test = _tkg(seed=seed)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    all_set = generate_all(universe, queries)
    q_set = generate_negative_set("random", universe, queries, q=5, seed=seed)
    scorer = HashScorer(salt=seed)
    for query, full_c, sub_c in zip(queries, all_set.candidates, q_set.candidates):
        assert set(sub_c.tolist()) <= set(full_c.tolist())
        ranks = []
        for cands in (full_c, sub_c):
            kept = time_aware_filter(cands, query, universe)
            ids = np.concatenate([kept, [query.true_destination]])
            ranks.append(average_rank(scorer.score_query(query, ids), len(ids) - 1))
        assert ranks[1] <= ranks[0]


def test_subset_monotonicity_in_aggregate():
    g, train, valid, test = _tkg(seed=7)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    history = merge(train, valid)
    mrr_all = evaluate_single_step(
        HashScorer(), history, test, generate_all(universe, queries), g
    ).mrr
    mrr_q = evaluate_single_step(
        HashScorer(), history, test, generate_negative_set("random", universe, queries, q=5, seed=0), g
    ).mrr
    assert mrr_q >= mrr_all


def test_per_relation_breakdown_weighted_mean():
    g, train, valid, test = _tkg(seed=4)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("type-aware", universe, queries, q=6, seed=4)
    result = evaluate_single_step(HashScorer(), merge(train, valid), test, negatives, g)
    breakdown = result.per_relation
    weighted = sum(mrr * count for mrr, count in breakdown.values())
    assert weighted / result.query_count == pytest.approx(result.mrr, abs=1e-12)
    assert sum(count for _, count in breakdown.values()) == result.query_count


def test_per_relation_single_relation_graph():
    quads = [(0, 0, 1, t) for t in range(4)] + [(1, 0, 0, t) for t in range(4)]
    g = from_quadruples(quads, node_count=6, relation_count=1)
    train = g.time_slice(0, 2)
    test = g.time_slice(3, 3)
    queries = expand_queries(test, "thg")
    negatives = generate_all(g, queries)
    result = evaluate_single_step(OracleScorer(), train, test, negatives, g, kind="thg")
    assert result.per_relation == {0: (1.0, 2)}


def test_per_relation_two_relation_hand_case():
    class RelationBiased(Scorer):
        def score_query(self, query, candidates):
            if query.relation == 0:
                return (candidates == query.true_destination).astype(float)
            return -(candidates == query.true_destination).astype(float)

    quads = [(0, 0, 1, t) for t in range(3)] + [(2, 1, 3, t) for t in range(3)]
    quads += [(0, 0, 1, 3), (2, 1, 3, 3)]
    g = from_quadruples(quads, node_count=4, relation_count=2)
    train = g.time_slice(0, 2)
    test = g.time_slice(3, 3)
    queries = expand_queries(test, "thg")
    negatives = generate_all(g, queries)
    result = evaluate_single_step(RelationBiased(), train, test, negatives, g, kind="thg")
    breakdown = result.per_relation
    assert breakdown[0] == (1.0, 1)
    assert breakdown[1][1] == 1 and breakdown[1][0] < 1.0
    assert result.mrr == pytest.approx((breakdown[0][0] + breakdown[1][0]) / 2)


def test_result_serialization_deterministic():
    g, train, valid, test = _tkg(seed=5)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("type-aware", universe, queries, q=5, seed=5)
    history = merge(train, valid)
    a = evaluate_single_step(HashScorer(), history, test, negatives, g)
    b = evaluate_single_step(HashScorer(), history, test, negatives, g)
    assert a.to_text() == b.to_text()
    assert a.per_relation_table() == b.per_relation_table()
    assert a.per_timestep_table() == b.per_timestep_table()


def test_ground_truth_fed_between_timestamps():
    class Recorder(Scorer):
        def __init__(self):
            self.seen = []
            self.scored_at = []

        def fit(self, history, static_context=None):
            self.fit_max = history.t_max if len(history) else None

        def score_query(self, query, candidates):
            self.scored_at.append(query.timestamp)
            # everything observed so far must be strictly older than the query
            assert all(t < query.timestamp for t in self.seen)
            return np.zeros(len(candidates))

        def observe(self, quads):
            self.seen.extend(quads.timestamps.tolist())

    g, train, valid, test = _tkg(seed=6)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("random", universe, queries, q=4, seed=6)
    recorder = Recorder()
    evaluate_single_step(recorder, merge(train, valid), test, negatives, g)
    assert sorted(set(recorder.seen)) == sorted(set(test.timestamps.tolist()))
    assert recorder.scored_at == sorted(recorder.scored_at)


def test_per_timestep_series_covers_all_test_timestamps():
    g, train, valid, test = _tkg(seed=8)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("random", universe, queries, q=4, seed=8)
    result = evaluate_single_step(HashScorer(), merge(train, valid), test, negatives, g)
    assert [t for t, _, _ in result.per_timestep] == sorted(set(test.timestamps.tolist()))
    assert sum(c for _, _, c in result.per_timestep) == result.query_count


def test_mrr_bounds_and_hits_monotone():
    g, train, valid, test = _tkg(seed=9)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("random", universe, queries, q=7, seed=9)
    r = evaluate_single_step(HashScorer(), merge(train, valid), test, negatives, g)
    assert 0.0 <= r.mrr <= 1.0
    assert r.hits[1] <= r.hits[3] <= r.hits[10]
    assert r.hits[1] <= r.mrr


@pytest.mark.parametrize("make", [EdgeBankScorer, RecurrencyScorer])
@pytest.mark.parametrize("materialized", [True, False], ids=["sampled", "1-vs-all"])
def test_facts_outside_the_evaluated_range_change_nothing(make, materialized):
    """The engine slices the filter universe to the evaluated timestamps
    before augmenting it; facts outside them cannot change a result."""
    g, train, valid, test = _tkg(seed=10)
    rng = np.random.default_rng(10)
    # extra facts before and after the test range, many at test sources
    times = np.concatenate([rng.integers(g.t_min - 5, test.t_min, 40),
                            rng.integers(test.t_max + 1, test.t_max + 6, 40)])
    extra = from_quadruples(
        list(zip(rng.choice(test.subjects, 80).tolist(), rng.integers(0, 3, 80).tolist(),
                 rng.integers(0, 30, 80).tolist(), times.tolist())),
        node_count=g.node_count, relation_count=g.relation_count)
    wider = merge(g, extra)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    if materialized:
        negatives = generate_negative_set("type-aware", universe, queries, q=6, seed=10)
    else:
        negatives = generate_all(universe, queries, materialize=False)
    history = merge(train, valid)
    augmented = []

    def recording(graph):
        augmented.append(graph)
        return add_inverse_relations(graph)

    results = []
    for full in (g, wider, test):
        augmented.clear()
        with mock.patch.object(evaluation, "add_inverse_relations", recording):
            results.append(evaluate_single_step(make(), history, test, negatives, full))
        # the universe is augmented first, from the test range's rows only
        assert augmented[0] == full.time_slice(test.t_min, test.t_max)
    assert results[0] == results[1] == results[2]
    assert results[0].query_count == len(queries)


def test_an_empty_split_evaluates_to_no_queries():
    g, train, valid, test = _tkg(seed=11)
    empty = g.time_slice(g.t_max + 1, g.t_max + 2)
    negatives = generate_all(add_inverse_relations(g), [], materialize=False)
    result = evaluate_single_step(EdgeBankScorer(), merge(train, valid), empty, negatives, g)
    assert result.query_count == 0 and result.per_timestep == ()


# -- negative sets streamed from a file ------------------------------------------------


def _streamed_setup(tmp_path, seed=3):
    g, train, valid, test = _tkg(seed=seed)
    universe = add_inverse_relations(g)
    ns = generate_negative_set("type-aware", universe, expand_queries(test, "tkg"), q=6, seed=2)
    path = tmp_path / "negatives.bin"
    write_negative_set(ns, path)
    return g, merge(train, valid), test, ns, path


@pytest.mark.parametrize("block", [5, 64])
def test_decode_passes_and_timestamps_cut_each_other(tmp_path, block):
    g, history, test, ns, path = _streamed_setup(tmp_path)
    passes, chunks = [], []  # the timestamps of each decode pass and of each chunk
    decode, take = negatives._decode_block, negatives._Reader.take

    def decoded(*args):
        taken, fields, ids = decode(*args)
        if taken:
            passes.append(set(fields[:, 2].tolist()))
        return taken, fields, ids

    def taken(self, wanted):
        table, counts, ids = take(self, wanted)
        chunks.append(set(table[2].tolist()))
        return table, counts, ids

    with mock.patch.object(negatives, "_BLOCK_BYTES", block), \
            mock.patch.object(negatives, "_decode_block", decoded), \
            mock.patch.object(negatives._Reader, "take", taken):
        got = evaluate_single_step(RecurrencyScorer(), history, test, open_negative_set(path), g)
    assert got == evaluate_single_step(RecurrencyScorer(), history, test, ns, g)
    assert all(len(stamps) == 1 for stamps in chunks)  # a chunk never crosses a timestamp
    if block == 5:  # a timestamp's records take several passes
        stamps = [t for timestamps in passes for t in timestamps]
        assert max(map(stamps.count, stamps)) > 1
    else:  # a pass holds records of several timestamps
        assert max(map(len, passes)) > 1


@pytest.mark.parametrize("reorder", ["shuffled", "last-timestamp-reversed"])
def test_a_file_in_another_order_gives_the_canonical_result(tmp_path, reorder):
    g, history, test, ns, _ = _streamed_setup(tmp_path)
    records = np.arange(len(ns))
    if reorder == "shuffled":
        records = np.random.default_rng(0).permutation(len(ns))
    else:  # the passes before it hold the canonical records, so the join starts mid-stream
        last = ns.table[2] == ns.table[2].max()
        records[last] = records[last][::-1]
    path = tmp_path / "reordered.bin"
    write_records(ns, records, path)
    assert path.read_bytes() != (tmp_path / "negatives.bin").read_bytes()
    assert open_negative_set(path).read() == ns
    with mock.patch.object(negatives, "_BLOCK_BYTES", 64):
        for make in (EdgeBankScorer, RecurrencyScorer):
            got = evaluate_single_step(make(), history, test, open_negative_set(path), g)
            assert got == evaluate_single_step(make(), history, test, ns, g)


def test_an_opened_file_evaluated_twice_gives_equal_results(tmp_path):
    g, history, test, ns, path = _streamed_setup(tmp_path)
    opened = open_negative_set(path)
    first, second = (evaluate_single_step(RecurrencyScorer(), history, test, opened, g)
                     for _ in range(2))
    assert first == second == evaluate_single_step(RecurrencyScorer(), history, test, ns, g)


@pytest.mark.parametrize("where,shift", [("memory", "node_count"), ("memory", -40),
                                         ("file", "node_count")])
def test_candidate_ids_outside_the_node_space_are_data_errors(tmp_path, where, shift):
    # a set made for a larger graph: every id of record 0 moved out of the node space
    g, history, test, ns, _ = _streamed_setup(tmp_path)
    ids = np.array(ns.ids, dtype=np.int64)
    ids[: ns.offsets[1]] += g.node_count if shift == "node_count" else shift
    shifted = NegativeSampleSet.from_columns(ns.strategy, ns.q, ns.seed, ns.table, ns.offsets,
                                             ids)
    if where == "file":
        write_negative_set(shifted, tmp_path / "shifted.bin")
        shifted = open_negative_set(tmp_path / "shifted.bin")
    with pytest.raises(DataError, match=rf"candidate id -?\d+ outside the graph's node space "
                                        rf"\[0, {g.node_count}\)"):
        evaluate_single_step(EdgeBankScorer(), history, test, shifted, g)


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _record_starts(ns, path) -> list:
    """The byte offset of each record of a file this tool wrote, and of its end."""
    body = len(path.read_bytes()) - 4
    sizes = [len(negatives._encode_block(ns.table[:, k:k + 1], ns.offsets[k:k + 2],
                                         ns.ids[ns.offsets[k]:ns.offsets[k + 1]]))
             for k in range(len(ns))]
    ends = np.cumsum(sizes) + body - sum(sizes)
    return [int(body - sum(sizes)), *ends.tolist()]


class _Counting(EdgeBankScorer):
    """EdgeBank that counts the timestamps it observed."""

    observed = 0

    def observe(self, quads):
        type(self).observed += 1
        super().observe(quads)


@pytest.mark.parametrize("damage", ["direction", "trailing"])
def test_a_corrupt_record_mid_stream_is_corruption_error(tmp_path, damage):
    # CRC-valid damage near the end of the file: the opener passes it, and the
    # replay meets it after scoring earlier timestamps
    g, history, test, ns, path = _streamed_setup(tmp_path)
    data = bytearray(path.read_bytes()[:-4])
    starts = _record_starts(ns, path)
    if damage == "direction":
        k = len(ns) - 2
        record = np.frombuffer(bytes(data[starts[k]:starts[k + 1]]), dtype=np.uint8)
        data[starts[k] + int(negatives._varints(record)[1][3]) + 1] = 2  # after the truth
        match = "unknown direction code"
    else:  # the last record twice
        data += data[starts[-2]:starts[-1]]
        match = "trailing bytes"
    path.write_bytes(_with_crc(bytes(data)))
    opened = open_negative_set(path)
    _Counting.observed = 0
    with mock.patch.object(negatives, "_BLOCK_BYTES", 64), \
            pytest.raises(CorruptionError, match=match):
        evaluate_single_step(_Counting(), history, test, opened, g)
    assert _Counting.observed > 1


def test_an_opened_file_is_ranked_without_its_ids_column(tmp_path):
    g = generate(SynthConfig(node_count=2000, relation_count=4, timestep_count=20, rate=300,
                             p_rep=0.5, seed=1))
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    ns = generate_negative_set("random", universe, expand_queries(test, "tkg"), q=1900, seed=1)
    path = tmp_path / "negatives.bin"
    write_negative_set(ns, path)
    column = read_negative_set(path).ids.nbytes
    history = merge(train, valid)
    want = evaluate_single_step(EdgeBankScorer(), history, test, ns, g)
    opened = open_negative_set(path)
    tracemalloc.start()
    try:
        with mock.patch.object(negatives.NegativeSetFile, "read", side_effect=AssertionError):
            got = evaluate_single_step(EdgeBankScorer(), history, test, opened, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert len(ns.ids) > 4_000_000
    # a full decode maps its column outside tracemalloc's view, so it is
    # refused above; the engine's own buffers are traced, and hold a chunk
    # and a decode pass at a time
    assert peak < column / 2
