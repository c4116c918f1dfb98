import numpy as np
import pytest

from chronolink import (
    ConfigError,
    ConstantScorer,
    EvalQuery,
    OracleScorer,
    ProtocolError,
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
    generate_random,
    generate_type_aware,
    merge,
    time_aware_filter,
)
from conftest import HashScorer


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
    negatives = generate_random(universe, queries, q=9, seed=0)
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
    negatives = generate_random(g, queries, q=19, seed=1)
    assert len(negatives.candidates[0]) == 19
    result = evaluate_single_step(ConstantScorer(), train, test, negatives, g, kind="thg")
    assert result.mrr == pytest.approx(1.0 / 10.5)
    assert result.hits[10] == 0.0


def test_missing_negative_record_raises():
    g, train, valid, test = _tkg(seed=2)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_random(universe, queries[:-1], q=5, seed=0)
    with pytest.raises(ProtocolError):
        evaluate_single_step(OracleScorer(), merge(train, valid), test, negatives, g)


def test_scorer_shape_mismatch_raises():
    class Broken(Scorer):
        def score_query(self, query, candidates):
            return np.zeros(max(0, len(candidates) - 1))

    g, train, valid, test = _tkg(seed=2)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_random(universe, queries, q=5, seed=0)
    with pytest.raises(ProtocolError, match="scorer returned"):
        evaluate_single_step(Broken(), merge(train, valid), test, negatives, g)


def _test_run(scorer, **kwargs):
    g, train, valid, test = _tkg(seed=2)
    negatives = generate_random(add_inverse_relations(g), expand_queries(test, "tkg"),
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
    negatives = generate_type_aware(universe, queries, q=6, seed=2)
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
    q_set = generate_random(universe, queries, q=5, seed=seed)
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
        HashScorer(), history, test, generate_random(universe, queries, q=5, seed=0), g
    ).mrr
    assert mrr_q >= mrr_all


def test_per_relation_breakdown_weighted_mean():
    g, train, valid, test = _tkg(seed=4)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_type_aware(universe, queries, q=6, seed=4)
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
    negatives = generate_type_aware(universe, queries, q=5, seed=5)
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
    negatives = generate_random(universe, queries, q=4, seed=6)
    recorder = Recorder()
    evaluate_single_step(recorder, merge(train, valid), test, negatives, g)
    assert sorted(set(recorder.seen)) == sorted(set(test.timestamps.tolist()))
    assert recorder.scored_at == sorted(recorder.scored_at)


def test_per_timestep_series_covers_all_test_timestamps():
    g, train, valid, test = _tkg(seed=8)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_random(universe, queries, q=4, seed=8)
    result = evaluate_single_step(HashScorer(), merge(train, valid), test, negatives, g)
    assert [t for t, _, _ in result.per_timestep] == sorted(set(test.timestamps.tolist()))
    assert sum(c for _, _, c in result.per_timestep) == result.query_count


def test_mrr_bounds_and_hits_monotone():
    g, train, valid, test = _tkg(seed=9)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_random(universe, queries, q=7, seed=9)
    r = evaluate_single_step(HashScorer(), merge(train, valid), test, negatives, g)
    assert 0.0 <= r.mrr <= 1.0
    assert r.hits[1] <= r.hits[3] <= r.hits[10]
    assert r.hits[1] <= r.mrr
