import collections
import hashlib
import itertools
from unittest import mock

import numpy as np
import pytest

from chronolink import (
    ConfigError,
    DataError,
    EvalQuery,
    HistoryIndex,
    ProtocolError,
    RecurrencyParams,
    RecurrencyScorer,
    SynthConfig,
    add_inverse_relations,
    brute_force_evaluate,
    chronological_split,
    evaluate_single_step,
    expand_queries,
    from_quadruples,
    generate,
    generate_all,
    generate_negative_set,
    grid_search_recurrency,
    merge,
    validation_window,
)
from chronolink import baselines
from chronolink.baselines import (
    EdgeBankMemory,
    EdgeBankScorer,
    recurrency_score,
)
from chronolink.graph import SplitBoundaries


# -- EdgeBank ---------------------------------------------------------------------------


def test_edgebank_pair_key_activation():
    scorer = EdgeBankScorer("pair")
    g = from_quadruples([(0, 0, 1, 5)], node_count=3, relation_count=1)
    scorer.observe(g)
    scores = scorer.score_query(EvalQuery(0, 0, 9, 1), np.array([1, 2]))
    assert scores.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("rows", [0, 1, 2000])
@pytest.mark.parametrize("key_mode", ["pair", "triple"])
def test_observed_table_equals_an_np_unique_reference(rows, key_mode):
    rng = np.random.default_rng(rows)
    quads = [tuple(q) for q in rng.integers(0, [30, 4, 30, 50], size=(rows, 4)).tolist()]
    g = from_quadruples(quads, node_count=30, relation_count=4)
    keys = g.subjects if key_mode == "pair" else g.subjects * 4 + g.relations
    # a code's latest row is its first in the reversed rows
    codes, first = np.unique((keys * 30 + g.objects)[::-1], return_index=True)
    # the whole graph at once, then ascending time chunks of which the third is empty
    for bounds in ([0, 50], [0, 20, 40, 40, 50]):
        memory = EdgeBankMemory(key_mode)
        for lo, hi in zip(bounds, bounds[1:]):
            memory.observe(g.time_slice(lo, hi - 1) if hi > lo else g.time_slice(99, 99))
        assert memory._codes.tolist() == codes.tolist()
        assert memory._times.tolist() == g.timestamps[::-1][first].tolist()


@pytest.mark.parametrize("key_mode", ["pair", "triple"])
def test_a_code_keeps_its_latest_time_within_and_across_chunks(key_mode):
    memory = EdgeBankMemory(key_mode)
    chunks = [[(0, 0, 1, 4), (0, 0, 1, 2), (0, 1, 1, 3), (2, 0, 1, 9), (0, 0, 2, 1)],
              [],
              [(0, 1, 1, 10), (0, 0, 2, 11), (0, 0, 2, 12)]]
    expected = {"pair": [{1: 4, 2: 1}, {1: 4, 2: 1}, {1: 10, 2: 12}],
                "triple": [{1: 4, 2: 1}, {1: 4, 2: 1}, {1: 4, 2: 12}]}[key_mode]
    for chunk, want in zip(chunks, expected):
        memory.observe(from_quadruples(chunk, node_count=3, relation_count=2))
        destinations, times = memory.destinations(0, 0)
        assert dict(zip(destinations.tolist(), times.tolist())) == want
        assert memory.destinations(2, 0)[1].tolist() == [9]


def test_destinations_are_a_snapshot_that_no_observe_or_caller_changes():
    memory = EdgeBankMemory("pair")
    memory.observe(from_quadruples([(0, 0, 1, 0), (0, 0, 2, 0)], node_count=3, relation_count=1))
    destinations, times = memory.destinations(0, 0)
    with pytest.raises(ValueError):
        times[0] = 7
    memory.observe(from_quadruples([(0, 0, 1, 5)], node_count=3, relation_count=1))
    assert (destinations.tolist(), times.tolist()) == ([1, 2], [0, 0])
    assert memory.destinations(0, 0)[1].tolist() == [5, 0]
    assert memory.lookup(0, 0, [1, 2])[1].tolist() == [5, 0]


def _naive_frequencies(quads, relation, t_now, window):
    counts = collections.Counter(
        o for _, r, o, t in quads if r == relation and (window == 0 or t >= t_now - window))
    top = max(counts.values(), default=1)
    return sorted(counts), [counts[o] / top for o in sorted(counts)]


@pytest.mark.parametrize("seed", range(4))
def test_object_frequencies_equal_a_naive_count(seed):
    rng = np.random.default_rng(seed)
    # few relations and objects: many repeated (relation, object) rows
    quads = [tuple(q) for q in rng.integers(0, [6, 3, 4, 20], size=(300, 4)).tolist()]
    g = from_quadruples(quads, node_count=6, relation_count=3)
    index = HistoryIndex()
    seen = []
    # ascending time chunks, the second one empty
    for lo, hi in [(0, 7), (7, 7), (7, 15), (15, 20)]:
        chunk = g.time_slice(lo, hi - 1) if hi > lo else g.time_slice(99, 99)
        index.observe(chunk)
        seen += list(chunk)
        order = np.argsort([q.relation for q in seen], kind="stable")
        assert index._relations.tolist() == [seen[i].relation for i in order]
        assert index._objects.tolist() == [seen[i].object for i in order]
        assert index._times.tolist() == [seen[i].timestamp for i in order]
        for relation in range(4):
            for window in (0, 1, 3, 100):
                ids, fractions = index.object_frequencies(relation, hi, window)
                assert (ids.tolist(), fractions.tolist()) == \
                    _naive_frequencies(seen, relation, hi, window)


def test_edgebank_window_expiry():
    scorer = EdgeBankScorer("pair", window=2)
    g = from_quadruples([(0, 0, 1, 5)], node_count=3, relation_count=1)
    scorer.observe(g)
    at_7 = scorer.score_query(EvalQuery(0, 0, 7, 1), np.array([1]))
    at_8 = scorer.score_query(EvalQuery(0, 0, 8, 1), np.array([1]))
    assert at_7.tolist() == [1.0]  # 7 - 5 = 2 <= window
    assert at_8.tolist() == [0.0]  # 8 - 5 = 3 > window


def test_edgebank_reobservation_refreshes():
    scorer = EdgeBankScorer("pair", window=2)
    scorer.observe(from_quadruples([(0, 0, 1, 5)], node_count=2, relation_count=1))
    scorer.observe(from_quadruples([(0, 0, 1, 7)], node_count=2, relation_count=1))
    assert scorer.score_query(EvalQuery(0, 0, 9, 1), np.array([1])).tolist() == [1.0]


def test_edgebank_g4_pair_mode(g4):
    scorer = EdgeBankScorer("pair")
    scorer.observe(g4.time_slice(0, 1))
    scores = scorer.score_query(EvalQuery(0, 0, 3, 1), np.array([1, 2]))
    assert scores.tolist() == [1.0, 0.0]


def test_edgebank_triple_mode_distinguishes_relations():
    scorer = EdgeBankScorer("triple")
    scorer.observe(from_quadruples([(0, 0, 1, 2)], node_count=2, relation_count=2))
    same_rel = scorer.score_query(EvalQuery(0, 0, 5, 1), np.array([1]))
    other_rel = scorer.score_query(EvalQuery(0, 1, 5, 1), np.array([1]))
    assert same_rel.tolist() == [1.0]
    assert other_rel.tolist() == [0.0]
    pair = EdgeBankScorer("pair")
    pair.observe(from_quadruples([(0, 0, 1, 2)], node_count=2, relation_count=2))
    assert pair.score_query(EvalQuery(0, 1, 5, 1), np.array([1])).tolist() == [1.0]


def test_edgebank_infinite_is_monotone():
    scorer = EdgeBankScorer("pair", window=None)
    scorer.observe(from_quadruples([(0, 0, 1, 0)], node_count=3, relation_count=1))
    for t in (1, 10, 1000):
        scorer.observe(from_quadruples([(0, 0, 2, t)], node_count=3, relation_count=1))
        assert scorer.score_query(EvalQuery(0, 0, t + 1, 1), np.array([1]))[0] == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_edgebank_window_covering_span_equals_infinite(seed):
    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=30, rate=5,
                      p_rep=0.4, seed=seed)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("type-aware", universe, queries, q=6, seed=seed)
    history = merge(train, valid)
    inf = evaluate_single_step(EdgeBankScorer("pair", None), history, test, negatives, g)
    wide = evaluate_single_step(EdgeBankScorer("pair", g.span()), history, test, negatives, g)
    assert inf == wide


@pytest.mark.parametrize("key_mode", ["pair", "triple"])
def test_one_vs_all_searches_each_key_run_once_per_query(key_mode):
    # naming a query's support and then scoring it share one search of the table
    g = generate(SynthConfig(node_count=40, relation_count=3, timestep_count=30, rate=6, seed=2))
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_all(universe, queries, materialize=False)
    with mock.patch.object(EdgeBankMemory, "_run", autospec=True,
                           side_effect=EdgeBankMemory._run) as run:
        got = evaluate_single_step(EdgeBankScorer(key_mode), merge(train, valid), test,
                                   negatives, g)
    assert 0 < run.call_count <= len(queries)
    assert got == brute_force_evaluate(EdgeBankScorer(key_mode), merge(train, valid), test,
                                       negatives, g)


def test_key_run_is_searched_again_after_an_observation():
    memory = EdgeBankMemory("pair")
    memory.observe(from_quadruples([(0, 0, 1, 0), (2, 0, 3, 0)], node_count=5, relation_count=1))
    assert memory.lookup(0, 0, np.arange(5))[0].tolist() == [False, True, False, False, False]
    # new codes before and inside the key's run move it in the table
    memory.observe(from_quadruples([(0, 0, 0, 1), (0, 0, 4, 1), (1, 0, 2, 1)], node_count=5,
                                   relation_count=1))
    assert memory.destinations(0, 0)[0].tolist() == [0, 1, 4]
    assert memory.lookup(0, 0, np.arange(5))[0].tolist() == [True, True, False, False, True]


def test_validation_window_default():
    assert validation_window(SplitBoundaries(train_end=10, valid_end=25)) == 15


def test_edgebank_memory_validation():
    with pytest.raises(ConfigError):
        EdgeBankMemory("nonsense")
    with pytest.raises(ConfigError):
        EdgeBankScorer("pair", window=-1)


def test_code_width_overflow_is_data_error():
    # node_count ** 2 = 2 ** 64 does not fit an int64 (key, destination) code
    wide = from_quadruples([(0, 0, 1, 0)], node_count=2**32, relation_count=1)
    for memory in (EdgeBankMemory("pair"), EdgeBankMemory("triple")):
        with pytest.raises(DataError, match="overflow"):
            memory.observe(wide)
    with pytest.raises(DataError, match="overflow"):
        HistoryIndex().observe(wide)
    # 2 ** 31 nodes over 2 relations is exactly 2 ** 63 triple codes
    edge = from_quadruples([(0, 0, 1, 0)], node_count=2**31, relation_count=2)
    EdgeBankMemory("pair").observe(edge)
    with pytest.raises(DataError, match="overflow"):
        EdgeBankMemory("triple").observe(edge)
    # one node fits the triple codes, but not two rows' (relation, row) sort keys
    rows = from_quadruples([(0, 2**62 - 1, 0, 0), (0, 0, 0, 1)], node_count=1,
                           relation_count=2**62)
    index = HistoryIndex()
    with pytest.raises(DataError, match="overflow"):
        index.observe(rows)
    assert index.high_water is None and index.latest._codes.size == 0


# -- EdgeBankMemory.lookup against a per-candidate reference -------------------------------


def _reference_lookup(quads, key_mode, subject, relation, candidates):
    """Last-seen time per candidate, None if unseen, from a dict of every key's latest time."""
    latest = {}
    for s, r, o, t in sorted(quads, key=lambda q: q[3]):
        latest[(s if key_mode == "pair" else (s, r), o)] = t
    key = subject if key_mode == "pair" else (subject, relation)
    return [latest.get((key, c)) for c in candidates]


def _assert_lookup(memory, quads, subject, relation, candidates):
    seen, last = memory.lookup(subject, relation, candidates)
    want = _reference_lookup(quads, memory.key_mode, subject, relation,
                             np.asarray(candidates).tolist())
    assert seen.tolist() == [t is not None for t in want]
    assert last[seen].tolist() == [t for t in want if t is not None]
    return want


def _two_chunk_graph(seed, n=7, rels=3):
    """Times 0-5 with destinations below n - 3, then times 6-11 with any destination."""
    rng = np.random.default_rng(seed)
    quads = {(int(rng.integers(n)), int(rng.integers(rels)), int(rng.integers(n - 3)),
              int(rng.integers(6))) for _ in range(25)}
    quads |= {(int(rng.integers(n)), int(rng.integers(rels)), int(rng.integers(n)),
               int(rng.integers(6, 12))) for _ in range(25)}
    quads |= {(s, r, o, t + 7) for s, r, o, t in list(quads)[:5] if t < 5}  # re-observed later
    return from_quadruples(sorted(quads), node_count=n, relation_count=rels)


# a short candidate list, and one as long as a headline 1-vs-all recurrency
# support (median 496 candidates on the smallpedia-shaped graph)
_SIZES = [255, 500]


@pytest.mark.parametrize("size", _SIZES)
@pytest.mark.parametrize("key_mode", ["pair", "triple"])
@pytest.mark.parametrize("seed", range(4))
def test_lookup_matches_a_per_candidate_reference(key_mode, seed, size):
    g = _two_chunk_graph(seed)
    n, rels = g.node_count, g.relation_count
    # n + d and d - n alias the next and the previous key's destination d in
    # a flat code table; -1 and n lie just outside the node space
    ids = [-1, n, *range(n), *(n + d for d in range(n)), *(d - n for d in range(n))]
    candidates = np.random.default_rng(seed).permutation(np.resize(ids, size))
    memory = EdgeBankMemory(key_mode)
    windowed = {w: EdgeBankScorer(key_mode, window=w) for w in (0, 2)}
    for start, cut in ((0, 5), (6, 11)):
        for m in (memory, *windowed.values()):
            m.observe(g.time_slice(start, cut))
        quads = [q for q in g if q[3] <= cut]
        for subject, relation in itertools.product(range(-1, n + 1), range(-1, rels + 1)):
            # only too small, or only too large, ids must not wrap around either
            for part in (candidates[candidates < n], candidates[candidates >= 0]):
                _assert_lookup(memory, quads, subject, relation, np.resize(part, size))
            want = _assert_lookup(memory, quads, subject, relation, candidates)
            query = EvalQuery(subject, relation, cut + 1, 0)
            for window, m in windowed.items():
                assert m.score_query(query, candidates).tolist() == [
                    float(t is not None and t >= cut + 1 - window) for t in want]


@pytest.mark.parametrize("size", _SIZES)
def test_lookup_takes_empty_repeated_and_read_only_candidates(size):
    g = _two_chunk_graph(0)
    memory = EdgeBankMemory("pair")
    assert memory.lookup(0, 0, [1, 2])[0].tolist() == [False, False]
    memory.observe(g)
    subject = int(g.subjects[0])
    frozen = np.resize([3, 1, 3, 3, 0, 1, g.node_count + 1], size)
    frozen.setflags(write=False)
    assert any(_assert_lookup(memory, list(g), subject, 0, frozen))
    for empty in ([], np.empty(0, dtype=np.int64)):
        seen, last = memory.lookup(subject, 0, empty)
        assert seen.shape == last.shape == (0,)
        assert seen.dtype == bool and last.dtype == np.int64


@pytest.mark.parametrize("key_mode", ["pair", "triple"])
def test_lookup_leaves_no_scratch_state_behind(key_mode):
    g = _two_chunk_graph(1)
    memory, fresh = EdgeBankMemory(key_mode), EdgeBankMemory(key_mode)
    memory.observe(g)
    fresh.observe(g)
    everything = np.resize(np.arange(-1, g.node_count + 1), 500)
    keys = sorted({(int(s), int(r)) for s, r in zip(g.subjects, g.relations)})
    for (a_s, a_r), (b_s, b_r) in zip(keys, keys[1:] + [(g.node_count, 0)]):
        memory.lookup(a_s, a_r, everything)
        after_a, alone = memory.lookup(b_s, b_r, everything), fresh.lookup(b_s, b_r, everything)
        assert np.array_equal(after_a[0], alone[0])
        assert np.array_equal(after_a[1][alone[0]], alone[1][alone[0]])


# -- recurrence scorer --------------------------------------------------------------------


def _index_for(quads, node_count=10, relation_count=2):
    index = HistoryIndex()
    index.observe(from_quadruples(quads, node_count=node_count, relation_count=relation_count))
    return index


def test_strict_term_decay_value():
    index = _index_for([(0, 0, 1, 9)])
    params = RecurrencyParams(lam=0.1, alpha=1.0, window=0)
    scores = recurrency_score(index, params, EvalQuery(0, 0, 10, 1), np.array([1]))
    assert scores[0] == pytest.approx(2.0 ** -0.1)
    assert scores[0] == pytest.approx(0.933, abs=5e-4)


def test_strict_term_zero_decay_rate():
    index = _index_for([(0, 0, 1, 2)])
    params = RecurrencyParams(lam=0.0, alpha=1.0, window=0)
    scores = recurrency_score(index, params, EvalQuery(0, 0, 30, 1), np.array([1]))
    assert scores[0] == 1.0


def test_strict_term_strictly_decreasing_in_gap():
    params = RecurrencyParams(lam=0.5, alpha=1.0, window=0)
    values = []
    for gap in (1, 2, 5, 11):
        index = _index_for([(0, 0, 1, 20 - gap)])
        values.append(recurrency_score(index, params, EvalQuery(0, 0, 20, 1), np.array([1]))[0])
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mixing_endpoints():
    quads = [(0, 0, 1, 5), (2, 0, 1, 0), (2, 0, 1, 1), (2, 0, 3, 2)]
    index = _index_for(quads)
    query = EvalQuery(0, 0, 6, 1)
    pure_strict = recurrency_score(index, RecurrencyParams(0.1, 1.0, 0), query, np.array([1, 3]))
    assert pure_strict[0] == pytest.approx(2.0 ** -0.1)
    assert pure_strict[1] == 0.0  # (0, 0, 3) never observed
    pure_relaxed = recurrency_score(index, RecurrencyParams(0.1, 0.0, 0), query, np.array([1, 3]))
    # freq_0(1) = 3 (max), freq_0(3) = 1
    assert pure_relaxed[0] == 1.0
    assert pure_relaxed[1] == pytest.approx(1.0 / 3.0)


def test_unseen_everything_scores_zero():
    index = _index_for([(0, 0, 1, 5)])
    scores = recurrency_score(
        index, RecurrencyParams(), EvalQuery(7, 1, 9, 2), np.array([2, 3, 4])
    )
    assert scores.tolist() == [0.0, 0.0, 0.0]


def test_window_truncates_strict_and_relaxed():
    quads = [(0, 0, 1, 0), (0, 0, 1, 1), (5, 0, 1, 1), (0, 0, 2, 9)]
    index = _index_for(quads)
    query = EvalQuery(0, 0, 10, 1)
    windowed = RecurrencyParams(lam=0.0, alpha=0.5, window=3)
    scores = recurrency_score(index, windowed, query, np.array([1, 2]))
    # (0,0,1) last seen at t=1: gap 9 > window -> strict 0; its relation
    # frequency inside [7, 10) is 0 as well
    assert scores[0] == 0.0
    # (0,0,2) seen at t=9: strict 1 (lam=0), relaxed 1 (only in-window entry)
    assert scores[1] == 1.0
    unbounded = RecurrencyParams(lam=0.0, alpha=0.5, window=0)
    full = recurrency_score(index, unbounded, query, np.array([1, 2]))
    assert full[0] == pytest.approx(0.5 * 1.0 + 0.5 * 1.0)  # freq 3/3
    assert full[1] == pytest.approx(0.5 * 1.0 + 0.5 * (1.0 / 3.0))


def test_params_validation():
    with pytest.raises(ConfigError):
        RecurrencyParams(lam=-0.1)
    with pytest.raises(ConfigError):
        RecurrencyParams(lam=float("nan"))
    with pytest.raises(ConfigError):
        RecurrencyParams(alpha=1.5)
    with pytest.raises(ConfigError):
        RecurrencyParams(window=-3)
    defaults = RecurrencyParams()
    assert (defaults.lam, defaults.alpha, defaults.window) == (0.1, 0.99, 0)


# -- causality ---------------------------------------------------------------------------


def test_score_at_or_before_high_water_rejected():
    index = _index_for([(0, 0, 1, 5)])
    with pytest.raises(ProtocolError, match="causality"):
        recurrency_score(index, RecurrencyParams(), EvalQuery(0, 0, 5, 1), np.array([1]))
    with pytest.raises(ProtocolError, match="causality"):
        recurrency_score(index, RecurrencyParams(), EvalQuery(0, 0, 4, 1), np.array([1]))


def test_observe_out_of_order_rejected():
    index = _index_for([(0, 0, 1, 5)])
    with pytest.raises(ProtocolError, match="ascending"):
        index.observe(from_quadruples([(0, 0, 1, 3)], node_count=2, relation_count=1))


@pytest.mark.parametrize("seed", range(5))
def test_causality_fuzz_scores_ignore_future(seed):
    # scores computed after observing extra future facts at >= t must equal
    # scores from an index that never saw anything at >= t
    rng = np.random.default_rng(seed)
    past = [(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6)), int(t))
            for t in range(8) for _ in range(3)]
    g_past = from_quadruples(past, node_count=6, relation_count=2)
    full_index = HistoryIndex()
    full_index.observe(g_past)
    clean_index = HistoryIndex()
    clean_index.observe(g_past)
    query = EvalQuery(int(rng.integers(6)), int(rng.integers(2)), 8, 0)
    candidates = np.arange(6)
    params = RecurrencyParams(0.2, 0.7, 0)
    a = recurrency_score(full_index, params, query, candidates)
    b = recurrency_score(clean_index, params, query, candidates)
    assert a.tolist() == b.tolist()
    # and once t=8 facts are observed, scoring at 8 must fail
    full_index.observe(from_quadruples([(0, 0, 1, 8)], node_count=6, relation_count=2))
    with pytest.raises(ProtocolError):
        recurrency_score(full_index, params, query, candidates)


# -- ranking invariance through the engine ----------------------------------------------


def test_positive_scaling_leaves_result_unchanged():
    class Scaled(RecurrencyScorer):
        def score_query(self, query, candidates):
            return 17.5 * super().score_query(query, candidates)

    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=30, rate=5,
                      p_rep=0.5, seed=3)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_negative_set("type-aware", universe, queries, q=6, seed=3)
    history = merge(train, valid)
    plain = evaluate_single_step(RecurrencyScorer(), history, test, negatives, g)
    scaled = evaluate_single_step(Scaled(), history, test, negatives, g)
    assert plain == scaled


# -- grid search ---------------------------------------------------------------------------


def _grid_fixture():
    cfg = SynthConfig(node_count=30, relation_count=2, timestep_count=36, rate=6,
                      p_rep=0.45, run_length=0.5, seed=8)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    valid_queries = expand_queries(valid, "tkg")
    negatives = generate_negative_set("type-aware", universe, valid_queries, q=10, seed=7)
    return g, train, valid, negatives


def test_singleton_grid_returned_verbatim():
    g, train, valid, negatives = _grid_fixture()
    best = grid_search_recurrency(
        train, valid, negatives, g, lam_grid=(0.3,), alpha_grid=(0.8,), window_grid=(2,)
    )
    assert best == RecurrencyParams(0.3, 0.8, 2)


def test_empty_grid_is_config_error():
    g, train, valid, negatives = _grid_fixture()
    with pytest.raises(ConfigError):
        grid_search_recurrency(train, valid, negatives, g, lam_grid=())


def test_grid_search_recovers_brute_forced_optimum():
    # expected argmax frozen from the independent oracle evaluator
    # (brute_force_evaluate over every combo): strict winner, no ties
    g, train, valid, negatives = _grid_fixture()
    lam_grid = (0.01, 0.1, 1.0)
    alpha_grid = (0.5, 0.9, 0.99)
    window_grid = (0, 4)
    best = grid_search_recurrency(
        train, valid, negatives, g, lam_grid, alpha_grid, window_grid
    )
    assert best == RecurrencyParams(lam=0.1, alpha=0.9, window=0)

    rows = []
    for lam, alpha, window in itertools.product(lam_grid, alpha_grid, window_grid):
        params = RecurrencyParams(lam, alpha, window)
        result = brute_force_evaluate(
            RecurrencyScorer(params), train, valid, negatives, g, kind="tkg"
        )
        rows.append((result.mrr, params))
    top_mrr = max(mrr for mrr, _ in rows)
    oracle_best = [p for mrr, p in rows if mrr == top_mrr]
    assert oracle_best == [best]


def test_grid_search_tie_break_preference():
    # a scorer-free tie: on an empty-history validation set every combo
    # scores all-zero, so the preferred corner of the grid must win
    quads = [(0, 0, 1, t) for t in range(3)]
    g = from_quadruples(quads + [(2, 1, 3, 0), (2, 1, 3, 1), (2, 1, 3, 2)],
                        node_count=6, relation_count=2)
    train = g.time_slice(0, 0)
    valid = g.time_slice(1, 2)
    universe = add_inverse_relations(g)
    queries = expand_queries(valid, "tkg")
    negatives = generate_negative_set("random", universe, queries, q=3, seed=0)
    best = grid_search_recurrency(
        train, valid, negatives, g,
        lam_grid=(1.0, 0.1), alpha_grid=(0.9, 0.99), window_grid=(5, 1),
    )
    # identical MRR everywhere is impossible here (history exists), but the
    # preference order still resolves exact ties deterministically
    rows = {}
    for lam, alpha, window in itertools.product((1.0, 0.1), (0.9, 0.99), (5, 1)):
        params = RecurrencyParams(lam, alpha, window)
        result = evaluate_single_step(
            RecurrencyScorer(params), train, valid, negatives, g, kind="tkg"
        )
        rows[params] = result.mrr
    top = max(rows.values())
    tied = [p for p, mrr in rows.items() if mrr == top]
    expected = min(tied, key=lambda p: (p.lam, -p.alpha, p.window))
    assert best == expected


def _grid_case(case):
    if case == "thg-node-type":
        g = generate(SynthConfig(node_count=30, relation_count=3, timestep_count=30,
                                 node_type_count=3, rate=6, p_rep=0.5, run_length=0.4, seed=31))
        train, valid, _, _ = chronological_split(g)
        queries = expand_queries(valid, "thg")
        return g, train, valid, generate_negative_set("node-type", g, queries, q=6, seed=2)
    g = generate(SynthConfig(node_count=30, relation_count=3, timestep_count=30, rate=6,
                             p_rep=0.5, run_length=0.4, seed=32))
    train, valid, _, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(valid, "tkg")
    if case == "tkg-sampled":
        return g, train, valid, generate_negative_set("type-aware", universe, queries, q=8, seed=4)
    return g, train, valid, generate_all(universe, queries, materialize=False)


# lambda 0, alpha at both ends, windows 0, 1 and beyond the history, duplicates
_DIFF_GRID = ((0.0, 0.4, 0.4), (0.0, 1.0, 0.6), (0, 1, 3, 10**4))


@pytest.mark.parametrize("case", ["tkg-sampled", "tkg-1vsall", "thg-node-type"])
def test_single_grid_replay_equals_separate_runs(case, monkeypatch):
    g, train, valid, negatives = _grid_case(case)
    rows = [RecurrencyParams(*c) for c in itertools.product(*_DIFF_GRID)]
    replay = evaluate_single_step(baselines._GridScorer(rows), train, valid, negatives, g)
    separate = [evaluate_single_step(RecurrencyScorer(p), train, valid, negatives, g)
                for p in rows]
    assert replay == tuple(separate)
    assert len({r.mrr for r in separate}) > 1  # the grid points are told apart

    replays = []

    def counted(*args, **kwargs):
        replays.append(args[0])
        return evaluate_single_step(*args, **kwargs)

    monkeypatch.setattr(baselines, "evaluate_single_step", counted)
    best = grid_search_recurrency(train, valid, negatives, g, *_DIFF_GRID)
    top = max(r.mrr for r in separate)
    tied = [p for p, r in zip(rows, separate) if r.mrr == top]
    assert best == min(tied, key=lambda p: (p.lam, -p.alpha, p.window))
    assert len(replays) == 1


def test_grid_on_empty_validation_split_picks_the_preferred_point():
    g = from_quadruples([(0, 0, 1, 0), (0, 0, 1, 1), (2, 1, 3, 1)],
                        node_count=4, relation_count=2)
    valid = g.time_slice(5, 6)
    negatives = generate_all(add_inverse_relations(g), [], materialize=False)
    best = grid_search_recurrency(g, valid, negatives, g, (1.0, 0.1), (0.9, 0.99), (5, 0))
    assert best == RecurrencyParams(0.1, 0.99, 0)


# a negative window sorts first in the search order, a negative alpha last
@pytest.mark.parametrize("bad,match", [
    pytest.param({"window_grid": (0, -1)}, "window", id="window"),
    pytest.param({"alpha_grid": (0.9, -0.5)}, "alpha", id="alpha-last"),
])
def test_bad_grid_point_is_config_error_before_any_fit(bad, match, monkeypatch):
    g, train, valid, negatives = _grid_fixture()
    fitted = []
    monkeypatch.setattr(RecurrencyScorer, "fit", lambda self, *a: fitted.append(self))
    with pytest.raises(ConfigError, match=match):
        grid_search_recurrency(train, valid, negatives, g, **bad)
    assert fitted == []


def test_scorer_manifests_are_reproducible():
    scorer = RecurrencyScorer(RecurrencyParams(0.2, 0.8, 7))
    manifest = scorer.params_manifest()
    assert manifest["lambda"] == 0.2 and manifest["alpha"] == 0.8 and manifest["window"] == 7
    assert "formula" in manifest
    bank = EdgeBankScorer("triple", window=9)
    assert bank.params_manifest() == {"scorer": "edgebank-tw", "key_mode": "triple", "window": 9}


# -- golden scorer values ------------------------------------------------------------------

_GOLDEN_SCORERS = {
    "edgebank-pair-inf": lambda: EdgeBankScorer("pair", None),
    "edgebank-pair-tw3": lambda: EdgeBankScorer("pair", 3),
    "edgebank-triple-inf": lambda: EdgeBankScorer("triple", None),
    "edgebank-triple-tw3": lambda: EdgeBankScorer("triple", 3),
    "recurrency-0.1-0.99-0": lambda: RecurrencyScorer(RecurrencyParams(0.1, 0.99, 0)),
    "recurrency-1.0-0.5-0": lambda: RecurrencyScorer(RecurrencyParams(1.0, 0.5, 0)),
    "recurrency-0.01-0.9-4": lambda: RecurrencyScorer(RecurrencyParams(0.01, 0.9, 4)),
    "recurrency-0.5-0.0-2": lambda: RecurrencyScorer(RecurrencyParams(0.5, 0.0, 2)),
    "recurrency-0.3-1.0-6": lambda: RecurrencyScorer(RecurrencyParams(0.3, 1.0, 6)),
}

# sha256 of to_text() + per_relation_table() + per_timestep_table(); a change to
# the scorers' memory must reproduce every digest exactly
_GOLDEN_DIGESTS = {
    "tkg": {
        "edgebank-pair-inf":
            "443f42b8dc1ca825cdbec211f90edd68ef97074bd9b3ce7f94fb2cf4a63e0a39",
        "edgebank-pair-tw3":
            "3e9343f36f5268b23d2ad1f4813c43ed9f16f6f06a396806f9b78e3fb9242399",
        "edgebank-triple-inf":
            "31a3523e35cc963c6830f168161f9034124f499a39d142d1fa19d8f9ba77b212",
        "edgebank-triple-tw3":
            "5403d56d4f23f627993f5d7c12f96bc4ce300a13fc9092abf00fe8c5e9d0c86f",
        "recurrency-0.1-0.99-0":
            "baf824b35ce56386be9b147bf24682501e47fa04034c958f7134167277d6183b",
        "recurrency-1.0-0.5-0":
            "db82a54637931b24da79092ebe45df150271348769b057f341d6844de390f11d",
        "recurrency-0.01-0.9-4":
            "17dcf0fda441740ce5156bebc94b145adb4062e4d77c1a315b91e5a1fc2dea40",
        "recurrency-0.5-0.0-2":
            "6f5a4de638a62a6f5cd656e107952aa1e0686e06790baaad1ea02a479877c396",
        "recurrency-0.3-1.0-6":
            "536d592fcfb0c613acc90bfa781d902a782e28c4c4ab74f840f63e189915b28c",
    },
    "thg": {
        "edgebank-pair-inf":
            "6b29e8dc625604d73cccb84de7c535fa6060a5fbf3ad857e599fbe84e6581f4e",
        "edgebank-pair-tw3":
            "f98105673a43b3101f9b4140b68109c85a6cce666b9e53d1a341021c4c6551ad",
        "edgebank-triple-inf":
            "5ca97df673b03dee1f2994355c35a6f4f01de090cd915825001a5021e73da85e",
        "edgebank-triple-tw3":
            "38f5364b800a693ed3713baca5abbffbb7095c7ee3b4ed9f24be8ceee117d90b",
        "recurrency-0.1-0.99-0":
            "861c261108b433bd2c7e79b3a471b1c7dd1bc812c722cab429eb4c54331feb00",
        "recurrency-1.0-0.5-0":
            "255d4a86cae92b974a38f4f388e70b72c62b0ec649ce9435f056ca4cf74ff85f",
        "recurrency-0.01-0.9-4":
            "782a3f50905af46d23df13dfeea2c9d37e065d68d72a59700de51f72a80154b2",
        "recurrency-0.5-0.0-2":
            "a556c62e0fb145642cd679a644dc8efce6b1cedc72c30881d67b0d487899ad0c",
        "recurrency-0.3-1.0-6":
            "d1fff75ef71a9bf6fd6865f9e3f69845a38b940d941a422ff7e2abc2bfee8499",
    },
}


def _golden_setup(kind):
    if kind == "tkg":
        g = generate(SynthConfig(node_count=40, relation_count=3, timestep_count=40,
                                 rate=10, p_rep=0.5, run_length=0.3, seed=21))
        train, valid, test, _ = chronological_split(g)
        universe = add_inverse_relations(g)
        negatives = generate_negative_set("type-aware", universe, expand_queries(test, "tkg"), q=12, seed=5)
    else:
        g = generate(SynthConfig(node_count=36, relation_count=4, timestep_count=40,
                                 node_type_count=3, rate=10, p_rep=0.5, run_length=0.3,
                                 seed=22))
        train, valid, test, _ = chronological_split(g)
        negatives = generate_all(g, expand_queries(test, "thg"), materialize=False)
    return merge(train, valid), test, negatives, g


@pytest.mark.parametrize("kind", ["tkg", "thg"])
def test_golden_scorer_results(kind):
    history, test, negatives, g = _golden_setup(kind)
    got = {}
    for name, make in _GOLDEN_SCORERS.items():
        result = evaluate_single_step(make(), history, test, negatives, g)
        text = result.to_text() + result.per_relation_table() + result.per_timestep_table()
        got[name] = hashlib.sha256(text.encode()).hexdigest()
    assert got == _GOLDEN_DIGESTS[kind]


# -- differential fuzz against the module-docstring formulas -------------------------------


def _naive_edgebank(seen_quads, key_mode, window, query, candidates, t_now):
    last = {}
    for s, r, o, t in seen_quads:
        last[(s if key_mode == "pair" else (s, r), o)] = t
    key = query.source if key_mode == "pair" else (query.source, query.relation)
    out = []
    for c in candidates:
        k = last.get((key, c))
        out.append(1.0 if k is not None and (window is None or k >= t_now - window) else 0.0)
    return out


def _naive_recurrency(seen_quads, params, query, candidates):
    t, lam, alpha, window = query.timestamp, params.lam, params.alpha, params.window

    def in_window(k):
        return window <= 0 or t - k <= window

    freq = {}
    for _, r, o, k in seen_quads:
        if r == query.relation and in_window(k):
            freq[o] = freq.get(o, 0) + 1
    denom = max(freq.values(), default=0)
    out = []
    for c in candidates:
        ks = [k for s, r, o, k in seen_quads
              if (s, r, o) == (query.source, query.relation, c)]
        strict = 2.0 ** (-lam * (t - max(ks))) if ks and in_window(max(ks)) else 0.0
        relaxed = freq.get(c, 0) / denom if denom else 0.0
        out.append(alpha * strict + (1.0 - alpha) * relaxed)
    return out


@pytest.mark.parametrize("seed", range(10))
def test_scores_match_naive_formulas(seed):
    rng = np.random.default_rng(seed)
    n, rels = int(rng.integers(2, 12)), int(rng.integers(1, 4))
    times = sorted(int(t) for t in rng.choice(np.arange(-20, 20), size=8, replace=False))
    quads = sorted({(int(rng.integers(n)), int(rng.integers(rels)), int(rng.integers(n)),
                     int(rng.choice(times))) for _ in range(int(rng.integers(1, 60)))},
                   key=lambda q: q[3])
    g = from_quadruples(quads, node_count=n, relation_count=rels)
    banks = {(mode, window): EdgeBankScorer(mode, window)
             for mode in ("pair", "triple") for window in (None, 0, 2, 100)}
    index = HistoryIndex()
    grid = [RecurrencyParams(lam, alpha, window) for lam in (0.0, 0.3, 1.7)
            for alpha in (0.0, 0.6, 1.0) for window in (0, 1, 3, 100)]
    # feed ascending chunks, some of them empty, and query after each one
    cuts = sorted(set(int(c) for c in rng.integers(-22, 22, size=5))) + [22]
    done = -23
    for cut in cuts:
        chunk = g.time_slice(done + 1, cut)
        for bank in banks.values():
            bank.observe(chunk)
        index.observe(chunk)
        seen_quads = [q for q in quads if q[3] <= cut]
        done = cut
        for _ in range(4):
            # ids one past the graph's id space were never observed and score 0
            query = EvalQuery(int(rng.integers(n + 1)), int(rng.integers(rels + 1)),
                              cut + int(rng.integers(1, 5)), 0)
            candidates = rng.integers(-1, n + 2, size=int(rng.integers(1, 2 * n)))
            for (mode, window), bank in banks.items():
                assert bank.score_query(query, candidates).tolist() \
                    == _naive_edgebank(seen_quads, mode, window, query, candidates.tolist(),
                                       query.timestamp)
            for params in grid:
                assert recurrency_score(index, params, query, candidates).tolist() \
                    == _naive_recurrency(seen_quads, params, query, candidates.tolist())
