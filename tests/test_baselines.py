import hashlib
import itertools

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
    generate_node_type,
    generate_type_aware,
    grid_search_recurrency,
    merge,
    validation_window,
)
from chronolink import baselines
from chronolink.baselines import (
    EdgeBankMemory,
    EdgeBankScorer,
    edgebank_observe,
    edgebank_score,
    recurrency_score,
)
from chronolink.graph import SplitBoundaries


# -- EdgeBank ---------------------------------------------------------------------------


def test_edgebank_pair_key_activation():
    memory = EdgeBankMemory("pair")
    g = from_quadruples([(0, 0, 1, 5)], node_count=3, relation_count=1)
    edgebank_observe(memory, g)
    scores = edgebank_score(memory, EvalQuery(0, 0, 9, 1), np.array([1, 2]), 9)
    assert scores.tolist() == [1.0, 0.0]


def test_edgebank_window_expiry():
    memory = EdgeBankMemory("pair", window=2)
    g = from_quadruples([(0, 0, 1, 5)], node_count=3, relation_count=1)
    edgebank_observe(memory, g)
    at_7 = edgebank_score(memory, EvalQuery(0, 0, 7, 1), np.array([1]), 7)
    at_8 = edgebank_score(memory, EvalQuery(0, 0, 8, 1), np.array([1]), 8)
    assert at_7.tolist() == [1.0]  # 7 - 5 = 2 <= window
    assert at_8.tolist() == [0.0]  # 8 - 5 = 3 > window


def test_edgebank_reobservation_refreshes():
    memory = EdgeBankMemory("pair", window=2)
    edgebank_observe(memory, from_quadruples([(0, 0, 1, 5)], node_count=2, relation_count=1))
    edgebank_observe(memory, from_quadruples([(0, 0, 1, 7)], node_count=2, relation_count=1))
    assert edgebank_score(memory, EvalQuery(0, 0, 9, 1), np.array([1]), 9).tolist() == [1.0]


def test_edgebank_g4_pair_mode(g4):
    memory = EdgeBankMemory("pair")
    edgebank_observe(memory, g4.time_slice(0, 1))
    scores = edgebank_score(memory, EvalQuery(0, 0, 3, 1), np.array([1, 2]), 3)
    assert scores.tolist() == [1.0, 0.0]


def test_edgebank_triple_mode_distinguishes_relations():
    memory = EdgeBankMemory("triple")
    edgebank_observe(memory, from_quadruples([(0, 0, 1, 2)], node_count=2, relation_count=2))
    same_rel = edgebank_score(memory, EvalQuery(0, 0, 5, 1), np.array([1]), 5)
    other_rel = edgebank_score(memory, EvalQuery(0, 1, 5, 1), np.array([1]), 5)
    assert same_rel.tolist() == [1.0]
    assert other_rel.tolist() == [0.0]
    pair = EdgeBankMemory("pair")
    edgebank_observe(pair, from_quadruples([(0, 0, 1, 2)], node_count=2, relation_count=2))
    assert edgebank_score(pair, EvalQuery(0, 1, 5, 1), np.array([1]), 5).tolist() == [1.0]


def test_edgebank_infinite_is_monotone():
    memory = EdgeBankMemory("pair", window=None)
    edgebank_observe(memory, from_quadruples([(0, 0, 1, 0)], node_count=3, relation_count=1))
    for t in (1, 10, 1000):
        edgebank_observe(
            memory, from_quadruples([(0, 0, 2, t)], node_count=3, relation_count=1)
        )
        assert edgebank_score(memory, EvalQuery(0, 0, t + 1, 1), np.array([1]), t + 1)[0] == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_edgebank_window_covering_span_equals_infinite(seed):
    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=30, rate=5,
                      p_rep=0.4, seed=seed)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    negatives = generate_type_aware(universe, queries, q=6, seed=seed)
    history = merge(train, valid)
    inf = evaluate_single_step(EdgeBankScorer("pair", None), history, test, negatives, g)
    wide = evaluate_single_step(EdgeBankScorer("pair", g.span()), history, test, negatives, g)
    assert inf == wide


def test_edgebank_scorer_matches_module_ops():
    cfg = SynthConfig(node_count=20, relation_count=2, timestep_count=20, rate=5, seed=1)
    g = generate(cfg)
    scorer = EdgeBankScorer("pair", window=4)
    scorer.fit(g.time_slice(0, 15))
    memory = EdgeBankMemory("pair", window=4)
    edgebank_observe(memory, g.time_slice(0, 15))
    query = EvalQuery(int(g.subjects[0]), int(g.relations[0]), 17, int(g.objects[0]))
    candidates = np.arange(g.node_count)
    assert scorer.score_query(query, candidates).tolist() == edgebank_score(
        memory, query, candidates, 17
    ).tolist()


def test_validation_window_default():
    assert validation_window(SplitBoundaries(train_end=10, valid_end=25)) == 15


def test_edgebank_memory_validation():
    with pytest.raises(ConfigError):
        EdgeBankMemory("nonsense")
    with pytest.raises(ConfigError):
        EdgeBankMemory("pair", window=-1)


def test_code_width_overflow_is_data_error():
    # node_count ** 2 = 2 ** 64 does not fit an int64 (key, destination) code
    wide = from_quadruples([(0, 0, 1, 0)], node_count=2**32, relation_count=1)
    for memory in (EdgeBankMemory("pair"), EdgeBankMemory("triple")):
        with pytest.raises(DataError, match="overflow"):
            edgebank_observe(memory, wide)
    with pytest.raises(DataError, match="overflow"):
        HistoryIndex().observe(wide)
    # 2 ** 31 nodes over 2 relations is exactly 2 ** 63 triple codes
    edge = from_quadruples([(0, 0, 1, 0)], node_count=2**31, relation_count=2)
    edgebank_observe(EdgeBankMemory("pair"), edge)
    with pytest.raises(DataError, match="overflow"):
        edgebank_observe(EdgeBankMemory("triple"), edge)


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
    negatives = generate_type_aware(universe, queries, q=6, seed=3)
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
    negatives = generate_type_aware(universe, valid_queries, q=10, seed=7)
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
    from chronolink import generate_random

    negatives = generate_random(universe, queries, q=3, seed=0)
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
        return g, train, valid, generate_node_type(g, g.node_types, queries, q=6, seed=2)
    g = generate(SynthConfig(node_count=30, relation_count=3, timestep_count=30, rate=6,
                             p_rep=0.5, run_length=0.4, seed=32))
    train, valid, _, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(valid, "tkg")
    if case == "tkg-sampled":
        return g, train, valid, generate_type_aware(universe, queries, q=8, seed=4)
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
        negatives = generate_type_aware(universe, expand_queries(test, "tkg"), q=12, seed=5)
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
    banks = {(mode, window): EdgeBankMemory(mode, window)
             for mode in ("pair", "triple") for window in (None, 0, 2, 100)}
    index = HistoryIndex()
    grid = [RecurrencyParams(lam, alpha, window) for lam in (0.0, 0.3, 1.7)
            for alpha in (0.0, 0.6, 1.0) for window in (0, 1, 3, 100)]
    # feed ascending chunks, some of them empty, and query after each one
    cuts = sorted(set(int(c) for c in rng.integers(-22, 22, size=5))) + [22]
    done = -23
    for cut in cuts:
        chunk = g.time_slice(done + 1, cut)
        for memory in banks.values():
            edgebank_observe(memory, chunk)
        index.observe(chunk)
        seen_quads = [q for q in quads if q[3] <= cut]
        done = cut
        for _ in range(4):
            # ids one past the graph's id space were never observed and score 0
            query = EvalQuery(int(rng.integers(n + 1)), int(rng.integers(rels + 1)),
                              cut + int(rng.integers(1, 5)), 0)
            candidates = rng.integers(-1, n + 2, size=int(rng.integers(1, 2 * n)))
            for (mode, window), memory in banks.items():
                assert edgebank_score(memory, query, candidates, query.timestamp).tolist() \
                    == _naive_edgebank(seen_quads, mode, window, query, candidates.tolist(),
                                       query.timestamp)
            for params in grid:
                assert recurrency_score(index, params, query, candidates).tolist() \
                    == _naive_recurrency(seen_quads, params, query, candidates.tolist())
