"""Acceptance suite: one test per criterion, printing a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 6-8 need the real tkgl-smallpedia edge list and are skipped
unless CHRONOLINK_SMALLPEDIA points at it (see README).
"""

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

import chronolink as cl
from chronolink.cli import EXIT_OK, main
from chronolink.synthetic import brute_force_evaluate
from conftest import HashScorer

SMALLPEDIA_ENV = "CHRONOLINK_SMALLPEDIA"


def _passed(line):
    print(f"[acceptance] {line}: PASS")


def _sample_config(rng, index):
    thg = index % 2 == 1
    big = index % 23 == 0  # a few graphs near the 5k-quad / 200-node ceiling
    return cl.SynthConfig(
        node_count=int(rng.integers(150, 200)) if big else int(rng.integers(30, 120)),
        relation_count=int(rng.integers(2, 6)),
        timestep_count=int(rng.integers(50, 80)) if big else int(rng.integers(18, 40)),
        node_type_count=(2 + index % 3) if thg else 0,
        rate=float(rng.uniform(40, 60)) if big else float(rng.uniform(3, 14)),
        p_rep=float(rng.uniform(0.0, 0.7)),
        run_length=float(rng.uniform(0.0, 0.4)),
        seed=31_000 + index,
    )


def _scorer(index):
    return [
        lambda: cl.RecurrencyScorer(),
        lambda: cl.EdgeBankScorer("pair", None),
        lambda: cl.EdgeBankScorer("pair", 5),
        lambda: HashScorer(salt=index),
        lambda: cl.ConstantScorer(),
    ][index % 5]


def test_criterion_1_oracle_equivalence():
    """Engine MRR/Hits equal the brute-force oracle exactly, all strategies."""
    rng = np.random.default_rng(2024)
    graphs = 0
    runs = 0
    index = 0
    while graphs < 100:
        cfg = _sample_config(rng, index)
        index += 1
        g = cl.generate(cfg)
        if len(g) > 5000:
            continue
        try:
            train, valid, test, _ = cl.chronological_split(g)
        except cl.SplitError:
            continue
        graphs += 1
        kind = "thg" if g.is_heterogeneous else "tkg"
        universe = cl.add_inverse_relations(g) if kind == "tkg" else g
        queries = cl.expand_queries(test, kind)
        history = cl.merge(train, valid)
        strategies = ["all", "type-aware", "random"] + (["node-type"] if kind == "thg" else [])
        for strategy in strategies:
            negatives = cl.generate_negative_set(
                strategy, universe, queries, q=int(rng.integers(3, 12)), seed=index
            )
            make = _scorer(runs)
            engine = cl.evaluate_single_step(make(), history, test, negatives, g, kind=kind)
            oracle = brute_force_evaluate(make(), history, test, negatives, g, kind=kind)
            assert engine.mrr == oracle.mrr, (cfg.seed, strategy)
            assert engine.hits == oracle.hits, (cfg.seed, strategy)
            assert engine.query_count == oracle.query_count
            assert engine.per_relation == oracle.per_relation
            assert engine.per_timestep == oracle.per_timestep
            runs += 1
    assert graphs == 100
    _passed(f"criterion 1 (oracle equivalence: {graphs} graphs, {runs} runs, exact)")


def test_criterion_2_metric_invariants(g4):
    """DRec <= Rec everywhere; exact G4 values; p_rep edge cases."""
    # exact G4 fixture values
    test = g4.time_slice(3, 3)
    assert cl.consecutiveness(g4) == 1.5
    assert cl.recurrency_degree(g4, test) == 1.0
    assert cl.direct_recurrency_degree(g4, test) == 0.0

    for seed in range(25):
        cfg = cl.SynthConfig(node_count=30, relation_count=3, timestep_count=30,
                             rate=5, p_rep=0.04 * seed, run_length=0.2 if seed % 3 else 0.0,
                             seed=seed)
        g = cl.generate(cfg)
        train, valid, gtest, _ = cl.chronological_split(g)
        assert cl.direct_recurrency_degree(g, gtest) <= cl.recurrency_degree(g, gtest)

    for seed in range(8):
        frozen = cl.generate(
            cl.SynthConfig(node_count=30, relation_count=2, timestep_count=30,
                           rate=5, p_rep=0.0, seed=seed)
        )
        _, _, gtest, _ = cl.chronological_split(frozen)
        assert cl.direct_recurrency_degree(frozen, gtest) == 0.0

        persistent = cl.generate(
            cl.SynthConfig(node_count=30, relation_count=2, timestep_count=20,
                           rate=25, p_rep=1.0, birth_window=1, seed=seed)
        )
        _, _, ptest, _ = cl.chronological_split(persistent)
        assert cl.recurrency_degree(persistent, ptest) == 1.0
    _passed("criterion 2 (metric invariants and G4 exact values)")


def test_criterion_3_protocol_laws():
    """Subset monotonicity, filter soundness, average rank, score transforms."""
    # average-rank hand cases
    for m in (1, 4, 9, 20):
        assert cl.average_rank(np.zeros(m + 1), m) == 1 + m / 2.0
    assert cl.average_rank(np.array([0.1, 0.9, 0.9, 0.2]), 1) == 1.5

    for seed in range(10):
        cfg = cl.SynthConfig(node_count=40, relation_count=3, timestep_count=30,
                             rate=6, p_rep=0.4, seed=500 + seed)
        g = cl.generate(cfg)
        train, valid, test, _ = cl.chronological_split(g)
        universe = cl.add_inverse_relations(g)
        queries = cl.expand_queries(test, "tkg")
        history = cl.merge(train, valid)
        all_set = cl.generate_all(universe, queries)
        q_set = cl.generate_negative_set("random", universe, queries, q=6, seed=seed)

        # per-query subset monotonicity with a stateless scorer, exact
        scorer = HashScorer(salt=seed)
        for query, full_c, sub_c in zip(queries, all_set.candidates, q_set.candidates):
            ranks = []
            for cands in (full_c, sub_c):
                kept = cl.time_aware_filter(cands, query, universe)
                ids = np.concatenate([kept, [query.true_destination]])
                ranks.append(cl.average_rank(scorer.score_query(query, ids), len(ids) - 1))
            assert ranks[1] <= ranks[0]

        # aggregate: MRR(1-vs-q) >= MRR(1-vs-all)
        mrr_all = cl.evaluate_single_step(HashScorer(seed), history, test, all_set, g).mrr
        mrr_q = cl.evaluate_single_step(HashScorer(seed), history, test, q_set, g).mrr
        assert mrr_q >= mrr_all

        # exhaustive filter soundness against a naive set-based filter
        quadset = {(s, r, o, t) for s, r, o, t in universe}
        for query in queries:
            kept = cl.time_aware_filter(np.arange(g.node_count), query, universe)
            naive = [c for c in range(g.node_count)
                     if c == query.true_destination
                     or (query.source, query.relation, c, query.timestamp) not in quadset]
            assert kept.tolist() == naive

        # strictly increasing transforms leave the whole result unchanged
        class Warped(cl.Scorer):
            def __init__(self, warp):
                self.warp = warp
                self.inner = HashScorer(salt=seed)

            def score_query(self, query, candidates):
                return self.warp(self.inner.score_query(query, candidates))

        negatives = cl.generate_negative_set("type-aware", universe, queries, q=6, seed=seed)
        base = cl.evaluate_single_step(HashScorer(seed), history, test, negatives, g)
        for warp in (lambda x: 2.0 * x + 5.0, np.expm1):
            warped = cl.evaluate_single_step(Warped(warp), history, test, negatives, g)
            assert warped == base
    _passed("criterion 3 (protocol laws on 10 random instances)")


def test_criterion_4_reproducibility(tmp_path):
    """Byte-identical artifact files across runs; bit-exact manifest replay."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(
        "node_count = 35\nrelation_count = 3\ntimestep_count = 40\n"
        "rate = 6\np_rep = 0.4\nseed = 77\n"
    )
    graph_dir = tmp_path / "graph"
    splits_dir = tmp_path / "splits"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(graph_dir)]) == EXIT_OK
    assert main(["split", "--graph", str(graph_dir), "--out-dir", str(splits_dir)]) == EXIT_OK

    blobs = []
    for name in ("n1", "n2"):
        out = tmp_path / name
        assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                     "--split", "test", "--strategy", "type-aware", "--q", "7",
                     "--seed", "13", "--out-dir", str(out)]) == EXIT_OK
        blobs.append((out / "negatives.bin").read_bytes())
    assert blobs[0] == blobs[1]

    results = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                     "--split", "test", "--scorer", "recurrency",
                     "--negatives", str(tmp_path / "n1" / "negatives.bin"),
                     "--out-dir", str(out)]) == EXIT_OK
        results.append(tuple((out / f).read_bytes()
                             for f in ("result.txt", "per_relation.tsv", "per_timestep.tsv")))
    assert results[0] == results[1]

    replay_dir = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(tmp_path / "n1" / "run_manifest.json"),
                 "--out-dir", str(replay_dir)]) == EXIT_OK
    assert (replay_dir / "negatives.bin").read_bytes() == blobs[0]
    _passed("criterion 4 (byte-identical artifacts and bit-exact replay)")


def test_criterion_5_split_law():
    """Uniform 100-timestep graph splits exactly 70/15/15 with pure boundaries."""
    quads = [(i % 7, i % 2, (i + 3) % 7, i) for i in range(100)]
    g = cl.from_quadruples(quads, node_count=7, relation_count=2)
    train, valid, test, bounds = cl.chronological_split(g, 0.70, 0.15)
    assert (len(train), len(valid), len(test)) == (70, 15, 15)
    assert bounds.train_end == 69 and bounds.valid_end == 84
    parts = [set(p.timestamps.tolist()) for p in (train, valid, test)]
    assert parts[0] == set(range(70))
    assert parts[1] == set(range(70, 85))
    assert parts[2] == set(range(85, 100))
    _passed("criterion 5 (uniform split law 70/15/15)")


# -- large-scale criteria (optional; need the real dataset) ---------------------------


def _smallpedia():
    path = os.environ.get(SMALLPEDIA_ENV)
    if not path:
        pytest.skip(f"set {SMALLPEDIA_ENV} to the tkgl-smallpedia edgelist.csv to enable")
    graph, _ = cl.parse_edgelist(Path(path), granularity=cl.Granularity.YEAR)
    return graph


@pytest.fixture(scope="module")
def smallpedia():
    return _smallpedia()


def test_criterion_6_smallpedia_statistics(smallpedia):
    g = smallpedia
    assert len(g) == 550_376
    assert g.node_count == 47_433
    assert g.relation_count == 283
    assert len(g.distinct_timestamps()) == 125
    train, valid, test, _ = cl.chronological_split(g)
    assert abs(cl.recurrency_degree(g, test) - 0.72) <= 0.01
    assert abs(cl.direct_recurrency_degree(g, test) - 0.71) <= 0.01
    assert abs(cl.consecutiveness(g) - 5.82) <= 0.01
    assert abs(cl.inductive_node_proportion(train, test) - 0.26) <= 0.01
    edges_per_ts, _ = cl.density_per_timestep(g)
    assert abs(edges_per_ts - 4403.01) <= 0.01
    _passed("criterion 6 (tkgl-smallpedia statistics)")


def test_criterion_7_smallpedia_split_accounting(smallpedia):
    train, valid, test, _ = cl.chronological_split(smallpedia)
    assert (len(train), len(valid), len(test)) == (387_757, 81_033, 81_586)
    counts = tuple(len(np.unique(p.timestamps)) for p in (train, valid, test))
    assert counts == (98, 10, 17)
    _passed("criterion 7 (tkgl-smallpedia split accounting)")


def test_criterion_8_smallpedia_edgebank(smallpedia):
    g = smallpedia
    train, valid, test, bounds = cl.chronological_split(g)
    universe = cl.add_inverse_relations(g)

    def run(split_graph, history):
        queries = cl.expand_queries(split_graph, "tkg")
        negatives = cl.generate_all(universe, queries, materialize=False)
        return queries, negatives, history

    # EdgeBank with unbounded memory, 1-vs-all
    vq, vneg, vhist = run(valid, train)
    v_inf = cl.evaluate_single_step(cl.EdgeBankScorer("pair", None), vhist, valid, vneg, g)
    tq, tneg, thist = run(test, cl.merge(train, valid))
    t_inf = cl.evaluate_single_step(cl.EdgeBankScorer("pair", None), thist, test, tneg, g)
    assert abs(v_inf.mrr - 0.401) <= 0.005
    assert abs(t_inf.mrr - 0.333) <= 0.005

    window = cl.validation_window(bounds)
    t_tw = cl.evaluate_single_step(cl.EdgeBankScorer("pair", window), thist, test, tneg, g)
    assert abs(t_tw.mrr - 0.353) <= 0.010
    _passed("criterion 8 (tkgl-smallpedia EdgeBank reproduction)")


def test_criterion_9_excluded_reproductions_replaced_by_properties():
    """Recurrence-baseline table rows are out of reproduction scope by design.

    The published numbers depend on formula details that live outside this
    toolkit's sources, so the acceptance stand-ins are the protocol property
    suites above plus grid-search recovery of a brute-forced optimum on a
    synthetic recurrent graph (mirrored from the baselines test module).
    """
    cfg = cl.SynthConfig(node_count=30, relation_count=2, timestep_count=36, rate=6,
                         p_rep=0.45, run_length=0.5, seed=8)
    g = cl.generate(cfg)
    train, valid, test, _ = cl.chronological_split(g)
    universe = cl.add_inverse_relations(g)
    queries = cl.expand_queries(valid, "tkg")
    negatives = cl.generate_negative_set("type-aware", universe, queries, q=10, seed=7)
    lam_grid, alpha_grid, window_grid = (0.01, 0.1, 1.0), (0.5, 0.9, 0.99), (0, 4)
    best = cl.grid_search_recurrency(
        train, valid, negatives, g, lam_grid, alpha_grid, window_grid
    )
    rows = []
    for lam, alpha, window in itertools.product(lam_grid, alpha_grid, window_grid):
        params = cl.RecurrencyParams(lam, alpha, window)
        mrr = brute_force_evaluate(
            cl.RecurrencyScorer(params), train, valid, negatives, g, kind="tkg"
        ).mrr
        rows.append((mrr, params))
    top = max(mrr for mrr, _ in rows)
    assert [p for mrr, p in rows if mrr == top] == [best]
    assert best == cl.RecurrencyParams(0.1, 0.9, 0)
    _passed("criterion 9 (excluded table rows replaced by property suites)")
