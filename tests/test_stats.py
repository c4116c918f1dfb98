import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    DataError,
    SynthConfig,
    chronological_split,
    consecutiveness,
    dataset_report,
    density_per_timestep,
    direct_recurrency_degree,
    edges_over_time,
    from_quadruples,
    generate,
    inductive_node_proportion,
    recurrency_degree,
    relation_histogram,
)
from conftest import G4_QUADS


# -- naive oracles: per-triple scans, no shared machinery with the stats module ----


def naive_rec(full, test):
    quads = [(s, r, o, t) for s, r, o, t in full]
    hits = 0
    for s, r, o, t in test:
        if any(qs == s and qr == r and qo == o and qt < t for qs, qr, qo, qt in quads):
            hits += 1
    return hits / len(test)


def naive_drec(full, test):
    quadset = {(s, r, o, t) for s, r, o, t in full}
    return sum(1 for s, r, o, t in test if (s, r, o, t - 1) in quadset) / len(test)


def naive_con(graph):
    by_triple = {}
    for s, r, o, t in graph:
        by_triple.setdefault((s, r, o), set()).add(t)
    runs = []
    for times in by_triple.values():
        best = 0
        for t in times:
            if t - 1 not in times:
                length = 1
                while t + length in times:
                    length += 1
                best = max(best, length)
        runs.append(best)
    return sum(runs) / len(runs)


def naive_density(graph):
    active = {}
    for s, r, o, t in graph:
        active.setdefault(t, set()).update((s, o))
    span = graph.t_max - graph.t_min + 1
    return len(graph) / span, sum(len(nodes) for nodes in active.values()) / span


# -- G4 hand-enumerated values ------------------------------------------------------


def test_g4_recurrency(g4):
    test = g4.time_slice(3, 3)
    assert recurrency_degree(g4, test) == 1.0


def test_g4_direct_recurrency(g4):
    test = g4.time_slice(3, 3)
    assert direct_recurrency_degree(g4, test) == 0.0


def test_g4_consecutiveness(g4):
    assert consecutiveness(g4) == 1.5


def test_g4_density(g4):
    edges, nodes = density_per_timestep(g4)
    assert edges == 5 / 4
    # t=0: {0,1}; t=1: {0,1,2,3}; t=3: {0,1,2,3} -> (2+4+4)/4
    assert nodes == 10 / 4


def test_g4_relation_histogram(g4):
    shares, others = relation_histogram(g4, 2)
    assert shares == ((0, 0.6), (1, 0.4))
    assert others == 0.0


def test_g4_edges_over_time_two_bins(g4):
    assert edges_over_time(g4, 2) == [(1.5, 1, 2), (1.0, 0, 2)]
    # the same slots at either end of the int64 range
    for t0 in (-(2**63), 2**63 - 4):
        shifted = from_quadruples([(s, r, o, t + t0) for s, r, o, t in G4_QUADS],
                                  node_count=4, relation_count=2)
        assert edges_over_time(shifted, 2) == [(1.5, 1, 2), (1.0, 0, 2)]


# -- trivial cases --------------------------------------------------------------------


def test_all_novel_test_triples():
    full = from_quadruples(
        [(0, 0, 1, 0), (2, 0, 3, 5)], node_count=4, relation_count=1
    )
    test = full.time_slice(5, 5)
    assert recurrency_degree(full, test) == 0.0
    assert direct_recurrency_degree(full, test) == 0.0


def test_every_test_triple_directly_recurrent():
    quads = [(0, 0, 1, t) for t in range(6)] + [(2, 0, 3, t) for t in range(6)]
    full = from_quadruples(quads, node_count=4, relation_count=1)
    test = full.time_slice(5, 5)
    assert direct_recurrency_degree(full, test) == 1.0
    assert recurrency_degree(full, test) == 1.0


def test_consecutiveness_all_singletons():
    full = from_quadruples(
        [(0, 0, 1, 0), (1, 0, 2, 2), (2, 0, 0, 4)], node_count=3, relation_count=1
    )
    assert consecutiveness(full) == 1.0


def test_inductive_extremes():
    train = from_quadruples([(0, 0, 1, 0)], node_count=4, relation_count=1)
    test_same = from_quadruples([(0, 0, 1, 5)], node_count=4, relation_count=1)
    test_fresh = from_quadruples([(2, 0, 3, 5)], node_count=4, relation_count=1)
    assert inductive_node_proportion(train, test_same) == 0.0
    assert inductive_node_proportion(train, test_fresh) == 1.0


def test_uniform_density():
    g = from_quadruples([(0, 0, 1, t) for t in range(10)], node_count=2, relation_count=1)
    edges, nodes = density_per_timestep(g)
    assert edges == 1.0 and nodes == 2.0


def test_single_relation_histogram():
    g = from_quadruples([(0, 0, 1, 0), (1, 0, 0, 1)], node_count=2, relation_count=1)
    shares, others = relation_histogram(g, 5)
    assert shares == ((0, 1.0),) and others == 0.0


def test_edges_over_time_uniform_default_bins():
    for t0 in (0, -(2**63), 2**63 - 40):
        g = from_quadruples([(0, 0, 1, t0 + t) for t in range(40)], node_count=2,
                            relation_count=1)
        bins = edges_over_time(g)  # default bin count is 20
        assert len(bins) == 20
        assert all(entry == (1.0, 1, 1) for entry in bins)


def test_edges_over_time_spans_the_whole_int64_range():
    # 2**64 slots in four bins of 2**62: the ends and 0 fall in bins 0, 3 and 2
    g = from_quadruples([(0, 0, 1, -(2**63)), (0, 0, 1, 0), (0, 0, 1, 2**63 - 1)],
                        node_count=2, relation_count=1)
    assert edges_over_time(g, 4) == [(2.0**-62, 0, 1), (0.0, 0, 0), (2.0**-62, 0, 1),
                                     (2.0**-62, 0, 1)]


def _slot_bins(timestamps, bins):
    """Per-slot reference: every slot of the span counted, then binned."""
    t0, span = min(timestamps), max(timestamps) - min(timestamps) + 1
    per_slot = [0] * span
    for t in timestamps:
        per_slot[t - t0] += 1
    bins = min(bins, span)
    held = [[c for x, c in enumerate(per_slot) if x * bins // span == b] for b in range(bins)]
    return [(sum(h) / len(h), min(h), max(h)) for h in held]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=40), st.integers(1, 40),
       st.integers(-(2**63), 2**63 - 301))
def test_edges_over_time_equals_a_per_slot_reference(offsets, bins, t0):
    g = from_quadruples([(0, 0, 1, t0 + x) for x in offsets], node_count=2, relation_count=1)
    assert edges_over_time(g, bins) == _slot_bins(g.timestamps.tolist(), bins)


def test_empty_inputs_are_errors(g4):
    empty = g4.time_slice(10, 11)
    with pytest.raises(DataError):
        recurrency_degree(g4, empty)
    with pytest.raises(DataError):
        direct_recurrency_degree(g4, empty)
    with pytest.raises(DataError):
        consecutiveness(empty)
    with pytest.raises(DataError):
        inductive_node_proportion(g4, empty)
    with pytest.raises(DataError):
        density_per_timestep(empty)
    with pytest.raises(DataError):
        edges_over_time(empty)


# -- properties over random synthetic graphs -------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_brute_force_oracle_agreement(seed):
    cfg = SynthConfig(
        node_count=25, relation_count=3, timestep_count=25, rate=4,
        p_rep=0.3 + 0.05 * (seed % 5), run_length=0.2 if seed % 2 else 0.0, seed=seed,
    )
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    assert recurrency_degree(g, test) == naive_rec(g, test)
    assert direct_recurrency_degree(g, test) == naive_drec(g, test)
    assert consecutiveness(g) == naive_con(g)
    assert density_per_timestep(g) == naive_density(g)


@pytest.mark.parametrize("seed", range(6))
def test_density_counts_each_timestep_union_once(seed):
    # self-loops, nodes on both sides, gaps and negative timestamps
    rng = np.random.default_rng(seed)
    times = rng.choice(np.arange(-30, 30), size=6, replace=False)
    quads = [(int(rng.integers(6)), 0, int(rng.integers(6)), int(rng.choice(times)))
             for _ in range(40)]
    g = from_quadruples(quads, node_count=6, relation_count=1)
    assert density_per_timestep(g) == naive_density(g)


def test_density_code_overflow_is_data_error():
    g = from_quadruples([(0, 0, 1, 0), (1, 0, 0, 1)], node_count=2**62, relation_count=1)
    with pytest.raises(DataError, match="overflow int64"):
        density_per_timestep(g)
    assert density_per_timestep(g.time_slice(0, 0)) == (1 / 1, 2 / 1)


@pytest.mark.parametrize("seed", range(20))
def test_drec_never_exceeds_rec(seed):
    cfg = SynthConfig(
        node_count=20, relation_count=2, timestep_count=30,
        rate=5, p_rep=0.05 * (seed % 20), seed=seed,
    )
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    assert direct_recurrency_degree(g, test) <= recurrency_degree(g, test)


def test_con_is_one_iff_no_consecutive_repeats():
    no_repeats = generate(
        SynthConfig(node_count=30, relation_count=2, timestep_count=30, rate=5, p_rep=0.0, seed=3)
    )
    assert consecutiveness(no_repeats) == 1.0
    with_repeats = from_quadruples(
        [(0, 0, 1, 0), (0, 0, 1, 1)], node_count=2, relation_count=1
    )
    assert consecutiveness(with_repeats) > 1.0


def test_inductive_antitone_in_training_growth():
    rng = np.random.default_rng(0)
    quads = [(int(rng.integers(20)), 0, int(rng.integers(20)), t) for t in range(40)]
    g = from_quadruples(quads, node_count=20, relation_count=1)
    test = g.time_slice(30, 39)
    small_train = g.time_slice(0, 10)
    big_train = g.time_slice(0, 29)
    assert inductive_node_proportion(big_train, test) <= inductive_node_proportion(
        small_train, test
    )


@pytest.mark.parametrize("seed", range(6))
def test_histogram_shares_sum_to_one(seed):
    g = generate(
        SynthConfig(node_count=25, relation_count=6, timestep_count=20, rate=8, seed=seed)
    )
    shares, others = relation_histogram(g, 3)
    total = sum(s for _, s in shares) + others
    assert math.isclose(total, 1.0, abs_tol=1e-12)
    values = [s for _, s in shares]
    assert values == sorted(values, reverse=True)


def test_fractions_in_unit_interval():
    g = generate(SynthConfig(node_count=25, relation_count=3, timestep_count=30,
                             rate=5, p_rep=0.5, seed=9))
    train, valid, test, _ = chronological_split(g)
    for value in (
        recurrency_degree(g, test),
        direct_recurrency_degree(g, test),
        inductive_node_proportion(train, test),
    ):
        assert 0.0 <= value <= 1.0
    assert consecutiveness(g) >= 1.0


def test_report_round_trip_text(g4):
    train = g4.time_slice(0, 1)
    test = g4.time_slice(3, 3)
    report = dataset_report(g4, train, test)
    text = report.to_text()
    assert "consecutiveness = 1.5" in text
    assert "recurrency = 1" in text
    assert "direct_recurrency = 0" in text
    assert "nodes_per_ts_method" in text
    # fixed ordering: stable across calls
    assert text == dataset_report(g4, train, test).to_text()


# -- columnar Rec/DRec/Con against the naive oracles -----------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _graph(quads, base=0):
    return from_quadruples([(s, r, o, base + t) for s, r, o, t in quads],
                           node_count=4, relation_count=2)


@st.composite
def _recurrence_cases(draw):
    # timestamp origins: small, negative, unix seconds and both int64 ends
    base = draw(st.sampled_from([0, -40, 1_700_000_000, _INT64_MIN, _INT64_MAX - 11]))
    span = draw(st.integers(1, 12))  # span 1: a single timestamp
    quad = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(0, 3),
                     st.integers(0, span - 1))
    full = draw(st.lists(quad, min_size=1, max_size=40))
    if draw(st.booleans()):
        full += [(1, 1, 2, t) for t in range(span)]  # one triple at every timestamp
    # test quadruples drawn from the full graph or anywhere, so some are absent from it
    test = draw(st.lists(st.one_of(st.sampled_from(full), quad), min_size=1, max_size=15))
    return _graph(full, base), _graph(test, base)


# gaps of exactly 1 and 2: times 0, 1, 3, 4, 5 and a test at each side of the hole
_GAPS = [(0, 0, 1, t) for t in (0, 1, 3, 4, 5)] + [(2, 1, 3, t) for t in (2, 4)]


@settings(max_examples=150, deadline=None)
@given(case=_recurrence_cases())
@example(case=(_graph(_GAPS), _graph([(0, 0, 1, 2), (0, 0, 1, 3), (0, 0, 1, 5),
                                       (2, 1, 3, 3), (2, 1, 3, 4)])))
@example(case=(_graph(_GAPS, _INT64_MIN), _graph([(0, 0, 1, 0), (0, 0, 1, 1)], _INT64_MIN)))
@example(case=(_graph([(0, 0, 1, _INT64_MIN), (0, 0, 1, _INT64_MAX)]),
               _graph([(0, 0, 1, _INT64_MIN)])))  # t - 1 must not wrap to the largest int64
@example(case=(_graph([(0, 0, 1, 0)]), _graph([(3, 1, 2, 0)])))
def test_columnar_recurrence_equals_naive_oracles(case):
    full, test = case
    rec, drec, con = naive_rec(full, test), naive_drec(full, test), naive_con(full)
    assert recurrency_degree(full, test) == rec
    assert direct_recurrency_degree(full, test) == drec
    assert consecutiveness(full) == con
    report = dataset_report(full, full, test)
    assert (report.recurrency, report.direct_recurrency, report.consecutiveness) == (rec, drec, con)
