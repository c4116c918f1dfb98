import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    DataError,
    Granularity,
    Quadruple,
    SplitBoundaries,
    SynthConfig,
    TemporalMultiGraph,
    add_inverse_relations,
    chronological_split,
    from_quadruples,
    generate,
    load_graph_dir,
    merge,
    write_graph_dir,
)
from chronolink.graph import run_starts


@pytest.mark.parametrize("size", [0, 1, 5000])
def test_run_starts_pick_what_np_unique_picks(size):
    values = np.sort(np.random.default_rng(size).integers(-50, 50, size=size) * 2**40)
    starts = run_starts(values)
    assert values[starts].tolist() == np.unique(values).tolist()
    assert np.flatnonzero(starts).tolist() == np.unique(values, return_index=True)[1].tolist()


def test_construction_sorts_and_dedups():
    g = from_quadruples(
        [(2, 1, 3, 3), (0, 0, 1, 0), (0, 0, 1, 0), (0, 0, 1, 3)],
        node_count=4,
        relation_count=2,
    )
    assert len(g) == 3
    assert g.duplicates_removed == 1
    assert list(g) == [
        Quadruple(0, 0, 1, 0),
        Quadruple(0, 0, 1, 3),
        Quadruple(2, 1, 3, 3),
    ]
    assert g.t_min == 0 and g.t_max == 3


def test_id_bounds_enforced():
    with pytest.raises(DataError):
        from_quadruples([(0, 0, 5, 0)], node_count=4, relation_count=2)
    with pytest.raises(DataError):
        from_quadruples([(0, 7, 1, 0)], node_count=4, relation_count=2)


def test_node_types_must_cover_all_nodes():
    with pytest.raises(DataError):
        TemporalMultiGraph([0], [0], [1], [0], node_count=3, relation_count=1, node_types=[0, 1])
    g = TemporalMultiGraph(
        [0], [0], [1], [0], node_count=3, relation_count=1, node_types=[0, 1, 0]
    )
    assert g.is_heterogeneous


def test_immutability(g4):
    with pytest.raises(AttributeError):
        g4.node_count = 7
    with pytest.raises(ValueError):
        g4.subjects[0] = 3


def test_mismatched_columns_rejected():
    with pytest.raises(DataError):
        TemporalMultiGraph([0, 1], [0], [1], [0], node_count=2, relation_count=1)


def test_inverse_relations_single_quad():
    g = from_quadruples([(0, 0, 1, 5)], node_count=2, relation_count=1)
    aug = add_inverse_relations(g)
    assert aug.relation_count == 2
    assert set(aug) == {Quadruple(0, 0, 1, 5), Quadruple(1, 1, 0, 5)}


def test_inverse_relations_symmetric_pair():
    g = from_quadruples([(0, 0, 1, 0), (1, 0, 0, 0)], node_count=2, relation_count=1)
    aug = add_inverse_relations(g)
    assert len(aug) == 4
    assert set(aug) == {
        Quadruple(0, 0, 1, 0),
        Quadruple(1, 0, 0, 0),
        Quadruple(1, 1, 0, 0),
        Quadruple(0, 1, 1, 0),
    }


def test_inverse_relations_empty_graph():
    g = from_quadruples([], node_count=3, relation_count=2)
    aug = add_inverse_relations(g)
    assert aug.is_empty and aug.relation_count == 4


def test_inverse_relations_twice_rejected(g4):
    aug = add_inverse_relations(g4)
    assert aug.inverse_augmented
    with pytest.raises(DataError):
        add_inverse_relations(aug)


def test_inverse_count_always_doubles(g4):
    # with the r + R id convention an inverse can never collide with an
    # existing quadruple, so the count doubles exactly
    aug = add_inverse_relations(g4)
    assert len(aug) == 2 * len(g4)


@pytest.mark.parametrize("times", ["small", "unix-seconds", "beyond-pow2"])
@pytest.mark.parametrize("sizes", [(1, 1), (5, 3), (30, 4)])
def test_inverse_augmentation_equals_a_lexsort_reference(sizes, times):
    node_count, relation_count = sizes
    rng = np.random.default_rng(node_count)
    rows = rng.integers(0, [node_count, relation_count, node_count, 4], size=(200, 4))
    # with 5 nodes and 6 augmented relations, a 2**55 span fits only exact radices
    rows[:, 3] = np.array({"small": [0, 1, 2, 3], "unix-seconds": [1_700_000_000 + 3600 * i
                                                                   for i in range(4)],
                           "beyond-pow2": [0, 1, 2, 2**55]}[times])[rows[:, 3]]
    g = TemporalMultiGraph(*rows.T, node_count=node_count, relation_count=relation_count)
    aug = add_inverse_relations(g)
    doubled = list(g) + [(o, r + relation_count, s, t) for s, r, o, t in g]
    want, dropped = _reference_build(doubled, node_count, 2 * relation_count)
    assert np.array_equal(np.stack([aug.subjects, aug.relations, aug.objects, aug.timestamps]),
                          want)
    assert dropped == aug.duplicates_removed == 0 and len(aug) == 2 * len(g)


def test_slice_window(g4):
    assert set(g4.time_slice(1, 1)) == {Quadruple(0, 0, 1, 1), Quadruple(2, 1, 3, 1)}
    assert g4.time_slice(g4.t_min, g4.t_max) == g4
    assert g4.time_slice(g4.t_max + 1, g4.t_max + 2).is_empty
    with pytest.raises(DataError):
        g4.time_slice(2, 1)


def test_split_roundtrip_reconstructs(g4):
    train = g4.time_slice(g4.t_min, 1)
    valid = g4.time_slice(2, 2)
    test = g4.time_slice(3, g4.t_max)
    assert merge(train, valid, test) == g4


def test_objects_at(g4):
    assert g4.objects_at(0, 0, 1).tolist() == [1]
    assert g4.objects_at(0, 0, 2).tolist() == []
    assert g4.objects_at(2, 1, 3).tolist() == [3]


def _naive_runs(g, queries):
    """Objects per (s, r, t) query, from a set of the graph's quadruples."""
    facts = set(g)
    return [sorted(o for o in range(g.node_count) if (s, r, o, t) in facts)
            for s, r, t in queries]


def _bulk_runs(g, queries):
    s, r, t = np.array(queries, dtype=np.int64).reshape(-1, 3).T
    lo, hi = g.fact_runs(s, r, t)
    assert (lo <= hi).all()
    return [g.objects[a:b].tolist() for a, b in zip(lo, hi)]


# every query of a 4-node, 2-relation id space, and ids on each side of it
_EDGE_IDS = [-(2**62), -1, 0, 1, 3, 4, 2**62]


@pytest.mark.parametrize("times", [
    pytest.param([-5, 0, 2, 7], id="small-and-negative"),
    pytest.param([1_700_000_000, 1_700_000_060, 1_700_086_400], id="unix-seconds"),
])
def test_fact_runs_match_a_naive_lookup(times):
    quads = [(s, r, o, t) for i, t in enumerate(times) for s, r, o in
             [(0, 0, 1), (0, 0, 3), (3, 1, 0), (i % 4, 1, 2), (2, 0, 2)]]
    g = from_quadruples(quads, node_count=4, relation_count=2)
    probes = sorted({*times, min(times) - 1, times[1] - 1, times[1] + 1, max(times) + 1,
                     -(2**63), 2**63 - 1})
    queries = [(s, r, t) for s in _EDGE_IDS for r in _EDGE_IDS for t in probes]
    assert _bulk_runs(g, queries) == _naive_runs(g, queries)
    for s, r, t in queries[:: 7]:
        assert g.objects_at(s, r, t).tolist() == _naive_runs(g, [(s, r, t)])[0]


def test_fact_runs_on_an_empty_graph():
    g = from_quadruples([], node_count=3, relation_count=2)
    assert _bulk_runs(g, [(0, 0, 0), (2, 1, -4), (-1, 9, 2**40)]) == [[], [], []]
    assert g.objects_at(0, 0, 0).tolist() == []
    lo, hi = g.fact_runs([], [], [])
    assert lo.shape == hi.shape == (0,)


def test_unix_second_timestamps_rank_inside_int64():
    # raw timestamps times the id spaces would overflow int64; their ranks do not
    nodes, relations = 2**31, 2**10
    t0 = 1_700_000_000
    g = from_quadruples([(nodes - 1, relations - 1, 5, t0), (7, 3, nodes - 1, t0 + 3600)],
                        node_count=nodes, relation_count=relations)
    assert g.objects_at(nodes - 1, relations - 1, t0).tolist() == [5]
    assert g.objects_at(7, 3, t0 + 3600).tolist() == [nodes - 1]
    assert g.objects_at(7, 3, t0).tolist() == []


def test_fact_code_overflow_is_data_error():
    g = from_quadruples([(0, 0, 1, 0), (1, 0, 0, 1)], node_count=2**40, relation_count=2**22)
    with pytest.raises(DataError, match="overflow int64"):
        g.objects_at(0, 0, 0)
    with pytest.raises(DataError, match="overflow int64"):
        g.fact_runs([0], [0], [1])
    # one timestamp fewer: the codes end just below 2**63
    assert g.time_slice(0, 0).objects_at(0, 0, 0).tolist() == [1]


def test_merge_rejects_mismatched_vocabularies(g4):
    other = from_quadruples([(0, 0, 1, 0)], node_count=9, relation_count=2)
    with pytest.raises(DataError):
        merge(g4, other)


def test_empty_graph_has_no_bounds():
    g = from_quadruples([], node_count=1, relation_count=1)
    with pytest.raises(DataError):
        _ = g.t_min


def test_split_boundaries_ordering():
    with pytest.raises(DataError):
        SplitBoundaries(train_end=5, valid_end=5)
    b = SplitBoundaries(train_end=3, valid_end=5)
    assert b.train_end == 3


def test_granularity_preserved(g4):
    assert g4.granularity is Granularity.YEAR
    assert g4.time_slice(0, 1).granularity is Granularity.YEAR


def test_sorting_invariant_is_canonical():
    quads = [(1, 0, 0, 2), (0, 1, 1, 2), (0, 0, 1, 2), (1, 1, 0, 0)]
    g = from_quadruples(quads, node_count=2, relation_count=2)
    order = list(zip(g.timestamps, g.subjects, g.relations, g.objects))
    assert order == sorted(order)
    arr = np.array(order)
    assert arr.shape == (4, 4)


# -- construction against a four-column lexsort reference -------------------------------


def _reference_build(rows, node_count, relation_count):
    """(sorted unique (s, r, o, t) columns, duplicates removed), or the
    DataError message construction must raise."""
    s, r, o, t = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    if len(t):
        if s.min() < 0 or o.min() < 0 or max(s.max(), o.max()) >= node_count:
            return "node id out of range [0, node_count)"
        if r.min() < 0 or r.max() >= relation_count:
            return "relation id out of range [0, relation_count)"
    columns = np.stack([s, r, o, t])[:, np.lexsort((o, r, s, t))]
    keep = np.ones(len(t), dtype=bool)
    keep[1:] = (columns[:, 1:] != columns[:, :-1]).any(axis=0)
    return columns[:, keep], int(len(t) - keep.sum())


_TIMES = {
    "small": st.integers(-5, 5),
    "unix-seconds": st.integers(1_700_000_000, 1_700_000_000 + 86_400),
    "int64-ends": st.sampled_from([-(2**63), -(2**63) + 1, 0, 2**63 - 2, 2**63 - 1]),
    # with 5 nodes and 3 relations only the exact radices fit the key
    "beyond-pow2": st.sampled_from([0, 1, 2**56, 2**56 + 1]),
}


@st.composite
def _construction_cases(draw):
    """(rows, node_count, relation_count, pass numpy arrays?)."""
    # 2**31 nodes over 3 relations overflow the int64 key at any span
    node_count = draw(st.sampled_from([1, 2, 5, 2**31]))
    relation_count = draw(st.sampled_from([1, 3]))
    nodes = st.one_of(st.integers(0, min(node_count, 4) - 1), st.just(node_count - 1))
    relations = st.integers(0, relation_count - 1)
    times = _TIMES[draw(st.sampled_from(sorted(_TIMES)))]
    pool = draw(st.lists(st.tuples(nodes, relations, nodes, times), max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=24)) if pool else []
    order = draw(st.sampled_from(["drawn", "sorted", "sorted-unique", "reversed"]))
    if order == "sorted":
        rows.sort(key=lambda q: (q[3], q[0], q[1], q[2]))
    elif order == "sorted-unique":
        rows = sorted(set(rows), key=lambda q: (q[3], q[0], q[1], q[2]))
    elif order == "reversed":
        rows.sort(key=lambda q: (q[3], q[0], q[1], q[2]), reverse=True)
    if rows and draw(st.booleans()):  # one row with an id outside its space
        at = draw(st.integers(0, len(rows) - 1))
        column = draw(st.sampled_from([0, 1, 2]))
        size = relation_count if column == 1 else node_count
        bad = list(rows[at])
        bad[column] = draw(st.sampled_from([-1, size, size + 7]))
        rows[at] = tuple(bad)
    return rows, node_count, relation_count, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=_construction_cases())
@example(case=([], 1, 1, False))
@example(case=([(0, 0, 0, 9)], 1, 1, True))
@example(case=([(0, 0, 1, 2**63 - 1), (1, 2, 0, -(2**63)), (0, 0, 1, 2**63 - 1)], 2**31, 3, True))
@example(case=([(2, 0, 1, 1_700_000_000), (0, 0, 1, 1_700_003_600)] * 2, 5, 1, False))
def test_construction_matches_a_lexsort_reference(case):
    rows, node_count, relation_count, as_arrays = case
    columns = [c.copy() for c in np.array(rows, dtype=np.int64).reshape(-1, 4).T]
    before = [np.copy(c) for c in columns]
    if not as_arrays:
        columns = [c.tolist() for c in columns]
    expected = _reference_build(rows, node_count, relation_count)
    if isinstance(expected, str):
        with pytest.raises(DataError) as raised:
            TemporalMultiGraph(*columns, node_count=node_count, relation_count=relation_count)
        assert str(raised.value) == expected
        return
    g = TemporalMultiGraph(*columns, node_count=node_count, relation_count=relation_count)
    want, dropped = expected
    assert np.array_equal(np.stack([g.subjects, g.relations, g.objects, g.timestamps]), want)
    assert g.duplicates_removed == dropped
    # the caller's arrays are neither frozen, nor changed, nor shared
    for given_column, kept in zip(columns, before):
        if as_arrays:
            assert given_column.flags.writeable
            assert np.array_equal(given_column, kept)
            assert not any(np.shares_memory(given_column, mine) for mine in
                           (g.subjects, g.relations, g.objects, g.timestamps))


def test_sorted_graphs_are_rebuilt_without_a_sort(tmp_path, monkeypatch):
    full = generate(SynthConfig(node_count=30, relation_count=3, timestep_count=20,
                                rate=6, p_rep=0.5, seed=5))
    train, valid, test, _ = chronological_split(full)
    write_graph_dir(full, tmp_path / "graph")

    def refuse(*args, **kwargs):
        raise AssertionError("a sorted graph was sorted again")

    for sort in ("sort", "argsort", "lexsort"):
        monkeypatch.setattr(np, sort, refuse)
    reloaded, _ = load_graph_dir(tmp_path / "graph")
    assert reloaded == full and reloaded.duplicates_removed == 0
    assert merge(train, valid, test) == full
    assert full.time_slice(full.t_min + 2, full.t_max - 2) == merge(
        full.time_slice(full.t_min + 2, full.t_min + 9), full.time_slice(full.t_min + 10, full.t_max - 2))


def test_only_keys_beyond_int64_fall_back_to_the_lexsort(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the other sort was expected")

    def build(times):
        rows = [(s, r, o, times[t]) for s, r, o, t in quads]
        return from_quadruples(rows, node_count=5, relation_count=3)

    quads = [(4, 2, 0, 2), (0, 0, 4, -3), (4, 2, 0, 2), (1, 1, 1, 0)]
    monkeypatch.setattr(np, "lexsort", refuse)
    g = build({-3: -3, 0: 0, 2: 2})
    assert g.timestamps.tolist() == [-3, 0, 2] and g.duplicates_removed == 1
    # a span that fits the key with exact radices (5, 3, 5) but not with (8, 4, 8)
    span = (2**63 - 1) // 75
    g = build({-3: 0, 0: 1, 2: span - 1})
    assert g.timestamps.tolist() == [0, 1, span - 1] and g.duplicates_removed == 1
    assert g.subjects.tolist() == [0, 1, 4] and g.objects.tolist() == [4, 1, 0]
    monkeypatch.undo()
    monkeypatch.setattr(np, "sort", refuse)
    # one more timestamp and the exact key overflows too
    g = build({-3: 0, 0: 1, 2: span})
    assert g.timestamps.tolist() == [0, 1, span] and g.duplicates_removed == 1
    # both int64 ends: the span alone overflows the key
    wide = build({-3: -(2**63), 0: 0, 2: 2**63 - 1})
    assert wide.timestamps.tolist() == [-(2**63), 0, 2**63 - 1] and wide.duplicates_removed == 1
