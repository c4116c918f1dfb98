"""The engine against the brute-force oracle on Hypothesis-drawn graphs.

Every drawn case compares :func:`evaluate_single_step` with
:func:`synthetic.brute_force_evaluate` for exact equality of the whole
:class:`EvalResult`. Graphs are tiny and ids are drawn from a few nodes, so
symmetric pairs, self-loops, same-timestamp conflicts and empty timesteps
are common; a failure shrinks to a handful of quadruples. Besides the
generated sets, every case ranks lists as a file from outside may hold them:
with the truth itself and the conflicts among the candidates. The engine
counts materialized lists and 1-vs-all queries in chunks of at most
``negatives._CHUNK_CELLS`` cells beyond their first list's; the chunked
tests shrink that bound so a timestamp spans many chunks. Every
materialized set is also written to a file and evaluated as opened, its
records decoded as the replay reaches them; the streamed tests shrink
``negatives._BLOCK_BYTES`` as well, so decode passes and timestamps cut
each other.
"""

import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    ConstantScorer,
    EdgeBankScorer,
    NegativeSampleSet,
    ProtocolError,
    RecurrencyParams,
    RecurrencyScorer,
    Scorer,
    SynthConfig,
    add_inverse_relations,
    brute_force_evaluate,
    evaluate_single_step,
    expand_queries,
    from_quadruples,
    generate,
    generate_all,
    generate_negative_set,
    open_negative_set,
    write_negative_set,
)
from chronolink import evaluation, negatives
from chronolink.baselines import DEFAULT_ALPHA_GRID, DEFAULT_LAMBDA_GRID, DEFAULT_WINDOW_GRID
from conftest import HashScorer

_TIMES = 10  # timestamps 0..9; the eval split starts at a drawn cut


class _Extremes(Scorer):
    """+inf, -inf or 0.5 per candidate, by a hash of the ids: ties at the extremes."""

    name = "extremes"

    def score_query(self, query, candidates):
        pick = (candidates * 7 + query.source * 3 + query.relation) % 3
        return np.array([np.inf, -np.inf, 0.5])[pick]


class _Grid(RecurrencyScorer):
    """The recurrence baseline scoring one row per grid point."""

    def __init__(self, rows):
        super().__init__()
        self.params = rows


GRID = [RecurrencyParams(*p) for p in
        itertools.product(DEFAULT_LAMBDA_GRID, DEFAULT_ALPHA_GRID, DEFAULT_WINDOW_GRID)]

_WINDOWS = st.integers(0, 3)
_SCORERS = st.one_of(
    st.builds(lambda: ("edgebank pair", lambda: EdgeBankScorer("pair"))),
    st.builds(lambda: ("edgebank triple", lambda: EdgeBankScorer("triple"))),
    _WINDOWS.map(lambda w: (f"edgebank pair window {w}", lambda: EdgeBankScorer("pair", w))),
    _WINDOWS.map(lambda w: (f"edgebank triple window {w}", lambda: EdgeBankScorer("triple", w))),
    st.builds(
        lambda lam, alpha, window: (f"recurrency {lam} {alpha} {window}",
                                    lambda: RecurrencyScorer(RecurrencyParams(lam, alpha, window))),
        st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.0, 0.5, 0.99, 1.0]), _WINDOWS,
    ),
    st.builds(lambda: ("constant", ConstantScorer)),
    st.builds(lambda: ("extremes", _Extremes)),
    st.integers(0, 3).map(lambda salt: (f"hash {salt}", lambda: HashScorer(salt))),
    st.builds(lambda: ("grid", None)),
)


@st.composite
def _cases(draw):
    thg = draw(st.booleans())
    nodes = draw(st.integers(2, 6))
    relations = draw(st.integers(1, 3))
    quads = draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, relations - 1),
                  st.integers(0, nodes - 1), st.integers(0, _TIMES - 1)),
        min_size=1, max_size=40,
    ))
    types = draw(st.lists(st.integers(0, 2), min_size=nodes, max_size=nodes)) if thg else None
    g = from_quadruples(quads, node_count=nodes, relation_count=relations, node_types=types)
    strategies = ["all", "type-aware", "random"] + (["node-type"] if thg else [])
    return dict(
        graph=g,
        cut=draw(st.integers(1, _TIMES - 1)),
        strategy=draw(st.sampled_from(strategies)),
        q=draw(st.integers(1, nodes - 1)),
        seed=draw(st.integers(0, 3)),
        # the filter universe: the CLI passes the augmented graph, the library
        # the raw one; the history alone holds none of the queries' own facts
        universe=draw(st.sampled_from(["raw", "history"] + ([] if thg else ["augmented"]))),
    )


def _case(quads, nodes, relations, strategy="all", cut=3, universe="raw"):
    g = from_quadruples(quads, node_count=nodes, relation_count=relations)
    return dict(graph=g, cut=cut, strategy=strategy, q=2, seed=0, universe=universe)


_SYMMETRIC = _case([(0, 0, 1, 3), (1, 0, 0, 3), (0, 0, 2, 3), (0, 0, 1, 1), (2, 0, 2, 5)], 4, 1)
_GAPPED = _case([(0, 0, 1, 0), (1, 0, 2, 4), (0, 0, 1, 4), (0, 0, 2, 8), (1, 0, 0, 8)], 3, 1,
                strategy="random", cut=2, universe="augmented")
_UNFILTERED = _case([(0, 0, 1, 1), (0, 0, 1, 4), (0, 0, 2, 4), (2, 0, 1, 4)], 3, 1,
                    universe="history")
# timestamp 3 holds queries with conflicts, (0, 0, ?, 3) and (2, 2, ?, 3), and without
_MIXED_QUADS = [(0, 0, 1, 1), (1, 0, 2, 2), (0, 0, 1, 3), (0, 0, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3)]
_MIXED = _case(_MIXED_QUADS, 4, 2, strategy="random")


def _outside_lists(queries, nodes, seed):
    """Drawn subsets of every node, as a file from outside may hold them: every
    other list holds its truth, and any may hold conflicts."""
    rng = np.random.default_rng(seed)
    lists = [np.flatnonzero(rng.random(nodes) < 0.6) for _ in queries]
    return [np.union1d(ids, [q.true_destination]) if k % 2 else ids
            for k, (q, ids) in enumerate(zip(queries, lists))]


def _assert_engine_equals_oracle(case, scorer):
    g = case["graph"]
    kind = "thg" if g.is_heterogeneous else "tkg"
    history, test = g.time_slice(0, case["cut"] - 1), g.time_slice(case["cut"], _TIMES)
    base = history if case["universe"] == "history" else g
    universe = add_inverse_relations(base) if kind == "tkg" else base
    full = universe if case["universe"] == "augmented" else base
    queries = expand_queries(test, kind)
    if case["strategy"] == "all":
        # lists built without the queries' own facts leave every conflict to
        # the engine's filter; the 1-vs-all set is ranked densely, unmaterialized
        unfiltered = add_inverse_relations(history) if kind == "tkg" else history
        sets = [generate_all(unfiltered, queries)]
        sets += [generate_all(universe, queries, materialize=m) for m in (True, False)]
    else:
        sets = [generate_negative_set(case["strategy"], universe, queries, case["q"],
                                      case["seed"])]
    outside = NegativeSampleSet("random", case["q"], case["seed"], queries,
                                _outside_lists(queries, g.node_count, case["seed"]))
    label, make = scorer

    def oracle(sample_set):
        if make is not None:
            return brute_force_evaluate(make(), history, test, sample_set, full, kind=kind)
        want = tuple(brute_force_evaluate(RecurrencyScorer(p), history, test, sample_set, full,
                                          kind=kind) for p in GRID)
        return want if queries else want[0]  # without a query no block fixes the row count

    def run(sample_set):
        scorer = make() if make is not None else _Grid(GRID)  # all 27 points in one block
        return evaluate_single_step(scorer, history, test, sample_set, full, kind=kind)

    def engine(sample_set):
        result = run(sample_set)
        if sample_set.candidates is not None:  # the same lists, streamed from a file
            with _written(sample_set) as path:
                assert run(open_negative_set(path)) == result, (label, "file")
        return result

    # the oracle builds its own 1-vs-all lists from the last, unmaterialized set;
    # for "all", ranking every node equals ranking the lists, filtered or not
    assert [engine(s) for s in sets] == [oracle(sets[-1])] * len(sets), (label, case["strategy"])
    assert engine(outside) == oracle(outside), (label, "outside")


class _written:
    """A sample set written to a file in a fresh directory, removed on exit."""

    def __init__(self, sample_set):
        self.sample_set = sample_set

    def __enter__(self) -> Path:
        self.directory = tempfile.TemporaryDirectory()
        path = Path(self.directory.name) / "negatives.bin"
        write_negative_set(self.sample_set, path)
        return path

    def __exit__(self, *exc):
        self.directory.cleanup()


@settings(max_examples=120, deadline=None)
@given(case=_cases(), scorer=_SCORERS)
@example(case=_SYMMETRIC, scorer=("constant", ConstantScorer))
@example(case=_SYMMETRIC, scorer=("extremes", _Extremes))
@example(case=_SYMMETRIC, scorer=("grid", None))
@example(case=_UNFILTERED, scorer=("hash 1", lambda: HashScorer(1)))
@example(case=_GAPPED, scorer=("recurrency window 3",
                                lambda: RecurrencyScorer(RecurrencyParams(1.0, 0.5, 3))))
def test_engine_equals_brute_force_oracle(case, scorer):
    _assert_engine_equals_oracle(case, scorer)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=60, deadline=None)
@given(case=_cases(), scorer=_SCORERS)
@example(case=_MIXED, scorer=("grid", None))
@example(case=_MIXED, scorer=("hash 2", lambda: HashScorer(2)))
@example(case=_MIXED, scorer=("extremes", _Extremes))
@example(case=_UNFILTERED, scorer=("constant", ConstantScorer))
def test_chunked_counting_equals_brute_force_oracle(chunk, case, scorer):
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        _assert_engine_equals_oracle(case, scorer)


# a few bytes a pass: a timestamp's records span several passes; 64 bytes:
# one pass holds several timestamps
@pytest.mark.parametrize("chunk,block", [(7, 1), (negatives._CHUNK_CELLS, 5), (3, 64)])
@settings(max_examples=60, deadline=None)
@given(case=_cases(), scorer=_SCORERS)
@example(case=_MIXED, scorer=("hash 2", lambda: HashScorer(2)))
@example(case=_GAPPED, scorer=("grid", None))
def test_streamed_lists_equal_brute_force_oracle(chunk, block, case, scorer):
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk), \
            mock.patch.object(negatives, "_BLOCK_BYTES", block):
        _assert_engine_equals_oracle(case, scorer)


class _NanAt(Scorer):
    """HashScorer's scores, with NaN at every query's conflicts, or at one
    query's truth or conflict-free candidates."""

    def __init__(self, facts, where, target=None):
        self.facts, self.where, self.target = facts, where, target

    def score_query(self, query, candidates):
        scores = HashScorer(3).score_query(query, candidates)
        s, r, t, truth = query[:4]
        truths = candidates == truth
        conflicts = np.array([(s, r, c, t) in self.facts for c in candidates.tolist()],
                             dtype=bool) & ~truths
        if self.where == "conflicts":
            return np.where(conflicts, np.nan, scores)
        if query != self.target:
            return scores
        return np.where(truths if self.where == "truth" else ~truths & ~conflicts, np.nan, scores)


def _mixed_run(scorer):
    """Rank timestamp 3 of the mixed graph over lists of every node, which hold
    each query's truth and conflicts."""
    g = _MIXED["graph"]
    test = g.time_slice(3, 3)
    queries = expand_queries(test, "tkg")
    lists = [np.arange(g.node_count)] * len(queries)
    negatives = NegativeSampleSet("random", 3, 0, queries, lists)
    return evaluate_single_step(scorer, g.time_slice(0, 2), test, negatives, g, kind="tkg")


@pytest.mark.parametrize("chunk", [1, 7, negatives._CHUNK_CELLS])
def test_nan_only_at_conflicts_is_never_ranked_in_chunks(chunk):
    facts = set(add_inverse_relations(_MIXED["graph"]))
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        assert _mixed_run(_NanAt(facts, "conflicts")) == _mixed_run(HashScorer(3))


@pytest.mark.parametrize("chunk", [1, 7, negatives._CHUNK_CELLS])
@pytest.mark.parametrize("where", ["truth", "free"])
@pytest.mark.parametrize("target", [0, 3, -1])
def test_nan_at_a_ranked_score_names_its_query_in_chunks(chunk, where, target):
    g = _MIXED["graph"]
    query = expand_queries(g.time_slice(3, 3), "tkg")[target]
    scorer = _NanAt(set(add_inverse_relations(g)), where, query)
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        with pytest.raises(ProtocolError, match=f"NaN scores for {re.escape(str(query))}$"):
            _mixed_run(scorer)


# -- the sparse path: scorers that name a support ------------------------------------


class _Supported(Scorer):
    """HashScorer's scores on a support drawn per query, ``default`` elsewhere.

    ``kind`` picks the support. ``hash`` is a third of the nodes by a hash of
    the ids; ``no-truth`` is the same without the truth, and ``alternate``
    the same with an even truth and without an odd one. ``empty`` is no
    node, ``all-but-one`` every node but one, ``every`` every node and
    ``all-but-truth`` every node but the truth. ``below-truth`` is every node
    but the truth and the last one, so the smallest node outside the support
    is the truth. ``gapless`` is every node below the largest conflict or
    truth that is neither, so that the free node is the next one.
    ``none-or-hash`` is None (every node) for an even source and ``hash``
    for an odd one. ``facts`` are the universe's quadruples; with ``nan``
    every conflict is in the support and scores NaN. Every scored list is
    kept in ``scored``.
    """

    def __init__(self, default, kind, facts=frozenset(), nan=False):
        self.default, self.kind, self.facts, self.nan = default, kind, facts, nan
        self.node_count = 0
        self.scored = []

    def fit(self, history, static_context=None):
        self.node_count = history.node_count

    def support(self, query):
        s, r, t, truth = query[:4]
        nodes = np.arange(self.node_count)
        hashed = (nodes * 7 + s * 3 + r) % 3 == 0
        conflicts = self._conflicts(query, nodes)
        blocked = conflicts | (nodes == truth)
        keep = {
            "hash": hashed,
            "no-truth": hashed & (nodes != truth),
            "alternate": hashed & (nodes != truth) | (nodes == truth) & (truth % 2 == 0),
            "empty": nodes < 0,
            "all-but-one": nodes != (s + r) % max(self.node_count, 1),
            "every": nodes >= 0,
            "all-but-truth": nodes != truth,
            "below-truth": (nodes != truth) & (nodes != self.node_count - 1),
            "gapless": (nodes < nodes[blocked].max()) & ~blocked,
            "none-or-hash": hashed if s % 2 else None,
        }[self.kind]
        if keep is None:
            return None
        return nodes[keep | conflicts if self.nan else keep]

    def _conflicts(self, query, candidates):
        s, r, t, truth = query[:4]
        return np.array([(s, r, c, t) in self.facts and c != truth
                         for c in candidates.tolist()], dtype=bool)

    def score_query(self, query, candidates):
        self.scored.append((query, candidates.copy()))
        support = self.support(query)
        inside = np.isin(candidates, support) if support is not None else candidates >= 0
        scores = np.where(inside, HashScorer(1).score_query(query, candidates), self.default)
        if self.nan:
            scores[self._conflicts(query, candidates)] = np.nan
        return scores


def _facts(case):
    g = case["graph"]
    return frozenset(g if g.is_heterogeneous else add_inverse_relations(g))


def _one_vs_all(case, make):
    """The engine and the oracle on the case's unmaterialized 1-vs-all set."""
    g = case["graph"]
    kind = "thg" if g.is_heterogeneous else "tkg"
    history, test = g.time_slice(0, case["cut"] - 1), g.time_slice(case["cut"], _TIMES)
    universe = add_inverse_relations(g) if kind == "tkg" else g
    negatives = generate_all(universe, expand_queries(test, kind), materialize=False)
    got = evaluate_single_step(make(), history, test, negatives, g, kind=kind)
    return got, brute_force_evaluate(make(), history, test, negatives, g, kind=kind)


def _lists(case, make, chunk=negatives._CHUNK_CELLS):
    """The lists the engine scored for the case's 1-vs-all queries, after
    checking its result against the oracle's."""
    made = []

    def keep():
        made.append(make())
        return made[-1]

    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        got, want = _one_vs_all(case, keep)
    assert got == want
    return made[0].scored


_KINDS = ["hash", "no-truth", "alternate", "empty", "all-but-one", "every", "all-but-truth",
          "below-truth", "gapless", "none-or-hash"]
_DEFAULTS = [0.0, 0.5, np.inf, -np.inf]


@settings(max_examples=150, deadline=None)
@given(case=_cases(), default=st.sampled_from(_DEFAULTS), kind=st.sampled_from(_KINDS),
       nan=st.booleans())
@example(case=_SYMMETRIC, default=0.5, kind="below-truth", nan=False)
@example(case=_MIXED, default=np.inf, kind="empty", nan=True)
@example(case=_MIXED, default=-np.inf, kind="every", nan=True)
def test_sparse_ranking_equals_brute_force_oracle(case, default, kind, nan):
    got, want = _one_vs_all(case, lambda: _Supported(default, kind, _facts(case), nan))
    assert got == want


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=60, deadline=None)
@given(case=_cases(), default=st.sampled_from(_DEFAULTS), kind=st.sampled_from(_KINDS),
       nan=st.booleans())
@example(case=_MIXED, default=0.5, kind="none-or-hash", nan=True)
@example(case=_MIXED, default=-np.inf, kind="alternate", nan=False)
def test_chunked_sparse_ranking_equals_brute_force_oracle(chunk, case, default, kind, nan):
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        got, want = _one_vs_all(case, lambda: _Supported(default, kind, _facts(case), nan))
    assert got == want


@pytest.mark.parametrize("chunk", [1, 7, negatives._CHUNK_CELLS])
def test_one_timestamp_mixes_every_node_with_supports(chunk):
    # timestamp 3 of the mixed graph has queries from even and odd sources
    scored = _lists(_MIXED, lambda: _Supported(0.5, "none-or-hash", _facts(_MIXED), True), chunk)
    lengths = {query.source % 2: len(cells) for query, cells in scored}
    assert lengths[0] == _MIXED["graph"].node_count + 1  # every node, then the truth
    assert lengths[1] < lengths[0]


@pytest.mark.parametrize("chunk", [1, 7, negatives._CHUNK_CELLS])
def test_free_node_follows_a_gapless_run_of_named_nodes(chunk):
    # facts at timestamp 2: (0, 0, 1), (0, 0, 3) and (4, 0, 6), and their inverses
    case = _case([(0, 0, 5, 0), (4, 0, 2, 1), (0, 0, 1, 2), (0, 0, 3, 2), (4, 0, 6, 2)], 10, 1,
                 cut=2)
    facts = _facts(case)
    scored = _lists(case, lambda: _Supported(0.5, "gapless", facts), chunk)
    assert len(scored) == 6
    for query, cells in scored:
        s, r, t, truth = query[:4]
        last = max(o for (a, b, o, c) in facts if (a, b, c) == (s, r, t))
        assert cells.tolist() == [*(c for c in range(last) if (s, r, c, t) not in facts),
                                  last + 1, truth], query


@pytest.mark.parametrize("kind", ["every", "all-but-truth"])
def test_no_free_node_when_nothing_is_left_outside(kind):
    scored = _lists(_MIXED, lambda: _Supported(-np.inf, kind, _facts(_MIXED)))
    n = _MIXED["graph"].node_count
    assert [len(cells) for _, cells in scored] == [n + (kind == "every")] * len(scored)


def test_truth_inside_and_outside_the_support_in_one_chunk():
    scored = _lists(_MIXED, lambda: _Supported(0.5, "alternate", _facts(_MIXED), True))
    inside = {query.true_destination in cells[:-1] for query, cells in scored}
    assert inside == {True, False}


@pytest.mark.parametrize("chunk", [1, 7, negatives._CHUNK_CELLS])
@pytest.mark.parametrize("target", [0, 3, -1])
def test_nan_at_the_free_node_names_its_query(chunk, target):
    query = expand_queries(_MIXED["graph"].time_slice(3, 3), "tkg")[target]
    facts = _facts(_MIXED)

    class NanFree(_Supported):
        def score_query(self, q, candidates):
            scores = super().score_query(q, candidates)
            if q == query:  # NaN outside the support, the conflicts and the truth
                free = ~np.isin(candidates, self.support(q)) & (candidates != q.true_destination)
                scores[free & ~self._conflicts(q, candidates)] = np.nan
            return scores

    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        with pytest.raises(ProtocolError, match=f"NaN scores for {re.escape(str(query))}$"):
            _one_vs_all(_MIXED, lambda: NanFree(0.5, "empty", facts))


def _grid_over_one_vs_all():
    """The 27-row grid block and each row alone by the oracle, on 1-vs-all."""
    g = generate(SynthConfig(node_count=40, relation_count=3, timestep_count=14, rate=12,
                             p_rep=0.6, seed=11))
    history, test = g.time_slice(0, 9), g.time_slice(10, 13)
    negatives = generate_all(add_inverse_relations(g), expand_queries(test, "tkg"),
                             materialize=False)
    got = evaluate_single_step(_Grid(GRID), history, test, negatives, g)
    want = tuple(brute_force_evaluate(RecurrencyScorer(p), history, test, negatives, g)
                 for p in GRID)
    return got, want


def test_grid_block_over_unmaterialized_one_vs_all_equals_each_row_alone():
    got, want = _grid_over_one_vs_all()
    assert got == want


@pytest.mark.parametrize("chunk", [1, 100])
def test_chunked_grid_block_over_unmaterialized_one_vs_all_equals_each_row_alone(chunk):
    with mock.patch.object(negatives, "_CHUNK_CELLS", chunk):
        got, want = _grid_over_one_vs_all()
    assert got == want


class _BadSupport(HashScorer):
    def __init__(self, ids):
        super().__init__()
        self.ids = ids

    def support(self, query):
        return np.array(self.ids)


@pytest.mark.parametrize(
    "ids", [[2, 1], [1, 1], [[0, 1]], [-1, 0], [0, _MIXED["graph"].node_count], [0.5, 1.5],
            [True]])
def test_support_not_sorted_distinct_node_ids_is_a_protocol_error(ids):
    g = _MIXED["graph"]
    negatives = generate_all(add_inverse_relations(g), expand_queries(g.time_slice(3, 3), "tkg"),
                             materialize=False)
    with pytest.raises(ProtocolError, match="not sorted distinct node ids"):
        evaluate_single_step(_BadSupport(ids), g.time_slice(0, 2), g.time_slice(3, 3), negatives, g)


def test_nan_outside_the_support_is_refused_unless_no_node_there_is_ranked():
    query = expand_queries(_MIXED["graph"].time_slice(3, 3), "tkg")[0]
    with pytest.raises(ProtocolError, match=f"NaN scores for {re.escape(str(query))}$"):
        _one_vs_all(_MIXED, lambda: _Supported(np.nan, "hash"))
    got, want = _one_vs_all(_MIXED, lambda: _Supported(np.nan, "every"))
    assert got == want


_SUPPORTED = st.one_of(
    st.sampled_from(["pair", "triple"]).flatmap(
        lambda mode: st.sampled_from([None, 0, 1, 2, 3]).map(
            lambda w: (f"edgebank {mode} {w}", lambda: EdgeBankScorer(mode, w)))),
    st.builds(
        lambda lam, alpha, window: (f"recurrency {lam} {alpha} {window}",
                                    lambda: RecurrencyScorer(RecurrencyParams(lam, alpha, window))),
        st.sampled_from([0.0, 0.1, 1.0]), st.sampled_from([0.0, 0.5, 0.99, 1.0]), _WINDOWS,
    ),
    st.builds(lambda: ("grid", lambda: _Grid(GRID))),
)


@settings(max_examples=150, deadline=None)
@given(case=_cases(), scorer=_SUPPORTED)
def test_every_node_outside_the_support_scores_bitwise_the_same(case, scorer):
    g = case["graph"]
    kind = "thg" if g.is_heterogeneous else "tkg"
    feed = add_inverse_relations(g) if kind == "tkg" else g
    nodes = np.arange(g.node_count)
    nodes.setflags(write=False)
    label, make = scorer
    scorer = make()
    scorer.fit(feed.time_slice(0, case["cut"] - 1))
    for t in range(case["cut"], _TIMES):
        for query in expand_queries(g.time_slice(t, t), kind):
            support = scorer.support(query)
            assert ((support >= 0) & (support < g.node_count)).all(), label
            assert (np.diff(support) > 0).all(), label
            bits = scorer.score_query(query, nodes).view(np.int64)
            outside = np.delete(bits, support, axis=-1)
            assert (outside == outside[..., :1]).all(), (label, query)
        scorer.observe(feed.time_slice(t, t))
