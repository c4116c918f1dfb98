"""The engine against the brute-force oracle on Hypothesis-drawn graphs.

Every drawn case compares :func:`evaluate_single_step` with
:func:`synthetic.brute_force_evaluate` for exact equality of the whole
:class:`EvalResult`. Graphs are tiny and ids are drawn from a few nodes, so
symmetric pairs, self-loops, same-timestamp conflicts and empty timesteps
are common; a failure shrinks to a handful of quadruples.
"""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    ConstantScorer,
    EdgeBankScorer,
    RecurrencyParams,
    RecurrencyScorer,
    Scorer,
    add_inverse_relations,
    brute_force_evaluate,
    evaluate_single_step,
    expand_queries,
    from_quadruples,
    generate_all,
    generate_negative_set,
)
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


@settings(max_examples=120, deadline=None)
@given(case=_cases(), scorer=_SCORERS)
@example(case=_SYMMETRIC, scorer=("constant", ConstantScorer))
@example(case=_SYMMETRIC, scorer=("extremes", _Extremes))
@example(case=_SYMMETRIC, scorer=("grid", None))
@example(case=_UNFILTERED, scorer=("hash 1", lambda: HashScorer(1)))
@example(case=_GAPPED, scorer=("recurrency window 3",
                                lambda: RecurrencyScorer(RecurrencyParams(1.0, 0.5, 3))))
def test_engine_equals_brute_force_oracle(case, scorer):
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
    label, make = scorer
    if make is None:  # all 27 grid points in one (27, n) block per query
        make = lambda: _Grid(GRID)  # noqa: E731
        # the oracle builds its own 1-vs-all lists from the last, unmaterialized set
        want = tuple(brute_force_evaluate(RecurrencyScorer(p), history, test, sets[-1], full,
                                          kind=kind) for p in GRID)
        if not queries:  # without a query no block fixes the row count
            want = want[0]
    else:
        want = brute_force_evaluate(make(), history, test, sets[-1], full, kind=kind)
    got = [evaluate_single_step(make(), history, test, s, full, kind=kind) for s in sets]
    # for "all", ranking every node equals ranking the lists, filtered or not
    assert got == [want] * len(sets), (label, case["strategy"])
