"""Deterministic heuristic scorers: EdgeBank and the recurrence baseline.

EdgeBank memorizes previously seen keys — (source, destination) pairs by
default, optionally (source, relation, destination) triples — and scores 1
for any key still inside its memory window. The recurrence baseline mixes a
time-decayed strict-recurrence term with a relation-level object-frequency
term:

    strict(c)  = 2 ** (-lambda * (t - k))   for the latest k < t at which
                 (s, r, c, k) was observed, subject to the window; else 0
    relaxed(c) = freq_r(c) / max_c' freq_r(c')  over past (*, r, c, k), k < t
    score(c)   = alpha * strict(c) + (1 - alpha) * relaxed(c)

A window of 0 means unbounded history; a positive window truncates both the
strict and the relaxed term. The exact functional form is versioned in
:data:`RECURRENCY_FORMULA` so emitted numbers are never conflated with other
implementations of the same idea.

Both scorers read one sorted last-seen table, :class:`EdgeBankMemory`: int64
codes ``key * node_count + destination`` with the latest time of each, where
the key is the subject (pair mode) or ``subject * relation_count + relation``
(triple mode). The recurrence baseline's strict term is the triple-mode table;
its relaxed term bincounts occurrence columns grouped by relation.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ProtocolError
from .evaluation import DEFAULT_KS, Scorer, evaluate_single_step
from .graph import TemporalMultiGraph
from .negatives import EvalQuery, NegativeSampleSet

RECURRENCY_FORMULA = "strict-exp2-decay+relaxed-relfreq/v1"

DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0)
DEFAULT_ALPHA_GRID = (0.9, 0.99, 0.999)
DEFAULT_WINDOW_GRID = (0, 100, 500)

_EMPTY = np.empty(0, dtype=np.int64)


# -- EdgeBank --------------------------------------------------------------------


class EdgeBankMemory:
    """Sorted last-seen table of (key, destination) codes.

    ``_codes`` are the sorted unique ``key * node_count + destination`` and
    ``_times`` the latest timestamp of each, so the destinations of one key
    are a contiguous run found by binary search. In window mode a key is
    active iff ``last_seen >= t_now - window``; with ``window=None`` every key
    ever seen stays active. The code widths are those of the first graph
    observed into the empty table.
    """

    def __init__(self, key_mode: str = "pair", window: int | None = None):
        if key_mode not in ("pair", "triple"):
            raise ConfigError(f"key_mode must be pair or triple, got {key_mode!r}")
        if window is not None and window < 0:
            raise ConfigError("window must be non-negative")
        self.key_mode = key_mode
        self.window = window
        self.node_count = 0
        self.relation_count = 0
        self._codes = _EMPTY
        self._times = _EMPTY

    def _keys(self, subjects, relations):
        if self.key_mode == "pair":
            return subjects
        return subjects * self.relation_count + relations

    def observe(self, graph: TemporalMultiGraph) -> None:
        """Merge one time-sorted chunk; a re-observed code takes its new time."""
        n, r = graph.node_count, graph.relation_count
        if n * n * (r if self.key_mode == "triple" else 1) >= 2**63:
            raise DataError(f"{n} nodes and {r} relations overflow int64 {self.key_mode} codes")
        if self._codes.size == 0:
            self.node_count, self.relation_count = n, r
        if n > self.node_count or r > self.relation_count:
            raise DataError(f"{n} nodes and {r} relations exceed the memory's widths")
        codes = self._keys(graph.subjects, graph.relations) * self.node_count + graph.objects
        # a code's last row is its latest; reversed, np.unique's first index finds it
        codes, last = np.unique(codes[::-1], return_index=True)
        times = graph.timestamps[::-1][last]
        at = np.searchsorted(self._codes, codes)
        present = np.searchsorted(self._codes, codes, side="right") > at
        self._times[at[present]] = times[present]
        self._codes = np.insert(self._codes, at[~present], codes[~present])
        self._times = np.insert(self._times, at[~present], times[~present])

    def lookup(self, subject: int, relation: int, candidates) -> tuple:
        """(seen mask, last-seen time) per candidate; times count only where seen."""
        candidates = np.asarray(candidates, dtype=np.int64)
        base = self._keys(subject, relation) * self.node_count
        lo = hi = 0
        if self.key_mode == "pair" or 0 <= relation < self.relation_count:
            lo, hi = np.searchsorted(self._codes, (base, base + self.node_count))
        if lo == hi:
            return np.zeros(len(candidates), dtype=bool), np.zeros(len(candidates), dtype=np.int64)
        targets = candidates + base
        at = np.searchsorted(self._codes[lo:hi], targets)
        seen = self._codes[lo:hi].take(at, mode="clip") == targets
        return seen, self._times[lo:hi].take(at, mode="clip")


def edgebank_observe(memory: EdgeBankMemory, quads: TemporalMultiGraph) -> EdgeBankMemory:
    """Insert every quadruple's key with its timestamp as last_seen."""
    memory.observe(quads)
    return memory


def edgebank_score(
    memory: EdgeBankMemory, query: EvalQuery, candidates: np.ndarray, t_now: int
) -> np.ndarray:
    """1.0 for candidates whose key is active at t_now, else 0.0."""
    seen, last = memory.lookup(query.source, query.relation, candidates)
    if memory.window is not None:
        seen &= last >= t_now - memory.window
    return seen.astype(np.float64)


class EdgeBankScorer(Scorer):
    """EdgeBank as an evaluation-engine scorer.

    The default pair keying deliberately omits edge-type information; triple
    keying is exposed for ablation. ``window=None`` is the unbounded variant.
    """

    def __init__(self, key_mode: str = "pair", window: int | None = None):
        self.memory = EdgeBankMemory(key_mode, window)
        self.name = "edgebank-inf" if window is None else "edgebank-tw"

    def fit(self, history, static_context=None):
        edgebank_observe(self.memory, history)

    def observe(self, quads):
        edgebank_observe(self.memory, quads)

    def score_query(self, query, candidates):
        return edgebank_score(self.memory, query, candidates, query.timestamp)

    def params_manifest(self):
        return {
            "scorer": self.name,
            "key_mode": self.memory.key_mode,
            "window": self.memory.window,
        }


def validation_window(boundaries) -> int:
    """Default EdgeBank time window: the duration of the validation split."""
    return boundaries.valid_end - boundaries.train_end


# -- recurrence baseline -----------------------------------------------------------


@dataclass(frozen=True)
class RecurrencyParams:
    """Decay rate, strict/relaxed mixing weight, and history window (0 = unbounded)."""

    lam: float = 0.1
    alpha: float = 0.99
    window: int = 0

    def __post_init__(self):
        if not self.lam >= 0:  # also rejects NaN
            raise ConfigError("lambda must be >= 0")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must be in [0, 1]")
        if self.window < 0:
            raise ConfigError("window must be >= 0")


class HistoryIndex:
    """Incrementally updatable record of past (s, r, o, t) occurrences.

    ``latest`` is the triple-mode :class:`EdgeBankMemory` of the strict term.
    For the relaxed term the ``_relations``, ``_objects`` and ``_times``
    columns hold every occurrence sorted by (relation, arrival order).

    Append-only with non-decreasing timestamps. Scoring at time t demands
    ``high_water < t``, which makes it impossible for a score to depend on
    facts at or after the query timestamp.
    """

    def __init__(self):
        self.latest = EdgeBankMemory("triple")
        self._relations = self._objects = self._times = _EMPTY
        self.high_water = None

    def observe(self, quads: TemporalMultiGraph) -> None:
        if len(quads) == 0:
            return
        if self.high_water is not None and quads.t_min < self.high_water:
            raise ProtocolError(
                f"observations must arrive in ascending time order "
                f"({quads.t_min} after {self.high_water})"
            )
        self.latest.observe(quads)
        self.high_water = quads.t_max
        order = np.argsort(quads.relations, kind="stable")
        at = np.searchsorted(self._relations, quads.relations[order], side="right")
        self._relations = np.insert(self._relations, at, quads.relations[order])
        self._objects = np.insert(self._objects, at, quads.objects[order])
        self._times = np.insert(self._times, at, quads.timestamps[order])

    def relation_counts(self, relation: int, t_now: int, window: int) -> np.ndarray:
        """Per-node object counts of ``relation``, from ``t_now - window`` on if window > 0."""
        lo, hi = np.searchsorted(self._relations, (relation, relation + 1))
        if window > 0:
            lo += np.searchsorted(self._times[lo:hi], t_now - window)
        return np.bincount(self._objects[lo:hi], minlength=self.latest.node_count)


def recurrency_score(
    index: HistoryIndex,
    params: RecurrencyParams | Sequence[RecurrencyParams],
    query: EvalQuery,
    candidates: np.ndarray,
) -> np.ndarray:
    """Mix strict (recency-decayed) and relaxed (frequency) recurrence scores.

    ``params`` is one :class:`RecurrencyParams`, giving one score per
    candidate, or a sequence of them, giving one row of scores per entry.
    Rows share the history lookup, rows with the same window the relaxed
    term, and rows with the same (lambda, window) the strict term, so each
    row is bitwise what its parameters score alone.

    With nothing observed for any candidate the result is all zeros, a full
    tie resolved by the engine's average-rank rule.
    """
    t = query.timestamp
    if index.high_water is not None and index.high_water >= t:
        raise ProtocolError(
            f"causality: index high-water {index.high_water} >= query time {t}"
        )
    single = isinstance(params, RecurrencyParams)
    candidates = np.asarray(candidates, dtype=np.int64)
    seen, last = index.latest.lookup(query.source, query.relation, candidates)
    gaps = t - last
    strict, relaxed, scores = {}, {}, []
    for p in [params] if single else params:
        key = p.lam, p.window
        if key not in strict:
            strict[key] = _strict_term(seen, gaps, p.lam, p.window)
        if p.window not in relaxed:
            relaxed[p.window] = _relaxed_term(index, query.relation, t, candidates, p.window)
        scores.append(p.alpha * strict[key] + (1.0 - p.alpha) * relaxed[p.window])
    return scores[0] if single else np.array(scores)


def _strict_term(seen, gaps, lam, window) -> np.ndarray:
    if window > 0:
        seen = seen & (gaps <= window)
    strict = np.zeros(len(seen), dtype=np.float64)
    # Python's float power over the seen candidates only: numpy's vectorised
    # power may round differently on some CPUs, and scores stay bit-exact
    strict[seen] = [2.0 ** (-lam * gap) for gap in gaps[seen].tolist()]
    return strict


def _relaxed_term(index, relation, t, candidates, window) -> np.ndarray:
    counts = index.relation_counts(relation, t, window)
    denom = counts.max(initial=0)
    relaxed = np.zeros(len(candidates), dtype=np.float64)
    if denom > 0:
        inside = (candidates >= 0) & (candidates < len(counts))
        relaxed[inside] = counts[candidates[inside]] / denom
    return relaxed


class RecurrencyScorer(Scorer):
    """The recurrence baseline as an evaluation-engine scorer."""

    name = "recurrency"

    def __init__(self, params: RecurrencyParams | None = None):
        self.params = params or RecurrencyParams()
        self.index = HistoryIndex()

    def fit(self, history, static_context=None):
        self.index.observe(history)

    def observe(self, quads):
        self.index.observe(quads)

    def score_query(self, query, candidates):
        return recurrency_score(self.index, self.params, query, candidates)

    def params_manifest(self):
        return {
            "scorer": self.name,
            "formula": RECURRENCY_FORMULA,
            "lambda": self.params.lam,
            "alpha": self.params.alpha,
            "window": self.params.window,
        }


class _GridScorer(RecurrencyScorer):
    """Every grid point at once: one row of scores per :class:`RecurrencyParams`."""

    def __init__(self, rows):
        super().__init__()
        self.params = rows


def grid_search_recurrency(
    train: TemporalMultiGraph,
    valid: TemporalMultiGraph,
    negatives: NegativeSampleSet,
    full_graph: TemporalMultiGraph,
    lam_grid=DEFAULT_LAMBDA_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
    window_grid=DEFAULT_WINDOW_GRID,
    ks=DEFAULT_KS,
    kind: str | None = None,
) -> RecurrencyParams:
    """Pick the validation-MRR argmax over the parameter grid.

    Every combination is validated before any work, then one replay of the
    single-step protocol on the validation split scores all of them: each
    combination's result equals a separate run of its own scorer. Exact MRR
    ties break toward smaller lambda, then larger alpha, then smaller window.
    """
    combos = sorted(
        itertools.product(lam_grid, alpha_grid, window_grid),
        key=lambda c: (c[0], -c[1], c[2]),
    )
    if not combos:
        raise ConfigError("parameter grid is empty")
    rows = [RecurrencyParams(lam, alpha, window) for lam, alpha, window in combos]
    results = evaluate_single_step(
        _GridScorer(rows), train, valid, negatives, full_graph, ks, kind
    )
    if not isinstance(results, tuple):  # no validation query was scored
        results = (results,) * len(rows)
    best_params = None
    best_mrr = -1.0
    for params, result in zip(rows, results):
        if result.mrr > best_mrr:
            best_mrr = result.mrr
            best_params = params
    return best_params
