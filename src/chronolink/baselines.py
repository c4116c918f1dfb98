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
its relaxed term reads one sparse table of object frequencies per (relation,
timestamp, window).

Both scorers score exactly 0.0 on every node they have not seen, so each
gives the engine a support (:meth:`Scorer.support`): EdgeBank its key's
active destinations, the recurrence baseline its relation's observed objects.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ProtocolError
from .evaluation import Scorer, evaluate_single_step
from .graph import TemporalMultiGraph, run_starts
from .negatives import EvalQuery, NegativeSampleSet, NegativeSetFile

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
    are a contiguous run found by binary search. The code widths are those
    of the first graph observed into the empty table.

    The run of every key looked up is kept until the next :meth:`observe`,
    so naming a timestamp's supports and then scoring its queries searches
    the table once per key.
    """

    def __init__(self, key_mode: str = "pair"):
        if key_mode not in ("pair", "triple"):
            raise ConfigError(f"key_mode must be pair or triple, got {key_mode!r}")
        self.key_mode = key_mode
        self.node_count = 0
        self.relation_count = 0
        self._codes = _EMPTY
        self._times = _EMPTY
        self._runs = {}  # (subject, relation) -> its run, since the last observe

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
        order = np.argsort(codes)
        codes = codes[order]
        starts = np.flatnonzero(run_starts(codes))
        codes = codes[starts]
        # a code seen at several timestamps keeps the latest
        times = np.maximum.reduceat(graph.timestamps[order], starts) if len(starts) else _EMPTY
        at = np.searchsorted(self._codes, codes)
        present = np.searchsorted(self._codes, codes, side="right") > at
        self._times = self._times.copy()  # a held destinations() snapshot keeps its times
        self._times[at[present]] = times[present]
        new = ~present
        self._codes, self._times = _insert_sorted(
            at[new], (self._codes, self._times), (codes[new], times[new]))
        self._times.setflags(write=False)
        self._runs.clear()

    def _located(self, subject: int, relation: int) -> tuple:
        """:meth:`_run` of the key, searched once until the next observation."""
        run = self._runs.get((subject, relation))
        if run is None:
            run = self._runs[subject, relation] = self._run(subject, relation)
        return run

    def _run(self, subject: int, relation: int) -> tuple:
        """(lo, hi, base): the key's codes are ``_codes[lo:hi]``, each ``base + destination``."""
        base = self._keys(subject, relation) * self.node_count
        lo = hi = 0
        if self.key_mode == "pair" or 0 <= relation < self.relation_count:
            lo, hi = self._codes.searchsorted((base, base + self.node_count)).tolist()
        return lo, hi, base

    def destinations(self, subject: int, relation: int) -> tuple:
        """(sorted destinations, last-seen time of each) of the key's run: a
        snapshot that no later :meth:`observe` changes and that cannot be
        written into the table through."""
        lo, hi, base = self._located(subject, relation)
        return self._codes[lo:hi] - base, self._times[lo:hi]

    def lookup(self, subject: int, relation: int, candidates) -> tuple:
        """(seen mask, last-seen time) per candidate; times count only where seen.

        Each candidate is binary-searched in the key's run.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        lo, hi, base = self._located(subject, relation)
        if lo == hi:
            return np.zeros(len(candidates), dtype=bool), np.zeros(len(candidates), dtype=np.int64)
        codes, times = self._codes[lo:hi], self._times[lo:hi]
        targets = candidates + base
        at = codes.searchsorted(targets)
        seen = codes.take(at, mode="clip") == targets
        return seen, times.take(at, mode="clip")


def _insert_sorted(at, columns, values) -> tuple:
    """Each column with its values inserted before the positions ``at``, as
    ``np.insert`` does, or the values themselves into empty columns. ``at``
    must not decrease, so unlike ``np.insert`` this never sorts it."""
    if len(columns[0]) == 0:
        return tuple(values)
    to = at + np.arange(len(at))  # where each new value lands
    kept = np.ones(len(columns[0]) + len(at), dtype=bool)
    kept[to] = False
    merged = []
    for column, value in zip(columns, values):
        out = np.empty(len(kept), dtype=np.int64)
        out[to] = value
        out[kept] = column
        merged.append(out)
    return tuple(merged)


class EdgeBankScorer(Scorer):
    """EdgeBank as an evaluation-engine scorer.

    The default pair keying deliberately omits edge-type information; triple
    keying is exposed for ablation. ``window=None`` is the unbounded variant;
    otherwise a key is active at time t iff it was last seen at or after
    ``t - window``.
    """

    def __init__(self, key_mode: str = "pair", window: int | None = None):
        if window is not None and window < 0:
            raise ConfigError("window must be non-negative")
        self.memory = EdgeBankMemory(key_mode)
        self.window = window
        self.name = "edgebank-inf" if window is None else "edgebank-tw"

    def fit(self, history, static_context=None):
        self.memory.observe(history)

    def observe(self, quads):
        self.memory.observe(quads)

    def _active(self, last: np.ndarray, t_now: int):
        """Which last-seen times are inside the window at t_now; None without one."""
        return None if self.window is None else last >= t_now - self.window

    def score_query(self, query, candidates):
        """1.0 for candidates whose key is active at the query time, else 0.0."""
        seen, last = self.memory.lookup(query.source, query.relation, candidates)
        active = self._active(last, query.timestamp)
        return (seen if active is None else seen & active).astype(np.float64)

    def support(self, query):
        """The key's active destinations."""
        destinations, last = self.memory.destinations(query.source, query.relation)
        active = self._active(last, query.timestamp)
        return destinations if active is None else destinations[active]

    def params_manifest(self):
        return {
            "scorer": self.name,
            "key_mode": self.memory.key_mode,
            "window": self.window,
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
        self._frequencies = {}  # (relation, t_now, window) -> object_frequencies(...)

    def observe(self, quads: TemporalMultiGraph) -> None:
        if len(quads) == 0:
            return
        if self.high_water is not None and quads.t_min < self.high_water:
            raise ProtocolError(
                f"observations must arrive in ascending time order "
                f"({quads.t_min} after {self.high_water})"
            )
        bits = len(quads).bit_length()
        if quads.relation_count << bits >= 2**63:
            raise DataError(f"{quads.relation_count} relations and {len(quads)} rows "
                            "overflow int64 codes")
        self.latest.observe(quads)
        self.high_water = quads.t_max
        self._frequencies.clear()
        # (relation, row) in one int64: one unstable sort orders by relation, then arrival
        key = quads.relations << bits
        key |= np.arange(len(quads))
        key.sort()
        rows = key & ((1 << bits) - 1)
        relations = key >> bits
        at = np.searchsorted(self._relations, relations, side="right")
        self._relations, self._objects, self._times = _insert_sorted(
            at, (self._relations, self._objects, self._times),
            (relations, quads.objects[rows], quads.timestamps[rows]))

    def object_frequencies(self, relation: int, t_now: int, window: int) -> tuple:
        """(ids, fractions): the sorted distinct objects of ``relation``, from
        ``t_now - window`` on if window > 0, and each one's count divided by
        the largest count.

        Built once per (relation, t_now, window) until the next observation.
        """
        key = relation, t_now, window
        if key not in self._frequencies:
            lo, hi = np.searchsorted(self._relations, (relation, relation + 1))
            if window > 0:
                lo += np.searchsorted(self._times[lo:hi], t_now - window)
            counts = np.bincount(self._objects[lo:hi])
            ids = (counts > 0).nonzero()[0]
            counts = counts[ids]
            self._frequencies[key] = ids, counts / counts.max(initial=1)
        return self._frequencies[key]


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
    ids, fractions = index.object_frequencies(relation, t, window)
    if len(ids) == 0:
        return np.zeros(len(candidates), dtype=np.float64)
    at = np.searchsorted(ids, candidates)
    # an unseen candidate's fraction is multiplied by False: exactly 0.0
    return fractions.take(at, mode="clip") * (ids.take(at, mode="clip") == candidates)


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

    def support(self, query):
        """The relation's objects inside the widest window of any row: outside
        them every row's strict and relaxed terms are 0."""
        rows = [self.params] if isinstance(self.params, RecurrencyParams) else self.params
        windows = [p.window for p in rows]
        widest = 0 if 0 in windows else max(windows)
        return self.index.object_frequencies(query.relation, query.timestamp, widest)[0]

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
    negatives: NegativeSampleSet | NegativeSetFile,
    full_graph: TemporalMultiGraph,
    lam_grid=DEFAULT_LAMBDA_GRID,
    alpha_grid=DEFAULT_ALPHA_GRID,
    window_grid=DEFAULT_WINDOW_GRID,
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
        _GridScorer(rows), train, valid, negatives, full_graph, kind=kind
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
