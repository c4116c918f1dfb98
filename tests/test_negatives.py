import hashlib
import re
import struct
import tracemalloc
import warnings
import zlib
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    ConfigError,
    CorruptionError,
    DataError,
    EvalQuery,
    FormatError,
    NegativeSampleSet,
    Provenance,
    SynthConfig,
    add_inverse_relations,
    all_candidates,
    chronological_split,
    collect_tail_pools,
    expand_queries,
    from_quadruples,
    generate,
    generate_all,
    generate_negative_set,
    open_negative_set,
    read_negative_set,
    write_negative_set,
)
from chronolink import negatives
from conftest import G4_QUADS, first_out_of_order, write_records


def _tkg_setup(seed=0, **overrides):
    cfg = SynthConfig(node_count=30, relation_count=3, timestep_count=30, rate=5,
                      p_rep=0.4, seed=seed, **overrides)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    universe = add_inverse_relations(g)
    queries = expand_queries(test, "tkg")
    return g, universe, queries


def _thg_setup(seed=0):
    cfg = SynthConfig(node_count=24, relation_count=2, timestep_count=30,
                      node_type_count=2, rate=5, p_rep=0.4, seed=seed)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    queries = expand_queries(test, "thg")
    return g, queries


# -- tail pools ------------------------------------------------------------------------


def test_g4_pools(g4):
    pools = collect_tail_pools(g4)
    assert pools[0].tolist() == [1]
    assert pools[1].tolist() == [3]


def test_unused_relation_has_no_pool(g4):
    g = from_quadruples([(0, 0, 1, 0)], node_count=2, relation_count=5)
    pools = collect_tail_pools(g)
    assert set(pools) == {0}


@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_tail_pools_equal_an_np_unique_reference(rows):
    rng = np.random.default_rng(rows)
    quads = [tuple(q) for q in rng.integers(0, [40, 6, 40, 9], size=(rows, 4)).tolist()]
    g = from_quadruples(quads, node_count=40, relation_count=6)
    want = {}
    for code in np.unique(g.relations * 40 + g.objects).tolist():
        want.setdefault(code // 40, []).append(code % 40)
    got = collect_tail_pools(g)
    assert list(got) == list(want)
    assert all(got[r].dtype == np.int64 and got[r].tolist() == want[r] for r in want)


def test_inverse_pool_is_subject_set(g4):
    aug = add_inverse_relations(g4)
    pools = collect_tail_pools(aug)
    for r in range(2):
        subjects = np.unique(g4.subjects[g4.relations == r])
        assert pools[r + 2].tolist() == subjects.tolist()


# -- strategy contracts ------------------------------------------------------------------


def test_type_aware_pads_outside_pool(g4):
    aug = add_inverse_relations(g4)
    query = EvalQuery(0, 0, 3, 1)
    ns = generate_negative_set("type-aware", aug, [query], q=2, seed=0)
    cands = ns.candidates[0]
    # pool(0) \ {truth} is empty; padding comes from {0, 2, 3} minus conflicts
    assert len(cands) == 2
    assert set(cands.tolist()) <= {0, 2, 3}
    assert 1 not in cands


def test_type_aware_exhaustive_equals_all(g4):
    aug = add_inverse_relations(g4)
    query = EvalQuery(0, 0, 3, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ns = generate_negative_set("type-aware", aug, [query], q=10, seed=0)
    assert ns.candidates[0].tolist() == all_candidates(aug, query).tolist()


def test_q_clamped_with_warning(g4):
    aug = add_inverse_relations(g4)
    with pytest.warns(UserWarning, match="clamped"):
        ns = generate_negative_set("type-aware", aug, [EvalQuery(0, 0, 3, 1)], q=99, seed=0)
    assert ns.q == 3


def test_type_aware_prefers_pool_members():
    # pool for relation 0 is huge; all q candidates must come from it
    quads = [(0, 0, i, 0) for i in range(1, 20)] + [(5, 0, 6, 9)]
    g = from_quadruples(quads, node_count=25, relation_count=1)
    query = EvalQuery(5, 0, 9, 6)
    ns = generate_negative_set("type-aware", g, [query], q=8, seed=3)
    pool = set(collect_tail_pools(g)[0].tolist())
    assert set(ns.candidates[0].tolist()) <= pool - {6}


def test_node_type_closure_and_short_lists():
    g, queries = _thg_setup()
    ns = generate_negative_set("node-type", g, queries, q=20, seed=1)
    types = g.node_types
    for query, cands in zip(ns.queries, ns.candidates):
        assert all(types[c] == types[query.true_destination] for c in cands.tolist())
        same_type_total = int(np.count_nonzero(types == types[query.true_destination]))
        # no cross-type padding: never more than the same-type universe minus truth
        assert len(cands) <= min(20, same_type_total - 1)


def test_node_type_small_universe_emits_everything():
    # 6 nodes of the truth's type; q=20 must yield at most 5 candidates
    quads = [(0, 0, 1, t) for t in range(3)] + [(2, 0, 3, 1)]
    types = [0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    g = from_quadruples(quads, node_count=12, relation_count=1, node_types=types)
    query = EvalQuery(0, 0, 2, 1)
    with pytest.warns(UserWarning, match="clamped"):
        ns = generate_negative_set("node-type", g, [query], q=20, seed=0)
    expected = {3, 4, 5, 6, 7}  # type-1 nodes minus the truth
    assert set(ns.candidates[0].tolist()) == expected


def test_node_type_at_node_count_minus_one_keeps_every_same_type_node():
    g, queries = _thg_setup()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # node_count - 1 is never clamped
        ns = generate_negative_set("node-type", g, queries, q=g.node_count - 1, seed=1)
    assert ns.q == g.node_count - 1
    types = g.node_types
    for query, cands in zip(ns.queries, ns.candidates):
        universe = all_candidates(g, query)
        same = [c for c in universe.tolist() if types[c] == types[query.true_destination]]
        assert cands.tolist() == same


def test_node_type_requires_types(g4):
    with pytest.raises(DataError):
        generate_negative_set("node-type", g4, [EvalQuery(0, 0, 3, 1)], q=2, seed=0)


def test_random_full_coverage_equals_all(g4):
    aug = add_inverse_relations(g4)
    query = EvalQuery(0, 0, 3, 1)
    ns = generate_negative_set("random", aug, [query], q=3, seed=5)
    assert ns.candidates[0].tolist() == all_candidates(aug, query).tolist()


def test_all_strategy_universe(g4):
    aug = add_inverse_relations(g4)
    queries = expand_queries(g4.time_slice(3, 3), "tkg")
    ns = generate_all(aug, queries)
    for query, cands in zip(ns.queries, ns.candidates):
        assert query.true_destination not in cands.tolist()
        for c in cands.tolist():
            assert query.true_destination != c
            assert c not in aug.objects_at(query.source, query.relation, query.timestamp)


def test_queries_must_match_relation_space(g4):
    queries = expand_queries(g4.time_slice(3, 3), "tkg")  # relations up to 2R
    with pytest.raises(DataError, match="inverse-augmented"):
        generate_negative_set("type-aware", g4, queries, q=2, seed=0)


@pytest.mark.parametrize("strategy", ["type-aware", "node-type", "random", "all"])
@pytest.mark.parametrize("field,value,match", [
    ("true_destination", 4, "node space"),
    ("true_destination", -1, "node space"),
    ("source", 7, "node space"),
    ("source", -2, "node space"),
    ("relation", -1, "relation space"),
])
def test_query_ids_outside_the_graph_are_data_errors(strategy, field, value, match):
    g = from_quadruples(G4_QUADS, node_count=4, relation_count=2, node_types=[0, 0, 1, 1])
    query = EvalQuery(0, 0, 3, 1)._replace(**{field: value})
    with pytest.raises(DataError, match=match):
        generate_negative_set(strategy, g, [EvalQuery(2, 1, 3, 3), query], q=2, seed=0)


# -- cross-strategy invariants -------------------------------------------------------------


@pytest.mark.parametrize("strategy,q", [("type-aware", 5), ("random", 5)])
def test_subset_of_all_universe(strategy, q):
    g, universe, queries = _tkg_setup()
    ns = generate_negative_set(strategy, universe, queries, q=q, seed=7)
    for query, cands in zip(ns.queries, ns.candidates):
        full = set(all_candidates(universe, query).tolist())
        assert set(cands.tolist()) <= full


def test_node_type_subset_of_all():
    g, queries = _thg_setup()
    ns = generate_negative_set("node-type", g, queries, q=5, seed=7)
    for query, cands in zip(ns.queries, ns.candidates):
        assert set(cands.tolist()) <= set(all_candidates(g, query).tolist())


@pytest.mark.parametrize("seed", range(5))
def test_conflict_freedom_exhaustive(seed):
    g, universe, queries = _tkg_setup(seed=seed)
    quadset = {(s, r, o, t) for s, r, o, t in universe}
    for strategy, q in (("type-aware", 6), ("random", 6), ("all", 0)):
        ns = generate_negative_set(strategy, universe, queries, q=q, seed=seed)
        for query, cands in zip(ns.queries, ns.candidates):
            for c in cands.tolist():
                assert (query.source, query.relation, c, query.timestamp) not in quadset
                assert c != query.true_destination


def test_candidates_sorted_strictly():
    g, universe, queries = _tkg_setup(seed=2)
    ns = generate_negative_set("type-aware", universe, queries, q=8, seed=11)
    for cands in ns.candidates:
        diffs = np.diff(cands)
        assert (diffs > 0).all() if len(cands) > 1 else True


def test_determinism_and_seed_dependence():
    g, universe, queries = _tkg_setup(seed=4)
    a = generate_negative_set("type-aware", universe, queries, q=6, seed=13)
    b = generate_negative_set("type-aware", universe, queries, q=6, seed=13)
    assert a == b
    c = generate_negative_set("type-aware", universe, queries, q=6, seed=14)
    assert c != a  # different seed, different draws


def test_seed_keyed_per_query_not_per_order():
    g, universe, queries = _tkg_setup(seed=5)
    full = generate_negative_set("random", universe, queries, q=4, seed=21)
    # generating a suffix of the queries must not change their draws
    tail = generate_negative_set("random", universe, queries[3:], q=4, seed=21)
    # indices shift, so draws legitimately differ; but regenerating the same
    # list is stable
    again = generate_negative_set("random", universe, queries, q=4, seed=21)
    assert full == again
    assert len(tail) == len(queries) - 3


# -- golden pins ---------------------------------------------------------------------------

# sha256 of the TMGNSET1 bytes per strategy on small seeded synthetic graphs.
# Any change to pools, exclusion, per-query draws, padding or the file layout
# moves these digests.
GOLDEN_SHA256 = {
    "all":
        "7735cfb33d0932b85e3d28ca8089596b57b18b4908bd52627d436381adbd2b46",
    "type-aware":
        "4d218812b04557e259b397186c3b9f3ef30aabf8e0dc6a8aa460f41d2b814f9d",
    "type-aware-padded":
        "8e5482a348f525d4fd127ddcb2ac4f49b22f528a16b78cd84a726d2329c11674",
    "type-aware-clamped":
        "9bd0e5ed5b6172e74e51329621e246e44f9cfe607a7bf72987292152563c6a89",
    "random":
        "380da850bdd1123fd84f96f09b8e2c23af72cc4bf09a68362f1a7f95a3d447df",
    "node-type":
        "d6f67f4babc88c4e173ae440b2026ffcd4cb0b5376437e446b78073c8c373470",
    "node-type-full":
        "f741681d73e0109d651303f2e44acf2a95a0c30c2640dd65c620ef239b441ac7",
}

# sha256 of the node-type-full set's columns: the lists of every same-type
# node that an unsampled node-type set holds
NODE_TYPE_FULL_COLUMNS = {
    "ids": "1c5f3c93114ee068998ac873f79225fb2ff6275937a9e929083c4f9a99b4d3e6",
    "offsets": "93dec5c78b2c81b8dc3f32041130eb461f2aabaf9386202724079b34638cb444",
    "table": "3d44be911acaa1042082a9118ff09d975cba4dff3c1ed17ab5dcac5d34aa28c8",
}


def _golden_set(case):
    provenance = Provenance("golden", "test")
    if case.startswith("node-type"):
        g, queries = _thg_setup(seed=3)
        q = g.node_count - 1 if case == "node-type-full" else 10
        return generate_negative_set("node-type", g, queries, q=q, seed=8,
                                     provenance=provenance)
    g, universe, queries = _tkg_setup(seed=3)
    strategy, q = {
        "all": ("all", 0),
        "type-aware": ("type-aware", 6),
        "type-aware-padded": ("type-aware", 20),
        "type-aware-clamped": ("type-aware", 99),
        "random": ("random", 6),
    }[case]
    return generate_negative_set(strategy, universe, queries, q=q, seed=8,
                                 provenance=provenance)


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_golden_negative_file_bytes(tmp_path, case):
    if case == "type-aware-clamped":
        with pytest.warns(UserWarning, match="clamped"):
            ns = _golden_set(case)
    else:
        ns = _golden_set(case)
    if case == "type-aware-padded":
        # the relation pools hold fewer than q conflict-free nodes for some
        # queries, so those lists are padded from outside the pool
        _, universe, _ = _tkg_setup(seed=3)
        pools = collect_tail_pools(universe)
        padded = [set(c.tolist()) - set(pools[query.relation].tolist())
                  for query, c in zip(ns.queries, ns.candidates)]
        assert any(padded)
    if case == "node-type-full":
        # the digests are of the int64 values, whatever dtype the set holds
        assert {name: hashlib.sha256(np.asarray(getattr(ns, name), np.int64).tobytes())
                .hexdigest() for name in NODE_TYPE_FULL_COLUMNS} == NODE_TYPE_FULL_COLUMNS
    path = tmp_path / "golden.bin"
    write_negative_set(ns, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[case]


# -- serialization ----------------------------------------------------------------------


def _roundtrip(ns, tmp_path, name="ns.bin"):
    path = tmp_path / name
    write_negative_set(ns, path)
    return path, read_negative_set(path)


def test_round_trip_equality(tmp_path):
    g, universe, queries = _tkg_setup(seed=6)
    ns = generate_negative_set(
        "type-aware", universe, queries, q=5, seed=3, provenance=Provenance("synthetic", "test")
    )
    _, back = _roundtrip(ns, tmp_path)
    assert back == ns
    assert back.provenance.dataset == "synthetic"
    assert back.queries == list(ns.queries) and back.queries == tuple(ns.queries)
    assert back.queries == ns.queries
    assert back.queries != list(ns.queries)[1:]


def test_all_strategy_round_trip(tmp_path):
    g, universe, queries = _tkg_setup(seed=9)
    ns = generate_all(universe, queries, Provenance("synthetic", "test"))
    assert ns.q == 0  # the "all nodes" strategy has no q
    path, back = _roundtrip(ns, tmp_path)
    assert back == ns


def test_write_is_deterministic(tmp_path):
    g, universe, queries = _tkg_setup(seed=6)
    ns = generate_negative_set("random", universe, queries, q=5, seed=3)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    write_negative_set(ns, p1)
    write_negative_set(ns, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_set_round_trip(tmp_path):
    ns = NegativeSampleSet("random", 5, 1, [], [], Provenance())
    path, back = _roundtrip(ns, tmp_path)
    assert len(back) == 0
    assert back.q == 5 and back.seed == 1


def test_bad_magic_is_format_error(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
    with pytest.raises(FormatError):
        read_negative_set(path)


def test_bad_version_is_format_error(tmp_path):
    g, universe, queries = _tkg_setup(seed=6)
    ns = generate_negative_set("random", universe, queries[:4], q=3, seed=3)
    path, _ = _roundtrip(ns, tmp_path)
    data = bytearray(path.read_bytes())
    data[8] = 99  # version word
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_negative_set(path)


def test_truncation_is_corruption_error(tmp_path):
    g, universe, queries = _tkg_setup(seed=6)
    ns = generate_negative_set("random", universe, queries[:4], q=3, seed=3)
    path, _ = _roundtrip(ns, tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CorruptionError):
        read_negative_set(path)


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_byte_flips_detected(tmp_path, seed):
    g, universe, queries = _tkg_setup(seed=1)
    ns = generate_negative_set("random", universe, queries[:6], q=4, seed=9)
    path = tmp_path / "fuzz.bin"
    write_negative_set(ns, path)
    data = bytearray(path.read_bytes())
    rng = np.random.default_rng(seed)
    pos = int(rng.integers(len(data)))
    data[pos] ^= 1 + int(rng.integers(255))
    path.write_bytes(bytes(data))
    # a flip in the magic/version words is a format error; anywhere else the
    # checksum catches it
    with pytest.raises((FormatError, CorruptionError)):
        read_negative_set(path)


def _with_crc(body) -> bytes:
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


# The reference follows the layout in the chronolink.negatives docstring one
# byte at a time.


def _ref_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _ref_encode(ns) -> bytes:
    out = bytearray(b"TMGNSET1")
    out += struct.pack("<HBBQQQ", 1, negatives.STRATEGIES.index(ns.strategy), 0, ns.q, ns.seed, len(ns))
    for text in (ns.provenance.dataset, ns.provenance.split, ns.provenance.generator):
        data = text.encode("utf-8")
        out += struct.pack("<H", len(data)) + data
    for query, cands in zip(ns.queries, ns.candidates):
        zigzag = 2 * query.timestamp if query.timestamp >= 0 else -2 * query.timestamp - 1
        for value in (query.source, query.relation, zigzag, query.true_destination):
            _ref_varint(out, value)
        out.append(("tail", "head").index(query.direction))
        ids = cands.tolist()
        _ref_varint(out, len(ids))
        for value in ids[:1] + [b - a for a, b in zip(ids, ids[1:])]:
            _ref_varint(out, value)
    return _with_crc(out)


def _ref_decode(data: bytes) -> NegativeSampleSet:
    pos = 0

    def take(n):
        nonlocal pos
        pos += n
        return data[pos - n : pos]

    def varint():
        value = shift = 0
        while True:
            byte = take(1)[0]
            value |= (byte & 0x7F) << shift
            shift += 7
            if byte < 0x80:
                return value

    def string():
        (length,) = struct.unpack("<H", take(2))
        return take(length).decode("utf-8")

    assert take(8) == b"TMGNSET1"
    _version, strategy, _reserved, q, seed, count = struct.unpack("<HBBQQQ", take(28))
    provenance = Provenance(string(), string(), string())
    queries, candidates = [], []
    for _ in range(count):
        source, relation, zigzag, truth = varint(), varint(), varint(), varint()
        direction = ("tail", "head")[take(1)[0]]
        steps = [varint() for _ in range(varint())]
        queries.append(EvalQuery(source, relation, (zigzag >> 1) ^ -(zigzag & 1), truth,
                                 direction))
        candidates.append(np.array(list(accumulate(steps)), dtype=np.int64))
    assert struct.unpack("<I", data[pos:]) == (zlib.crc32(data[:pos]),)
    return NegativeSampleSet(negatives.STRATEGIES[strategy], q, seed, queries, candidates, provenance)


@pytest.mark.parametrize("record,match", [
    # would reach a multi-terabyte allocation
    pytest.param((0, 0, 0, 1, 0, 10**12, 2), "candidate count",
                 id="1000000000000-2-candidate count"),
    pytest.param((0, 0, 0, 1, 0, 1, 2**63), "int64 range",
                 id="1-9223372036854775808-int64 range"),
    # a zero gap would load as the duplicate ids [2, 2]
    pytest.param((0, 0, 0, 1, 0, 2, 2, 0), "strictly increasing", id="zero-gap"),
    pytest.param((2**64, 0, 0, 1, 0, 1, 2), "int64 range", id="source-2**64"),
    pytest.param((0, 0, 0, 2**63, 0, 1, 2), "int64 range", id="truth-2**63"),
    pytest.param((0, 0, 0, 1, 0, 2, 2**62, 2**62), "int64 range", id="id-sum-2**63"),
    pytest.param((0, 0, 0, 1, 0, 2, 1, 2**64 - 1), "int64 range", id="gap-2**64-1"),
    pytest.param((0, 0, 0, 1, 2, 1, 2), "direction", id="direction-2"),
    # direction 0 spelled as a two-byte varint
    pytest.param((0, 0, 0, 1, b"\x80\x00", 1, 2), "malformed varint", id="overlong"),
    pytest.param((0, 0, 0, 1, 0, 1, 2) * 2, "trailing bytes", id="extra-record"),
])
def test_crafted_record_is_corruption_error(tmp_path, record, match):
    ns = NegativeSampleSet("random", 1, 0, [EvalQuery(0, 0, 0, 1)],
                           [np.array([2], dtype=np.int64)])
    path, _ = _roundtrip(ns, tmp_path)
    body = bytearray(path.read_bytes()[:-4])
    assert body[-7:] == bytes([0, 0, 0, 1, 0, 1, 2])  # fields, count 1, then id 2
    del body[-7:]
    for value in record:
        if isinstance(value, bytes):
            body += value
        else:
            _ref_varint(body, value)
    path.write_bytes(_with_crc(body))
    with pytest.raises(CorruptionError, match=match):
        read_negative_set(path)


@pytest.mark.parametrize("count", [2, 2**63, 2**64 - 1])
def test_header_count_beyond_the_file_is_corruption_error(tmp_path, count):
    # a file of one record claiming more; never an allocation sized by the claim
    ns = NegativeSampleSet("random", 1, 0, [EvalQuery(0, 0, 0, 1)],
                           [np.array([2], dtype=np.int64)])
    path, _ = _roundtrip(ns, tmp_path)
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into("<Q", body, 28, count)  # the header's record count
    path.write_bytes(_with_crc(body))
    with pytest.raises(CorruptionError, match=f"record count {count} exceeds"):
        read_negative_set(path)


def test_decoded_set_holds_its_columns_and_little_more(tmp_path):
    rng = np.random.default_rng(4)
    n = 20_000
    queries = [EvalQuery(*fields, ("tail", "head")[head]) for *fields, head in zip(
        *rng.integers(0, 10**6, size=(4, n)).tolist(), rng.integers(0, 2, size=n).tolist())]
    lists = [np.sort(rng.choice(10**6, size=k, replace=False)) for k in rng.integers(0, 20, n)]
    ns = NegativeSampleSet("random", 20, 0, queries, lists)
    write_negative_set(ns, tmp_path / "ns.bin")
    tracemalloc.start()
    try:
        back = read_negative_set(tmp_path / "ns.bin")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == ns
    # tracemalloc sees the table and offsets, but not the ids column, which
    # lives in its own memory map; no per-record object may be left either way
    columns = 8 * (5 * n + n + 1 + sum(map(len, lists)))  # table, offsets, ids
    assert held <= columns + (64 << 10)


@pytest.mark.parametrize("query,ids,q,match", [
    pytest.param(EvalQuery(0, 0, 0, 1), [3, 2], 1, "strictly sorted", id="descending"),
    pytest.param(EvalQuery(0, 0, 0, 1), [2, 2], 1, "strictly sorted", id="duplicate"),
    pytest.param(EvalQuery(-1, 0, 0, 1), [2], 1, "non-negative", id="source--1"),
    pytest.param(EvalQuery(2**64, 0, 0, 1), [2], 1, "int64 range", id="source-2**64"),
    pytest.param(EvalQuery(0, 0, 0, 1, "up"), [2], 1, "directions", id="direction-up"),
    pytest.param(EvalQuery(0, 0, 0, 1), [2], -1, "uint64 range", id="q--1"),
    pytest.param(EvalQuery(0, 0, 0, 1), [2.5, 7.9], 1, "integer arrays", id="float-ids"),
])
def test_writer_refuses_unreadable_records(tmp_path, query, ids, q, match):
    # a record that int64 columns cannot hold (source-2**64, direction-up,
    # float-ids) is refused when the set is built, the others when written
    with pytest.raises(DataError, match=match):
        write_negative_set(NegativeSampleSet("random", q, 0, [query], [np.asarray(ids)]),
                           tmp_path / "ns.bin")
    assert not (tmp_path / "ns.bin").exists()


def test_mutations_with_valid_crc_fail_cleanly(tmp_path):
    g, universe, queries = _tkg_setup(seed=1)
    ns = generate_negative_set("random", universe, queries[:6], q=4, seed=9,
                         provenance=Provenance("synthetic", "test"))
    path, _ = _roundtrip(ns, tmp_path)
    body = path.read_bytes()[:-4]
    rng = np.random.default_rng(0)
    for _ in range(400):
        mutated = bytearray(body)
        for pos in rng.integers(len(mutated), size=int(rng.integers(1, 4))):
            mutated[pos] = int(rng.integers(256))
        path.write_bytes(_with_crc(mutated))
        try:
            read_negative_set(path)
        except (CorruptionError, FormatError):
            pass


@pytest.mark.parametrize("duplicated", [False, True], ids=["distinct", "duplicated"])
@pytest.mark.parametrize("built", ["constructor", "from_columns", "file"])
def test_records_in_another_order_make_the_canonical_set(tmp_path, built, duplicated):
    # a set in memory is put in canonical order; a file must hold it, so a
    # file in another order is refused, naming its first record out of order
    g, universe, queries = _tkg_setup(seed=2)
    ns = generate_negative_set("random", universe, queries, q=3, seed=0,
                               provenance=Provenance("synthetic", "test"))
    records = np.random.default_rng(0).permutation(len(ns))
    if duplicated:  # record 7 a second time, at the front
        records = np.concatenate([[7], records])
    if built == "file":
        write_records(ns, records, tmp_path / "foreign.bin")
        k = first_out_of_order(ns, records)
        with pytest.raises(CorruptionError, match=f"^negative record {k} is out of canonical "
                                                  f"order: {re.escape(str(queries[records[k]]))}$"):
            read_negative_set(tmp_path / "foreign.bin")
        return
    # the set's records are in canonical order, so sorted record numbers are too
    canonical = np.sort(records)
    want = NegativeSampleSet.from_columns(
        ns.strategy, ns.q, ns.seed, ns.table[:, canonical],
        *negatives._flatten([ns.candidates[k] for k in canonical]), ns.provenance)
    if built == "constructor":
        got = NegativeSampleSet(ns.strategy, ns.q, ns.seed, [queries[k] for k in records],
                                [ns.candidates[k] for k in records], ns.provenance)
    else:
        got = NegativeSampleSet.from_columns(
            ns.strategy, ns.q, ns.seed, ns.table[:, records],
            *negatives._flatten([ns.candidates[k] for k in records]), ns.provenance)
    assert got == want
    assert got.queries == [queries[k] for k in canonical]
    assert [c.tolist() for c in got.candidates] == [ns.candidates[k].tolist() for k in canonical]
    write_negative_set(got, tmp_path / "got.bin")
    write_negative_set(want, tmp_path / "want.bin")
    assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()


def test_columns_in_canonical_order_are_adopted_without_a_copy(monkeypatch):
    g, universe, queries = _tkg_setup(seed=2)
    ns = generate_negative_set("type-aware", universe, queries, q=3, seed=0)
    monkeypatch.setattr(negatives.np, "lexsort", None)  # nothing is sorted
    again = NegativeSampleSet.from_columns(ns.strategy, ns.q, ns.seed, ns.table, ns.offsets,
                                           ns.ids)
    assert again.table is ns.table and again.offsets is ns.offsets and again.ids is ns.ids
    lazy = generate_all(universe, queries, materialize=False)
    assert lazy.table is queries._table


def test_an_unmaterialized_all_set_implies_the_materialized_lists():
    g, universe, queries = _tkg_setup(seed=2)
    lazy = generate_all(universe, queries, materialize=False)
    eager = generate_all(universe, queries)
    assert lazy.candidates is None and lazy.queries == eager.queries
    assert [all_candidates(universe, query).tolist() for query in lazy.queries] == [
        c.tolist() for c in eager.candidates]


def test_unknown_strategy_rejected(g4):
    with pytest.raises(ConfigError):
        generate_negative_set("bogus", g4, [], q=1, seed=0)


def test_large_ids_round_trip(tmp_path):
    # multi-byte varints: million-scale node ids and billion-scale timestamps
    rng = np.random.default_rng(5)
    queries = []
    candidates = []
    for i in range(50):
        cands = np.sort(rng.choice(10_000_000, size=40, replace=False)).astype(np.int64)
        truth = int(cands[-1] + 1)
        queries.append(EvalQuery(int(rng.integers(5_000_000)), int(rng.integers(600)),
                                 int(rng.integers(2_000_000_000)), truth))
        candidates.append(cands)
    ns = NegativeSampleSet("random", 40, 123456789, queries, candidates)
    _, back = _roundtrip(ns, tmp_path)
    assert back == ns


def test_ids_are_int32_when_they_fit_and_files_do_not_depend_on_it(tmp_path):
    g, universe, queries = _tkg_setup(seed=6)
    narrow = generate_negative_set("type-aware", universe, queries, q=5, seed=3)
    assert narrow.ids.dtype == np.int32
    wide = NegativeSampleSet.from_columns(narrow.strategy, narrow.q, narrow.seed, narrow.table,
                                          narrow.offsets, narrow.ids.astype(np.int64))
    assert narrow == wide and wide == narrow
    for name, ns in (("narrow", narrow), ("wide", wide)):
        write_negative_set(ns, tmp_path / name)
    assert (tmp_path / "narrow").read_bytes() == (tmp_path / "wide").read_bytes()
    back = read_negative_set(tmp_path / "wide")
    assert back.ids.dtype == np.int32 and back == wide


@pytest.mark.parametrize("nodes,dtype", [(2**31, np.int32), (2**31 + 5, np.int64)])
def test_generated_ids_widen_past_two_to_the_31_nodes(nodes, dtype):
    g = from_quadruples([(0, 0, 1, 0), (2, 0, 3, 1), (5, 0, nodes - 1, 1)], node_count=nodes,
                        relation_count=1)
    ns = generate_negative_set("type-aware", g, expand_queries(g.time_slice(1, 1), "thg"),
                               q=3, seed=1)
    assert ns.ids.dtype == dtype
    assert ns.ids.max() == nodes - 1  # the padding reaches the last node


def test_a_read_column_widens_at_the_first_id_past_int32(tmp_path):
    # small ids first, so the int32 column is filled over several passes
    # before the id 2**31 widens it
    queries = [EvalQuery(k, 0, k, 0) for k in range(30)]
    lists = [np.arange(1, 9, dtype=np.int64) * (k + 1) for k in range(29)]
    ns = NegativeSampleSet("random", 8, 0, queries, lists + [np.array([5, 2**31])])
    write_negative_set(ns, tmp_path / "ns.bin")
    with mock.patch.object(negatives, "_BLOCK_BYTES", 16):
        back = read_negative_set(tmp_path / "ns.bin")
    assert back.ids.dtype == np.int64 and back == ns


def test_opening_checks_the_whole_file_and_decodes_no_record(tmp_path, monkeypatch):
    g, universe, queries = _tkg_setup(seed=6)
    ns = generate_negative_set("random", universe, queries, q=5, seed=3,
                               provenance=Provenance("synthetic", "test"))
    path = tmp_path / "ns.bin"
    write_negative_set(ns, path)
    monkeypatch.setattr(negatives, "_decode_block", None)
    opened = open_negative_set(path)
    assert (len(opened), opened.strategy, opened.q, opened.seed, opened.provenance) == (
        len(ns), ns.strategy, ns.q, ns.seed, ns.provenance)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1  # a record byte: the checksum finds it on opening
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptionError, match="checksum"):
        open_negative_set(path)


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_an_unreadable_path_is_data_error_naming_it(tmp_path, kind):
    path = tmp_path / "negatives"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(DataError, match=f"^{path}: "):
        open_negative_set(path)


def test_generators_take_the_query_table_as_it_is(monkeypatch):
    g, universe, queries = _tkg_setup(seed=6)
    want = generate_negative_set("type-aware", universe, list(queries), q=5, seed=3)
    # neither expanding the queries nor generating from them builds a query object
    monkeypatch.setattr(negatives, "_as_queries", None)
    monkeypatch.setattr(negatives, "EvalQuery", None)
    _, _, test, _ = chronological_split(generate(SynthConfig(
        node_count=30, relation_count=3, timestep_count=30, rate=5, p_rep=0.4, seed=6)))
    table = expand_queries(test, "tkg")
    assert generate_negative_set("type-aware", universe, table, q=5, seed=3) == want
    assert generate_all(universe, table, materialize=False).table is table._table


def test_zigzag_timestamps_round_trip(tmp_path):
    # negative timestamps survive serialization
    g = from_quadruples([(0, 0, 1, -5), (1, 0, 0, -3)], node_count=2, relation_count=1)
    query = EvalQuery(0, 0, -3, 1)
    ns = NegativeSampleSet("all", 0, 0, [query], [np.array([0], dtype=np.int64)])
    _, back = _roundtrip(ns, tmp_path)
    assert back.queries[0].timestamp == -3


# -- differential test against the scalar reference codec -------------------------------


_FIELD = st.integers(0, 2**63 - 1)
_RECORD = st.tuples(
    st.builds(EvalQuery, _FIELD, _FIELD, st.integers(-(2**63), 2**63 - 1), _FIELD,
              st.sampled_from(["tail", "head"])),
    st.lists(st.integers(0, 2**62), unique=True, max_size=12).map(
        lambda ids: np.array(sorted(ids), dtype=np.int64)),
)
_TEXT = st.text(st.characters(codec="utf-8"), max_size=6)


@st.composite
def _sample_sets(draw):
    records = draw(st.lists(_RECORD, max_size=10))
    return NegativeSampleSet(
        draw(st.sampled_from(negatives.STRATEGIES)),
        draw(st.integers(0, 2**64 - 1)),
        draw(st.integers(0, 2**64 - 1)),
        [query for query, _ in records],
        [ids for _, ids in records],
        Provenance(draw(_TEXT), draw(_TEXT), draw(_TEXT)),
    )


_EXTREMES = NegativeSampleSet(
    "node-type", 2**64 - 1, 0,
    [EvalQuery(2**63 - 1, 0, -(2**63), 2**63 - 1, "head"), EvalQuery(0, 1, 2**63 - 1, 0),
     EvalQuery(5, 2, -1, 3, "head")],
    [np.array([0, 2**62], dtype=np.int64), np.empty(0, dtype=np.int64),
     np.array([2**62], dtype=np.int64)],
    Provenance("ünï", "tëst", "gen-✓"),
)


# one record of 300 ids, each an eight-byte varint gap: 150 16-byte blocks long
_LONG = NegativeSampleSet(
    "random", 300, 1, [EvalQuery(1, 2, 3, 4), EvalQuery(5, 6, 7, 8, "head")],
    [np.arange(1, 301, dtype=np.int64) << 53, np.array([9], dtype=np.int64)],
)
# nine-byte ids and gaps near 2**62, cut by 12-byte blocks inside their varints
_STRADDLING = NegativeSampleSet(
    "type-aware", 3, 2,
    [EvalQuery(0, 0, t, 1) for t in range(4)],
    [np.array([1, 2**61, 2**62 - 1, 2**62], dtype=np.int64),
     np.array([2**62 - 3], dtype=np.int64),
     np.array([2**56, 2**62], dtype=np.int64),
     np.array([0, 2**62], dtype=np.int64)],
)


@settings(max_examples=150, deadline=None)
@given(ns=_sample_sets(), block_records=st.integers(1, 4), block_bytes=st.integers(1, 48))
@example(ns=NegativeSampleSet("random", 0, 0, [], []), block_records=1, block_bytes=1)
@example(ns=_EXTREMES, block_records=2, block_bytes=3)
@example(ns=_EXTREMES, block_records=256, block_bytes=1 << 14)
@example(ns=_LONG, block_records=1, block_bytes=16)
@example(ns=_STRADDLING, block_records=2, block_bytes=12)
def test_codec_matches_scalar_reference(tmp_path_factory, ns, block_records, block_bytes):
    # small blocks make records straddle block ends and outgrow whole blocks
    path = tmp_path_factory.mktemp("codec") / "ns.bin"
    with mock.patch.object(negatives, "_BLOCK_RECORDS", block_records), \
            mock.patch.object(negatives, "_BLOCK_BYTES", block_bytes):
        write_negative_set(ns, path)
        back = read_negative_set(path)
    data = path.read_bytes()
    assert data == _ref_encode(ns)
    assert back == ns
    assert _ref_decode(data) == ns


def test_decode_blocks_grow_to_the_longest_record_and_stay(tmp_path):
    # 40 records of about 60 bytes each, read in 16-byte blocks: once a
    # block holds a record, later records are not first tried in a smaller one
    ns = NegativeSampleSet("random", 30, 0, [EvalQuery(k, 0, k, 0) for k in range(40)],
                           [np.arange(1, 31, dtype=np.int64) * 200] * 40)
    path = tmp_path / "ns.bin"
    write_negative_set(ns, path)
    calls = []
    decode = negatives._decode_block
    with mock.patch.object(negatives, "_BLOCK_BYTES", 16), mock.patch.object(
            negatives, "_decode_block", lambda *a: calls.append(1) or decode(*a)):
        assert read_negative_set(path) == ns
    assert len(calls) < 40 + 4


def test_codec_matches_scalar_reference_at_default_blocks(tmp_path):
    # several encode and decode blocks, multi-byte ids and negative timestamps
    rng = np.random.default_rng(11)
    n = 700
    columns = zip(rng.integers(0, 2**40, n), rng.integers(0, 600, n),
                  rng.integers(-(2**41), 2**41, n), rng.integers(0, 2**40, n),
                  rng.integers(0, 2, n))
    queries = [EvalQuery(int(s), int(r), int(t), int(o), ("tail", "head")[d])
               for s, r, t, o, d in columns]
    candidates = [np.unique(rng.integers(0, 2**40, size=int(n)))
                  for n in rng.integers(0, 80, size=len(queries))]
    ns = NegativeSampleSet("random", 80, 2, queries, candidates, Provenance("ünï", "test"))
    path, back = _roundtrip(ns, tmp_path)
    assert len(path.read_bytes()) > 2 * negatives._BLOCK_BYTES
    assert len(ns) > 2 * negatives._BLOCK_RECORDS
    assert path.read_bytes() == _ref_encode(ns)
    assert back == ns


# -- the pool-index sampler against the setdiff1d reference ------------------------------


def _reference_rng(seed, query_index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, query_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _reference_draw(universe, table, q, seed, pools, pad):
    """The sampler as a per-query set difference: a fresh Philox per query."""
    everything = np.arange(universe.node_count, dtype=np.int64)
    bounds = pools.bounds.tolist()
    lists = []
    for i, (query, p) in enumerate(zip(negatives._as_queries(table), pools.of.tolist())):
        pool = pools.ids[bounds[p]:bounds[p + 1]]
        excluded = universe.objects_at(query.source, query.relation, query.timestamp)
        if query.true_destination not in excluded:
            excluded = np.append(excluded, query.true_destination)
        kept = np.setdiff1d(pool, excluded, assume_unique=True)
        if len(kept) > q:
            kept = np.sort(_reference_rng(seed, i).choice(kept, size=q, replace=False))
        elif pad and len(kept) < q:
            outside = np.setdiff1d(everything, np.union1d(pool, excluded), assume_unique=True)
            take = min(q - len(kept), len(outside))
            padding = _reference_rng(seed, i).choice(outside, size=take, replace=False)
            kept = np.sort(np.concatenate([kept, padding]))
        lists.append(kept)
    return negatives._flatten(lists)


@st.composite
def _sampler_cases(draw):
    nodes = draw(st.integers(2, 9))
    quad = st.tuples(st.integers(0, nodes - 1), st.integers(0, 1), st.integers(0, nodes - 1),
                     st.integers(0, 3))
    # few subjects and timestamps, so many queries have conflicts inside their pool
    quads = draw(st.lists(quad, min_size=1, max_size=30))
    types = draw(st.lists(st.integers(0, 2), min_size=nodes, max_size=nodes))
    g = from_quadruples(quads, node_count=nodes, relation_count=2, node_types=types)
    universe = add_inverse_relations(g)
    queries = list(expand_queries(g, "tkg"))
    # truths anywhere, so some lie outside their relation's tail pool
    queries += [EvalQuery(*args) for args in draw(st.lists(
        st.tuples(st.integers(0, nodes - 1), st.integers(0, 3), st.integers(0, 4),
                  st.integers(0, nodes - 1)), max_size=8))]
    q = draw(st.integers(1, nodes + 2))  # above node_count - 1 it is clamped
    seed = draw(st.sampled_from([0, 7, -1, 2**64 - 1, 2**40 + 3]))
    return universe, queries, q, seed


_SAMPLERS = {
    "type-aware": lambda u, qs, q, seed: generate_negative_set("type-aware", u, qs, q, seed),
    "node-type": lambda u, qs, q, seed: generate_negative_set("node-type", u, qs, q, seed),
    "random": lambda u, qs, q, seed: generate_negative_set("random", u, qs, q, seed),
    "all": lambda u, qs, q, seed: generate_all(u, qs),
}


def _assert_sampler_equals_reference(case):
    universe, queries, q, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q clamped to node_count - 1
        for strategy, sample in _SAMPLERS.items():
            got = sample(universe, queries, q, seed).candidates
            with mock.patch.object(negatives, "_draw", _reference_draw):
                want = sample(universe, queries, q, seed).candidates
            assert len(got) == len(want)
            for i, (a, b) in enumerate(zip(got, want)):
                assert np.array_equal(a, b), (strategy, i)


def test_pool_index_sampler_equals_reference_on_a_synthetic_split():
    """Padded and sampled lists of a desk-like graph, both paths exercised."""
    g, universe, queries = _tkg_setup(seed=4)
    for q in (3, 12, 29):
        got = generate_negative_set("type-aware", universe, queries, q, 11).candidates
        with mock.patch.object(negatives, "_draw", _reference_draw):
            want = generate_negative_set("type-aware", universe, queries, q, 11).candidates
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(got) == len(want) == len(queries)


@settings(max_examples=120, deadline=None)
@given(case=_sampler_cases())
def test_pool_index_sampler_equals_setdiff_reference(case):
    _assert_sampler_equals_reference(case)


# chunk bounds so small that a chunk holds one or a few lists
_SMALL_CHUNKS = [1, 2, 7]


@pytest.mark.parametrize("cells", _SMALL_CHUNKS)
@settings(max_examples=120, deadline=None)
@given(case=_sampler_cases())
def test_sampler_equals_setdiff_reference_across_small_chunks(cells, case):
    with mock.patch.object(negatives, "_CHUNK_CELLS", cells):
        _assert_sampler_equals_reference(case)


@pytest.mark.parametrize("cells", _SMALL_CHUNKS)
def test_sampler_equals_reference_on_a_synthetic_split_across_small_chunks(cells):
    with mock.patch.object(negatives, "_CHUNK_CELLS", cells):
        test_pool_index_sampler_equals_reference_on_a_synthetic_split()


def test_one_chunk_mixes_sampled_kept_padded_and_empty_pool_lists():
    # relation 0's pool is 0..7, relation 1's 8..10, relation 2's 11, relation 3 has none
    quads = [(0, 0, o, 0) for o in range(8)] + [(1, 1, o, 0) for o in (8, 9, 10)] + [(2, 2, 11, 0)]
    universe = from_quadruples(quads, node_count=12, relation_count=4)
    queries = [
        EvalQuery(5, 0, 1, 0),   # 7 kept > q: sampled
        EvalQuery(5, 1, 1, 0),   # 3 kept == q: every kept member
        EvalQuery(5, 2, 1, 11),  # 0 kept < q: padded from outside the pool
        EvalQuery(5, 3, 1, 4),   # empty pool: all padding
        EvalQuery(0, 0, 0, 0),   # every pool member a conflict or the truth: padded
        EvalQuery(1, 1, 0, 8),   # likewise: the truth is among the conflicts
        EvalQuery(2, 2, 0, 11),  # one pool member, the truth: padded
    ]
    ns = generate_negative_set("type-aware", universe, queries, q=3, seed=2)
    with mock.patch.object(negatives, "_draw", _reference_draw):
        want = generate_negative_set("type-aware", universe, queries, q=3, seed=2)
    assert np.array_equal(ns.offsets, want.offsets) and np.array_equal(ns.ids, want.ids)
    assert list(map(len, ns.candidates)) == [3] * 7
    lists = {query: ids.tolist() for query, ids in zip(ns.queries, ns.candidates)}
    assert lists[queries[1]] == [8, 9, 10]
    assert set(lists[queries[0]]) <= set(range(1, 8))
    assert set(lists[queries[4]]) <= {8, 9, 10, 11}
    assert not set(lists[queries[5]]) & {8, 9, 10}


def test_generation_holds_no_list_sized_temporary():
    g = generate(SynthConfig(node_count=1000, relation_count=4, timestep_count=40, rate=300,
                             p_rep=0.5, seed=1))
    universe = add_inverse_relations(g)
    queries = expand_queries(g, "tkg")[:20_000]
    universe.fact_runs([0], [0], [0])  # the universe's cached run codes are not generation's
    tracemalloc.start()
    try:
        ns = generate_negative_set("type-aware", universe, queries, q=100, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ns.ids) > 0.9 * 100 * len(queries)
    # the ids column lives in its own untraced map; an (m, q) temporary would not
    assert peak < 8 * 100 * len(queries) / 2


@pytest.mark.parametrize("seed,recorded", [(2**70, 0), (-5, 2**64 - 5), (2**64 + 7, 7)])
def test_the_recorded_seed_is_the_one_drawn_with(tmp_path, seed, recorded):
    g, universe, queries = _tkg_setup(seed=1)
    ns = generate_negative_set("random", universe, queries, q=4, seed=seed)
    assert ns.seed == recorded
    assert ns == generate_negative_set("random", universe, queries, q=4, seed=recorded)
    _, back = _roundtrip(ns, tmp_path)
    assert back == ns


@pytest.mark.parametrize("field,value", [
    ("q", 2.5), ("q", True), ("q", "10"), ("q", None), ("seed", 1.5), ("seed", False),
    ("seed", "3"),
])
def test_non_integer_q_or_seed_is_config_error(g4, field, value):
    args = {"q": 2, "seed": 0, field: value}
    universe = add_inverse_relations(g4)
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        generate_negative_set("random", universe, expand_queries(g4, "tkg"), **args)


def test_numpy_integer_q_and_seed_are_accepted(g4):
    universe = add_inverse_relations(g4)
    queries = expand_queries(g4, "tkg")
    ns = generate_negative_set("random", universe, queries, q=np.int64(2), seed=np.uint8(3))
    assert ns == generate_negative_set("random", universe, queries, q=2, seed=3)
