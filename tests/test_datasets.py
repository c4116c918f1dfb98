import http.server
import io
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronolink import (
    ConfigError,
    DataError,
    DatasetManifest,
    EdgeListSchema,
    FetchError,
    Granularity,
    IntegrityError,
    ParseError,
    SchemaError,
    SplitError,
    chronological_split,
    fetch_dataset,
    from_quadruples,
    load_dense_edgelist,
    load_graph_dir,
    load_splits,
    merge,
    parse_edgelist,
    parse_static_edgelist,
    save_splits,
    write_edgelist,
    write_graph_dir,
)
from chronolink.datasets import (
    _int_table_by_line,
    _read_int_table,
    checksum_file,
    read_vocab,
    write_vocab,
)
from chronolink.synthetic import SynthConfig, generate


# -- parsing ---------------------------------------------------------------------


def test_parse_g4_fixture(g4, g4_path):
    graph, report = parse_edgelist(g4_path, granularity=Granularity.YEAR)
    assert graph.node_count == 4
    assert graph.relation_count == 2
    assert graph == g4
    assert report.rows_read == 5
    assert report.duplicates_removed == 0
    assert report.node_vocab == ["0", "1", "2", "3"]


def test_parse_empty_file_with_header():
    graph, report = parse_edgelist(io.StringIO("timestamp,subject,relation,object\n"))
    assert graph.is_empty
    assert report.node_vocab == [] and report.relation_vocab == []


def test_parse_blank_object_names_line():
    text = "timestamp,subject,relation,object\n0,a,r,b\n1,a,r,\n"
    with pytest.raises(ParseError, match="line 3"):
        parse_edgelist(io.StringIO(text))


def test_parse_skip_mode_records_lines():
    text = "timestamp,subject,relation,object\n0,a,r,b\n1,a,r,\n2,b,r,a\n"
    graph, report = parse_edgelist(io.StringIO(text), on_invalid="skip")
    assert len(graph) == 2
    assert report.skipped_lines == [3]


def test_parse_arity_error():
    text = "timestamp,subject,relation,object\n0,a,r\n"
    with pytest.raises(SchemaError, match="line 2"):
        parse_edgelist(io.StringIO(text))


def test_parse_bad_timestamp():
    text = "timestamp,subject,relation,object\nxyz,a,r,b\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_edgelist(io.StringIO(text))


def test_parse_custom_column_order_and_delimiter():
    schema = EdgeListSchema(
        columns=("subject", "object", "relation", "timestamp"), delimiter="\t", header=False
    )
    graph, _ = parse_edgelist(io.StringIO("a\tb\tr\t7\n"), schema)
    assert list(graph) == [(0, 0, 1, 7)]


def test_schema_validation():
    with pytest.raises(SchemaError):
        EdgeListSchema(columns=("timestamp", "subject", "relation", "relation"))
    with pytest.raises(SchemaError):
        EdgeListSchema(delimiter=",,")


def test_parse_deduplicates(tmp_path):
    text = "timestamp,subject,relation,object\n0,a,r,b\n0,a,r,b\n"
    graph, report = parse_edgelist(io.StringIO(text))
    assert len(graph) == 1
    assert report.duplicates_removed == 1


def test_node_type_sidecar(tmp_path):
    types = tmp_path / "types.csv"
    types.write_text("a,user\nb,app\n")
    schema = EdgeListSchema(node_type_path=types)
    graph, report = parse_edgelist(
        io.StringIO("timestamp,subject,relation,object\n0,a,r,b\n"), schema
    )
    assert graph.is_heterogeneous
    assert graph.node_types.tolist() == [0, 1]
    assert report.node_type_vocab == ["user", "app"]


def test_node_type_sidecar_missing_node(tmp_path):
    types = tmp_path / "types.csv"
    types.write_text("a,user\n")
    schema = EdgeListSchema(node_type_path=types)
    with pytest.raises(DataError, match="no type"):
        parse_edgelist(io.StringIO("timestamp,subject,relation,object\n0,a,r,b\n"), schema)


def test_static_companion_skips_unknown_nodes():
    node_index = {"a": 0, "b": 1}
    static, vocab, skipped = parse_static_edgelist(
        io.StringIO("subject,relation,object\na,born_in,b\na,likes,zzz\n"), node_index
    )
    assert len(static) == 1
    assert skipped == 1
    assert vocab == ["born_in"]
    assert static.timestamps.tolist() == [0]


# -- round trips -----------------------------------------------------------------


def test_write_then_dense_load_round_trip(g4, tmp_path):
    path = tmp_path / "g4.csv"
    write_edgelist(g4, path)
    back = load_dense_edgelist(
        path, node_count=4, relation_count=2, granularity=Granularity.YEAR
    )
    assert back == g4


def test_parse_serialize_parse_round_trip(g4_path, tmp_path):
    graph, report = parse_edgelist(g4_path, granularity=Granularity.YEAR)
    out = tmp_path / "echo.csv"
    write_edgelist(graph, out)
    again, report2 = parse_edgelist(out, granularity=Granularity.YEAR)
    assert again == graph
    assert report2.node_vocab == report.node_vocab


def test_vocab_round_trip(tmp_path):
    path = tmp_path / "v.vocab"
    write_vocab(path, ["alpha", "beta"])
    assert read_vocab(path) == ["alpha", "beta"]
    path.write_text("alpha\t1\n")
    with pytest.raises(DataError):
        read_vocab(path)


def test_graph_dir_round_trip(tmp_path):
    cfg = SynthConfig(node_count=15, relation_count=2, timestep_count=12,
                      node_type_count=3, rate=4, p_rep=0.3, seed=4)
    g = generate(cfg)
    write_graph_dir(g, tmp_path / "d")
    back, static = load_graph_dir(tmp_path / "d")
    assert back == g
    assert static is None


def test_splits_round_trip(tmp_path):
    g = generate(SynthConfig(node_count=20, relation_count=2, timestep_count=30, rate=4, seed=1))
    train, valid, test, bounds = chronological_split(g)
    save_splits(tmp_path, train, valid, test, bounds)
    t2, v2, s2, b2 = load_splits(tmp_path, g)
    assert (t2, v2, s2, b2) == (train, valid, test, bounds)


# -- dense codec: write_edgelist and load_dense_edgelist -------------------------

_COLUMNS = ("timestamp", "subject", "relation", "object")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def _dense_cases(draw):
    schema = EdgeListSchema(
        columns=tuple(draw(st.permutations(_COLUMNS))),
        delimiter=draw(st.sampled_from([",", "\t", "|", " ", "%"])),
        header=draw(st.booleans()),
    )
    # timestamp origins: small, negative, unix seconds and both int64 ends
    base = draw(st.sampled_from([0, -1000, 1_700_000_000, _INT64_MIN, _INT64_MAX - 49]))
    nodes, relations = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    quads = draw(st.lists(st.tuples(st.integers(0, nodes - 1), st.integers(0, relations - 1),
                                    st.integers(0, nodes - 1), st.integers(0, 49)),
                          max_size=60))  # empty: a header-only file
    graph = from_quadruples([(s, r, o, base + t) for s, r, o, t in quads],
                            node_count=nodes, relation_count=relations)
    return graph, schema


def _reference_text(graph, schema):
    """The canonical text, one formatted row at a time."""
    columns = {"timestamp": graph.timestamps, "subject": graph.subjects,
               "relation": graph.relations, "object": graph.objects}
    rows = zip(*(columns[name] for name in schema.columns))
    lines = [schema.delimiter.join(schema.columns)] if schema.header else []
    lines += [schema.delimiter.join(str(int(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _load(source, graph, schema):
    return load_dense_edgelist(source, node_count=graph.node_count,
                               relation_count=graph.relation_count, schema=schema)


@settings(max_examples=100, deadline=None)
@given(case=_dense_cases(),
       blanks=st.lists(st.tuples(st.integers(0, 70), st.sampled_from(["", "  ", "\t", " \t "])),
                       max_size=4),
       crlf=st.booleans())
def test_dense_codec_round_trip(tmp_path_factory, case, blanks, crlf):
    graph, schema = case
    path = tmp_path_factory.mktemp("dense") / "edges.csv"
    write_edgelist(graph, path, schema)
    text = path.read_text(encoding="utf-8")
    assert text == _reference_text(graph, schema)
    assert _load(path, graph, schema) == graph
    # blank and whitespace-only lines anywhere after the header, and CRLF line ends
    lines = text.split("\n")
    for at, blank in blanks:
        lines.insert(int(schema.header) + at % (len(lines) - int(schema.header) + 1), blank)
    text = ("\r\n" if crlf else "\n").join(lines)
    path.write_bytes(text.encode("utf-8"))
    assert _load(path, graph, schema) == graph
    assert _load(io.StringIO(text), graph, schema) == graph
    assert _load(io.BytesIO(text.encode("utf-8")), graph, schema) == graph


_BAD_FIELDS = {
    "integer": ["x", "1_0", "1.0", "", "+", "0x1", "\u0663", "1 2"],
    "overflow": [str(_INT64_MAX + 1), str(_INT64_MIN - 1), "9" * 30],
}


@settings(max_examples=100, deadline=None)
@given(case=_dense_cases().filter(lambda case: not case[0].is_empty),
       pick=st.integers(0, 10**6), kind=st.sampled_from(["arity", "integer", "overflow"]),
       blank_first=st.booleans(), data=st.data())
def test_malformed_dense_rows_name_their_line(case, pick, kind, blank_first, data):
    graph, schema = case
    lines = _reference_text(graph, schema).split("\n")
    first = int(schema.header)
    if blank_first:
        lines.insert(first, "")
    bad = first + int(blank_first) + pick % len(graph)  # 0-based index of the damaged line
    fields = lines[bad].split(schema.delimiter)
    if kind == "arity":
        fields = fields[:3] if pick % 2 else fields + ["0"]
    else:
        field = data.draw(st.sampled_from(_BAD_FIELDS[kind]))
        if schema.delimiter in field:
            field = "x"
        fields[pick % 4] = field
    lines[bad] = schema.delimiter.join(fields)
    source = io.StringIO("\n".join(lines))
    if kind == "arity":
        with pytest.raises(SchemaError, match=f"^line {bad + 1}: expected 4 columns"):
            _load(source, graph, schema)
    else:
        with pytest.raises(ParseError) as caught:
            _load(source, graph, schema)
        assert caught.value.line_number == bad + 1
        assert ("int64" in str(caught.value)) == (kind == "overflow")


_BLANKS = st.text(alphabet=" \t\x0b\x0c\x1c\x85\xa0\u2028", max_size=2)
_NUMBER = st.builds(lambda n, plus: ("+" if plus and n >= 0 else "") + str(n),
                    st.integers(_INT64_MIN, _INT64_MAX), st.booleans())
_BAD = st.sampled_from(["", "x", "1_0", "+-1", str(_INT64_MAX + 1), str(_INT64_MIN - 1)])
_FIELD = st.builds("{}{}{}".format, _BLANKS,
                   st.integers(0, 15).flatmap(lambda k: _BAD if k == 0 else _NUMBER), _BLANKS)


@st.composite
def _table_cases(draw):
    width = draw(st.sampled_from([2, 4]))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet="0123456789+-_ ,x\t\r\n\x0b\x0c\x1c\x85\xa0\u2028",
                            max_size=60)), width
    row = st.lists(_FIELD, min_size=width, max_size=width).map(",".join)
    odd = st.one_of(_BLANKS, st.lists(_FIELD, min_size=1, max_size=5).map(",".join))
    rows = draw(st.lists(st.one_of(row, row, row, odd), max_size=6))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(rows), width


@settings(max_examples=300, deadline=None)
@given(case=_table_cases(), header=st.booleans())
@example(case=("1,2\n   \n3,4", 2), header=False)
@example(case=("1,2\r3,4\r", 2), header=False)
@example(case=("h\n", 2), header=True)
def test_bulk_parse_accepts_exactly_the_line_grammar(tmp_path_factory, case, header):
    """np.loadtxt's bulk pass never accepts what the line-by-line grammar refuses."""
    text, width = case

    def outcome(read):
        try:
            return read().tolist()
        except (ParseError, SchemaError) as exc:
            return type(exc), str(exc)

    want = outcome(lambda: _int_table_by_line(text, width, ",", header, None))
    assert outcome(lambda: _read_int_table(io.StringIO(text), width, ",", header)) == want
    path = tmp_path_factory.mktemp("grammar") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    on_disk = path.read_text(encoding="utf-8")  # as the reader sees it: universal newlines
    assert outcome(lambda: _read_int_table(path, width, ",", header)) == outcome(
        lambda: _int_table_by_line(on_disk, width, ",", header, path))


# -- chronological split -----------------------------------------------------------


def test_split_uniform_hundred():
    g = from_quadruples(
        [(i % 5, 0, (i + 1) % 5, i) for i in range(100)], node_count=5, relation_count=1
    )
    train, valid, test, bounds = chronological_split(g, 0.70, 0.15)
    assert bounds.train_end == 69 and bounds.valid_end == 84
    assert (len(train), len(valid), len(test)) == (70, 15, 15)


def test_split_g4_degenerate_raises(g4):
    # cumulative rule overshoots to t=3, swallowing everything into train
    with pytest.raises(SplitError):
        chronological_split(g4, 0.70, 0.15)


def test_split_too_few_timestamps():
    g = from_quadruples([(0, 0, 1, 0), (0, 0, 1, 1)], node_count=2, relation_count=1)
    with pytest.raises(SplitError):
        chronological_split(g)


def test_split_fraction_validation(g4):
    with pytest.raises(ConfigError):
        chronological_split(g4, 0.9, 0.2)
    with pytest.raises(ConfigError):
        chronological_split(g4, 0.0, 0.15)


@pytest.mark.parametrize("seed", range(8))
def test_split_partition_and_boundary_purity(seed):
    g = generate(
        SynthConfig(node_count=30, relation_count=3, timestep_count=40, rate=5,
                    p_rep=0.4, seed=seed)
    )
    train, valid, test, bounds = chronological_split(g)
    assert len(train) + len(valid) + len(test) == len(g)
    assert merge(train, valid, test) == g
    ts_sets = [set(part.timestamps.tolist()) for part in (train, valid, test)]
    assert not (ts_sets[0] & ts_sets[1]) and not (ts_sets[1] & ts_sets[2])
    assert not (ts_sets[0] & ts_sets[2])
    # monotone rule: realized train fraction >= requested, < requested + boundary share
    frac = len(train) / len(g)
    boundary_share = np.mean(g.timestamps == bounds.train_end)
    assert 0.70 <= frac < 0.70 + boundary_share


# -- manifests and fetching ----------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    manifest = DatasetManifest(
        name="tiny", url="http://localhost:1/tiny.csv", checksum="sha256:00",
        granularity=Granularity.DAY, kind="tkg", strategy="type-aware", q=50,
    )
    path = tmp_path / "m.txt"
    manifest.to_file(path)
    assert DatasetManifest.from_file(path) == manifest


def test_manifest_validation():
    with pytest.raises(ConfigError):
        DatasetManifest("x", "http://h/f", "sha256:0", Granularity.DAY, "tkg", "type-aware", q=0)
    with pytest.raises(ConfigError):
        DatasetManifest("x", "http://h/f", "", Granularity.DAY, "tkg", "all")
    with pytest.raises(ConfigError):
        DatasetManifest("x", "", "", Granularity.DAY, "blimp", "all")


def _manifest_for(tmp_path, payload: bytes, url: str) -> DatasetManifest:
    blob = tmp_path / "payload.csv"
    blob.write_bytes(payload)
    return DatasetManifest(
        name="served",
        url=url,
        checksum=checksum_file(blob),
        granularity=Granularity.DAY,
        kind="tkg",
        strategy="all",
    )


def test_fetch_cache_hit_without_network(tmp_path):
    payload = b"timestamp,subject,relation,object\n0,a,r,b\n"
    manifest = _manifest_for(tmp_path, payload, "http://localhost:9/served.csv")
    cached = tmp_path / "cache" / "served" / "served.csv"
    cached.parent.mkdir(parents=True)
    cached.write_bytes(payload)
    # url is unreachable; the verified cache entry must be returned untouched
    assert fetch_dataset(manifest, tmp_path / "cache") == cached


def test_fetch_corrupted_cache_purged(tmp_path):
    manifest = _manifest_for(tmp_path, b"good", "http://localhost:9/served.csv")
    cached = tmp_path / "cache" / "served" / "served.csv"
    cached.parent.mkdir(parents=True)
    cached.write_bytes(b"tampered")
    with pytest.raises(IntegrityError):
        fetch_dataset(manifest, tmp_path / "cache")
    assert not cached.exists()


def test_fetch_downloads_and_verifies(tmp_path):
    payload = b"timestamp,subject,relation,object\n0,a,r,b\n"
    served = tmp_path / "www"
    served.mkdir()
    (served / "served.csv").write_bytes(payload)

    handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(*a, directory=str(served), **kw)
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/served.csv"
        manifest = _manifest_for(tmp_path, payload, url)
        got = fetch_dataset(manifest, tmp_path / "cache")
        assert got.read_bytes() == payload
    finally:
        srv.shutdown()
        srv.server_close()
    # second call is a cache hit even with the server gone
    assert fetch_dataset(manifest, tmp_path / "cache") == got

    bad = DatasetManifest(
        name="served2", url=url, checksum="sha256:" + "0" * 64,
        granularity=Granularity.DAY, kind="tkg", strategy="all",
    )
    with pytest.raises(FetchError):
        fetch_dataset(bad, tmp_path / "cache")  # connection refused: retryable


def test_fetch_checksum_mismatch_is_integrity_error(tmp_path):
    served = tmp_path / "www"
    served.mkdir()
    (served / "served.csv").write_bytes(b"actual payload")
    handler = lambda *a, **kw: http.server.SimpleHTTPRequestHandler(*a, directory=str(served), **kw)
    srv = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    try:
        url = f"http://127.0.0.1:{srv.server_address[1]}/served.csv"
        manifest = DatasetManifest(
            name="served", url=url, checksum="sha256:" + "0" * 64,
            granularity=Granularity.DAY, kind="tkg", strategy="all",
        )
        with pytest.raises(IntegrityError):
            fetch_dataset(manifest, tmp_path / "cache")
        assert not (tmp_path / "cache" / "served" / "served.csv").exists()
    finally:
        srv.shutdown()
        srv.server_close()
