import http.server
import io
import threading
from pathlib import Path

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
    IngestReport,
    IntegrityError,
    ParseError,
    SchemaError,
    SplitError,
    TemporalMultiGraph,
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
    read_keyvalue_file,
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


@pytest.mark.parametrize("text,error,message", [
    ("train_end = x29\nvalid_end = 31\n", ParseError,
     "line 1: train_end 'x29' is not an int64 timestamp"),
    ("train_end = 29\n\nvalid_end = 99999999999999999999\n", ParseError,
     "line 3: valid_end '99999999999999999999' is not an int64 timestamp"),
    ("train_end = 29\n", DataError, "lacks valid_end"),
], ids=["not-an-integer", "outside-int64", "missing"])
def test_damaged_split_boundaries_are_data_errors_naming_the_file(tmp_path, text, error, message):
    g = generate(SynthConfig(node_count=20, relation_count=2, timestep_count=30, rate=4, seed=1))
    save_splits(tmp_path, *chronological_split(g))
    path = tmp_path / "boundaries.txt"
    path.write_text(text)
    with pytest.raises(error) as caught:
        load_splits(tmp_path, g)
    assert str(caught.value) == f"{path} {message}"


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


# -- one line grammar for raw inputs ------------------------------------------------


@pytest.mark.parametrize("mark", ["\x85", "\u2028", "\x0c", "\x1e"],
                         ids=["NEL", "LINE-SEPARATOR", "FORM-FEED", "RECORD-SEPARATOR"])
def test_raw_id_holding_a_unicode_line_break_is_one_id(tmp_path, mark):
    text = f"timestamp,subject,relation,object\n0,a{mark}b,r{mark}s,c\n"
    graph, report = parse_edgelist(io.StringIO(text))
    assert list(graph) == [(0, 0, 1, 0)]
    assert report.node_vocab == [f"a{mark}b", "c"]
    assert report.relation_vocab == [f"r{mark}s"]
    write_graph_dir(graph, tmp_path, report)
    assert read_vocab(tmp_path / "nodes.vocab") == report.node_vocab
    assert read_vocab(tmp_path / "relations.vocab") == report.relation_vocab


@pytest.mark.parametrize("timestamp,message", [
    ("1_0", "timestamp '1_0' is not an integer"),
    ("٣", "timestamp '٣' is not an integer"),
    ("99999999999999999999", "timestamp 99999999999999999999 lies outside the int64 range"),
], ids=["underscore", "arabic-indic-digit", "int64-overflow"])
def test_raw_timestamps_follow_the_int64_rule(timestamp, message):
    text = f"timestamp,subject,relation,object\n0,a,r,b\n{timestamp},b,r,a\n"
    with pytest.raises(ParseError, match=f"^line 3: {message}$") as caught:
        parse_edgelist(io.StringIO(text))
    assert caught.value.line_number == 3


def test_keyvalue_value_may_hold_a_unicode_line_break(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("a = x\u2028b\nheader = false\n", encoding="utf-8")
    assert read_keyvalue_file(path) == {"a": "x\u2028b", "header": "false"}


def test_vocab_splits_at_the_last_tab(tmp_path):
    path = tmp_path / "v.vocab"
    write_vocab(path, ["a\tb", "c"])
    assert read_vocab(path) == ["a\tb", "c"]
    path.write_text("alpha\tx\n")
    with pytest.raises(ParseError, match="line 1: dense id 'x' is not an integer"):
        read_vocab(path)
    path.write_text("alpha\n")
    with pytest.raises(SchemaError, match="line 1: expected 2 columns, got 1"):
        read_vocab(path)


@pytest.mark.parametrize("early", ["1,a,r,", "x,a,r,b"], ids=["blank-field", "bad-timestamp"])
def test_field_count_is_checked_before_any_value(early):
    text = f"timestamp,subject,relation,object\n0,a,r,b\n{early}\n2,a,r\n"
    with pytest.raises(SchemaError, match="^line 4: expected 4 columns, got 3$"):
        parse_edgelist(io.StringIO(text))


def test_parse_errors_name_the_file(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,subject,relation,object\n0,a,r,\n")
    with pytest.raises(ParseError, match=f"^{path} line 2: missing object column$"):
        parse_edgelist(path)
    path.write_text("timestamp,subject,relation,object\n0,a,r\n")
    with pytest.raises(SchemaError, match=f"^{path} line 2: expected 4 columns, got 3$"):
        parse_edgelist(path)


# -- the row reader against the per-file line loops it replaced ---------------------


class _OldVocabulary:
    def __init__(self):
        self.index = {}
        self.raw = []

    def dense(self, raw):
        got = self.index.get(raw)
        if got is None:
            got = len(self.raw)
            self.index[raw] = got
            self.raw.append(raw)
        return got


def _old_read_lines(source):
    if hasattr(source, "read"):
        data = source.read()
        return (data.decode("utf-8") if isinstance(data, bytes) else data).splitlines()
    return Path(source).read_text(encoding="utf-8").splitlines()


def _old_parse_edgelist(source, schema, on_invalid):
    """The line loop ``parse_edgelist`` ran before the row reader."""
    lines = _old_read_lines(source)
    t_col, s_col, r_col, o_col = (schema.column_index(name) for name in _COLUMNS)
    nodes, relations = _OldVocabulary(), _OldVocabulary()
    subjects, rels, objects, times = [], [], [], []
    report = IngestReport()
    body = lines[1:] if schema.header else lines
    for lineno, line in enumerate(body, start=2 if schema.header else 1):
        if not line.strip():
            continue
        parts = line.split(schema.delimiter)
        if len(parts) != 4:
            raise SchemaError(f"line {lineno}: expected 4 columns, got {len(parts)}")
        fields = [p.strip() for p in parts]
        blank = [name for name, idx in zip(_COLUMNS, (t_col, s_col, r_col, o_col))
                 if not fields[idx]]
        if blank:
            if on_invalid == "skip":
                report.skipped_lines.append(lineno)
                continue
            raise ParseError(f"missing {', '.join(blank)} column", lineno)
        try:
            timestamp = int(fields[t_col])
        except ValueError:
            raise ParseError(f"timestamp {fields[t_col]!r} is not an integer", lineno) from None
        subjects.append(nodes.dense(fields[s_col]))
        rels.append(relations.dense(fields[r_col]))
        objects.append(nodes.dense(fields[o_col]))
        times.append(timestamp)
        report.rows_read += 1
    node_types = None
    if schema.node_type_path is not None:
        node_types, report.node_type_vocab = _old_parse_node_types(
            schema.node_type_path, nodes, schema.delimiter)
    graph = TemporalMultiGraph(subjects, rels, objects, times, node_count=len(nodes.raw),
                               relation_count=len(relations.raw), node_types=node_types)
    report.duplicates_removed = graph.duplicates_removed
    report.node_vocab, report.relation_vocab = nodes.raw, relations.raw
    return graph, report


def _old_parse_node_types(path, nodes, delimiter):
    types = _OldVocabulary()
    assigned = np.full(len(nodes.raw), -1, dtype=np.int64)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delimiter)]
        if len(parts) != 2:
            raise SchemaError(f"{path} line {lineno}: expected 2 columns, got {len(parts)}")
        dense_node = nodes.index.get(parts[0])
        if dense_node is not None:
            assigned[dense_node] = types.dense(parts[1])
    missing = int((assigned < 0).sum())
    if missing:
        raise DataError(f"{missing} nodes have no type in {path}")
    return assigned, types.raw


def _old_parse_static_edgelist(source, node_index, delimiter, header):
    lines = _old_read_lines(source)
    relations = _OldVocabulary()
    subjects, rels, objects = [], [], []
    skipped = 0
    for lineno, line in enumerate(lines[1:] if header else lines, start=2 if header else 1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(delimiter)]
        if len(parts) != 3:
            raise SchemaError(f"line {lineno}: expected 3 columns, got {len(parts)}")
        s_raw, r_raw, o_raw = parts
        if s_raw not in node_index or o_raw not in node_index:
            skipped += 1
            continue
        subjects.append(node_index[s_raw])
        rels.append(relations.dense(r_raw))
        objects.append(node_index[o_raw])
    graph = TemporalMultiGraph(subjects, rels, objects, [0] * len(subjects),
                               node_count=max(node_index.values()) + 1 if node_index else 0,
                               relation_count=len(relations.raw))
    return graph, relations.raw, skipped


def _outcome(call):
    try:
        return call()
    except (DataError, SchemaError) as exc:
        return type(exc), str(exc)


_DELIMITERS = [",", "\t", "|", ";", " "]
_TIMES = st.one_of(*[st.integers(-5, 40).map(str)] * 12, st.sampled_from(["+3", "007", "-0"]),
                   st.sampled_from(["x", "1.5", "", "3 4"]))


def _ids(delimiter):
    """ASCII ids, some with inner spaces, tabs or other delimiters, or blank once stripped."""
    return st.text(alphabet="abz09-. |;,\t", min_size=1, max_size=3).filter(
        lambda raw: delimiter not in raw)


@st.composite
def _raw_text(draw, delimiter, fields):
    """Rows of one field per strategy in ``fields``, padded, with blank lines and mixed line ends."""
    pad = st.sampled_from(["", *(c for c in " \t" if c != delimiter)])
    row = st.tuples(*(st.builds("{}{}{}".format, pad, f, pad) for f in fields)).map(delimiter.join)
    blank_line = st.sampled_from(["", *(c * 2 for c in " \t" if c != delimiter)])
    lines = draw(st.lists(st.one_of(row, row, row, blank_line), min_size=1, max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def _edge_cases(draw):
    delimiter = draw(st.sampled_from(_DELIMITERS))
    columns = tuple(draw(st.permutations(_COLUMNS)))
    header = draw(st.booleans())
    times = _TIMES.filter(lambda raw: delimiter not in raw)  # every row has four fields
    fields = [times if name == "timestamp" else _ids(delimiter) for name in columns]
    text = draw(_raw_text(delimiter, fields))
    if header:
        text = delimiter.join(columns) + draw(st.sampled_from(["\n", "\r\n", "\r"])) + text
    return EdgeListSchema(columns=columns, header=header, delimiter=delimiter), text


@settings(max_examples=300, deadline=None)
@given(case=_edge_cases(), on_invalid=st.sampled_from(["error", "skip"]))
def test_parse_edgelist_matches_the_old_line_loop(case, on_invalid):
    schema, text = case
    want = _outcome(lambda: _old_parse_edgelist(io.StringIO(text), schema, on_invalid))
    assert _outcome(lambda: parse_edgelist(io.StringIO(text), schema,
                                           on_invalid=on_invalid)) == want


@st.composite
def _static_cases(draw):
    delimiter = draw(st.sampled_from(_DELIMITERS))
    ids = _ids(delimiter)
    known = draw(st.lists(ids.map(str.strip).filter(bool), unique=True, max_size=5))
    node = st.one_of(st.sampled_from(known), st.sampled_from(known), ids) if known else ids
    header = draw(st.booleans())
    text = draw(_raw_text(delimiter, [node, ids, node]))
    if header:
        text = delimiter.join(["subject", "relation", "object"]) + "\n" + text
    return text, {raw: 2 * dense for dense, raw in enumerate(known)}, delimiter, header


@settings(max_examples=200, deadline=None)
@given(case=_static_cases())
def test_parse_static_edgelist_matches_the_old_line_loop(case):
    text, node_index, delimiter, header = case
    want = _outcome(lambda: _old_parse_static_edgelist(io.StringIO(text), node_index,
                                                       delimiter, header))
    assert _outcome(lambda: parse_static_edgelist(
        io.StringIO(text), node_index, delimiter=delimiter, header=header)) == want


@st.composite
def _typed_cases(draw):
    delimiter = draw(st.sampled_from(_DELIMITERS))
    nodes = draw(st.lists(st.sampled_from("abcdef"), min_size=2, max_size=6))
    edges = "".join(f"{t}{delimiter}{s}{delimiter}r{delimiter}{o}\n"
                    for t, (s, o) in enumerate(zip(nodes, nodes[1:])))
    node = st.one_of(st.sampled_from("abcdefg"), _ids(delimiter))  # g never appears in edges
    noise = _raw_text(delimiter, [node, _ids(delimiter)])
    typed = draw(st.permutations(sorted(set(nodes))))[: draw(st.sampled_from([-1, None, None]))]
    kinds = draw(st.lists(_ids(delimiter), min_size=len(typed), max_size=len(typed)))
    rows = "".join(f"{n}{delimiter}{kind}\n" for n, kind in zip(typed, kinds))
    return delimiter, edges, draw(noise) + "\n" + rows + draw(noise)


@settings(max_examples=200, deadline=None)
@given(case=_typed_cases())
def test_node_type_sidecar_matches_the_old_line_loop(tmp_path_factory, case):
    delimiter, edges, sidecar = case
    types = tmp_path_factory.mktemp("types") / "types.csv"
    types.write_bytes(sidecar.encode("utf-8"))
    schema = EdgeListSchema(header=False, delimiter=delimiter, node_type_path=types)
    want = _outcome(lambda: _old_parse_edgelist(io.StringIO(edges), schema, "error"))
    assert _outcome(lambda: parse_edgelist(io.StringIO(edges), schema)) == want


@pytest.mark.parametrize("value,want", [
    ("1" * 5000, None), ("0" * 5000 + "7", 7), ("-" + "0" * 5000 + "7", -7)],
    ids=["long", "zero-padded", "negative-zero-padded"])
def test_integers_longer_than_int_digit_limit_follow_the_int64_rule(value, want):
    """int() refuses strings of over 4300 digits; the grammar decides by value."""
    dense = io.StringIO(f"timestamp,subject,relation,object\n{value},0,0,1\n")
    raw = io.StringIO(f"timestamp,subject,relation,object\n{value},a,r,b\n")
    for read in (lambda: load_dense_edgelist(dense, node_count=2, relation_count=1),
                 lambda: parse_edgelist(raw)[0]):
        if want is None:
            with pytest.raises(ParseError, match="^line 2: .* lies outside the int64 range$"):
                read()
        else:
            assert read().timestamps.tolist() == [want]
