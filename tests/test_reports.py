"""Report assembly: row grouping against the per-row rescans it replaced,
and the CSV files ``report`` reads back against the plain JSON encoding
of their tables."""

import csv
import json
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_post, make_topic
from oracles import (random_reply_tree, reference_observations_for_row,
                     reference_observations_for_scope, reference_seeds_for_row)
from seedsmith import reports
from seedsmith.cli import main as cli_main
from seedsmith.extraction import assemble_collections
from seedsmith.reports import KIND_FILTERS, SCOPES, collect_observations, index_rows, scope_posts, write_bundle
from seedsmith.segmentation import MC, MC_MEMBER_CLASSES, partition_corpus

LINK_POOL = [
    "https://a.example/story",
    "https://a.example/other",
    "https://b.example/story",
    "https://c.example/report.pdf",
    "https://d.example/clip.mp4",
    "https://e.example/",
]


def _random_corpus(rng):
    """Several topics, sources and verticals of random reply trees whose
    posts share links from a small pool, so cells overlap."""
    topics = [make_topic(f"t{i}") for i in range(rng.randint(2, 3))]
    posts = []
    for topic in topics:
        for source in ("reddit", "twitter"):
            for vertical in ("top", "new"):
                for tree in range(rng.randint(1, 4)):
                    prefix = f"{topic.topic_id}-{source}-{vertical}-{tree}-"
                    for kw in random_reply_tree(rng, max_posts=8, max_authors=3):
                        links = rng.sample(LINK_POOL, rng.randint(0, 3))
                        kw = dict(kw, id=prefix + kw["id"], author=prefix[:2] + kw["author"])
                        if kw.get("parent_id"):
                            kw["parent_id"] = prefix + kw["parent_id"]
                        posts.append(make_post(topic_id=topic.topic_id, source=source,
                                               vertical=vertical, text=" ".join(links), **kw))
    return make_corpus(posts, topics)


def _judgments(collections, topics):
    """Relevance stand-in: judgments for the seeds of some topics (those
    with a gold), a fixed verdict per URI."""
    return {reports.judgment_key(key[0], seed): SimpleNamespace(relevant=len(seed.canonical) % 2 == 0)
            for key, collection in collections.items() if key[0] in topics for seed in collection.post_seeds}


def test_row_index_matches_per_row_rescans():
    rng = random.Random(7)
    classes_seen = set()
    for _ in range(25):
        corpus = _random_corpus(rng)
        partition = partition_corpus(corpus)
        collections = assemble_collections(corpus, partition)
        observations = collect_observations(collections, _judgments(collections, ["t0", "t1"]))
        index = index_rows(collections, observations)

        mc_keys = {(*key[:3], MC) for key in collections if key[3] in MC_MEMBER_CLASSES}
        assert list(index.cells) == sorted(set(collections) | mc_keys)
        for key in index.cells:
            classes_seen.add(key[3])
            want_seeds = reference_seeds_for_row(collections, key)
            assert len(index.seeds[key]) == len(want_seeds)
            assert all(a is b for a, b in zip(index.seeds[key], want_seeds)), key
            want_obs = reference_observations_for_row(observations, key)
            assert len(index.observations[key]) == len(want_obs)
            assert all(a is b for a, b in zip(index.observations[key], want_obs)), key
            members = index.cells[key]
            assert members == sorted(members)
        topic_of = {id(o): key[0] for key, cell in observations.items() for o in cell}
        for source in {key[1] for key in collections}:
            for scope in SCOPES:
                want_obs = reference_observations_for_scope(observations, source, scope)
                row_keys = index.scopes.get((source, scope), [])
                assert row_keys == sorted(row_keys)
                got = [o for key in row_keys for o in index.observations[key]]
                assert len(got) == len(want_obs)
                assert all(a is b for a, b in zip(got, want_obs)), (source, scope)
                for kind_name, _kind in KIND_FILTERS:
                    held = list(scope_posts(index, source, scope, kind_name))
                    want_held = [o for o in want_obs if o.k[kind_name] >= 1]
                    assert len(held) == len(want_held)
                    assert all(o is want for (_topic, o), want in zip(held, want_held))
                    assert all(topic == topic_of[id(o)] for topic, o in held)
        assert set(index.scopes) <= {(key[1], scope) for key in collections for scope in SCOPES}
    assert {"P1A1", "PnA1", "PnAn", MC} <= classes_seen


TRICKY_CELLS = [
    "plain", "naïve — 漢字 🌊", 'say "hi"', "back\\slash", "two\nlines", "cr\r\nlf",
    "tab\tend", "\u2028line separator", "", "NA", "0.2500", "lone\rcr", "a,b", "nul\x00",
]


def _expected(value):
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def _check_report(tables, tmp):
    """``report`` over ``write_bundle``'s CSVs of ``tables``: as json, the
    plain JSON encoding of ``tables``; as csv, the same bytes."""
    run_dir = tmp / "run"
    write_bundle(tables, run_dir)
    for fmt in ("json", "csv"):
        assert cli_main(["report", "--bundle", str(run_dir), "--out", str(tmp / fmt), "--format", fmt]) == 0
    assert _files(tmp / "json") == {"report.json": _expected(tables).encode()}
    assert _files(tmp / "csv") == _files(run_dir)


def test_bundle_files_equal_plain_json_encoding(tmp_path):
    tables = {
        "tricky": {"header": ["a", "b\nc"], "rows": [TRICKY_CELLS[i:i + 2]
                                                    for i in range(0, len(TRICKY_CELLS), 2)]},
        "empty": {"header": ["topic", "value"], "rows": []},
        "ünïcode \"name\"\n": {"header": [], "rows": [[]]},
    }
    manifest = {"warnings": ['seed "x"\\y\r\nz'], "warning_count": 1, "counts": {}}
    created = write_bundle(tables, tmp_path / "out", manifest)
    assert created[0] == tmp_path / "out" / "manifest.json"
    assert created[0].read_bytes() == _expected(manifest).encode()
    _check_report(tables, tmp_path)


def test_write_bundle_writes_each_table_once_as_csv(tmp_path):
    tables = {
        "a_first": {"header": ["x", "y"], "rows": [["1", 'say "hi"'], ["two\nlines", ""]]},
        "b-second": {"header": ["only"], "rows": [], "note": "not written"},
    }
    created = write_bundle(tables, tmp_path, {"counts": {}})
    assert sorted(created) == sorted(tmp_path.iterdir())
    assert sorted(_files(tmp_path)) == ["a_first.csv", "b-second.csv", "manifest.json"]
    assert (tmp_path / "a_first.csv").read_bytes() == b'x,y\n1,"say ""hi"""\n"two\nlines",\n'
    assert (tmp_path / "b-second.csv").read_bytes() == b"only\n"
    assert write_bundle({}, tmp_path / "none") == []


def test_write_csv_quotes_only_rows_that_hold_a_carriage_return(tmp_path):
    path = tmp_path / "t.csv"
    reports.write_csv(path, ["h", "k"], [["a", "b"], ["c\rd", "e"], ["f\r\n", "g"], ["", ""]])
    assert path.read_bytes() == b'h,k\na,b\n"c\rd","e"\n"f\r\n","g"\n,\n'
    with path.open(encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [["h", "k"], ["a", "b"], ["c\rd", "e"], ["f\r\n", "g"], ["", ""]]


# A file name cannot hold "/" or NUL, nor be empty ("".csv would be a
# hidden file with no stem), so table names draw from the rest.
_TABLE_NAME = st.text(st.characters(codec="utf-8", exclude_characters="/\x00"), min_size=1, max_size=6)


@given(
    st.dictionaries(
        _TABLE_NAME,
        st.lists(st.lists(st.text(max_size=8), max_size=3), max_size=3),
        min_size=1, max_size=3,
    ),
    st.dictionaries(st.text(max_size=6), st.one_of(st.none(), st.text(max_size=6),
                                                   st.dictionaries(st.text(max_size=3), st.integers())),
                    max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_bundle_files_equal_plain_json_encoding_random(tmp_path_factory, rows_by_name, manifest):
    tables = {name: {"header": ["h"], "rows": rows} for name, rows in rows_by_name.items()}
    tmp = tmp_path_factory.mktemp("bundle")
    write_bundle(tables, tmp / "out", manifest)
    assert (tmp / "out" / "manifest.json").read_bytes() == _expected(manifest).encode()
    _check_report(tables, tmp)


_TRICKY_CHARS = st.sampled_from(
    ['"', ",", "\\", "/", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029",
     "\ufeff", "é", "漢", "\U0001f30a", "\U00010000"]
)
# A UTF-8 file cannot hold a lone surrogate, so none is drawn.
_TABLE_TEXT = st.text(st.one_of(_TRICKY_CHARS, st.characters(codec="utf-8")), max_size=8)


@given(
    st.dictionaries(
        _TABLE_NAME,
        st.fixed_dictionaries({
            "header": st.lists(_TABLE_TEXT, max_size=3),
            "rows": st.lists(st.lists(_TABLE_TEXT, max_size=3), max_size=4),
        }),
        min_size=1, max_size=4,
    )
)
@example({"t": {"header": ["a"], "rows": [["c\rr"], ["x" * 140_000]]}})
@settings(max_examples=300, deadline=None)
def test_tables_text_equals_plain_json_encoding(tmp_path_factory, tables):
    # Empty headers over rows, empty rows, a bare carriage return and a
    # cell past the csv module's default field size limit all come up;
    # the hand-written cases below pin several of them once.
    _check_report(tables, tmp_path_factory.mktemp("tables"))


@pytest.mark.parametrize(
    "tables",
    [{"t": {"header": [], "rows": [["a", "b"], []]}}, {"t": {"header": [], "rows": []}},
     {"\u2028 ü \U0001f30a": {"header": ['"', "\\"], "rows": [[]] * 2 + [["\x00\x1f\u2029", "\r"]]}}],
    ids=["empty-header-and-row", "all-empty", "tricky-name-and-cells"],
)
def test_tables_text_equals_plain_json_encoding_cases(tables, tmp_path):
    _check_report(tables, tmp_path)


def test_write_stage_holds_one_table_at_a_time(tmp_path):
    # Four tables of about 2.5 MB of CSV each. Written row by row, the
    # write holds far less than one table's text; building a table's
    # text before writing it holds at least that much.
    cells = ["cell-" + "x" * 10] * 7
    tables = {
        f"t{n}": {"header": [f"h{i}" for i in range(8)],
                  "rows": [[f"{n}-{i:08d}", *cells] for i in range(20_000)]}
        for n in range(4)
    }
    tracemalloc.start()
    try:
        write_bundle(tables, tmp_path, {"counts": {}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = max(path.stat().st_size for path in tmp_path.glob("*.csv"))
    assert largest > 2_000_000
    assert peak < largest / 4
    with (tmp_path / "t3.csv").open(encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [tables["t3"]["header"], *tables["t3"]["rows"]]
