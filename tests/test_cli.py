import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_corpus, make_post
from seedsmith import reports
from seedsmith.cli import main
from seedsmith.corpus.fetch import write_fixture
from seedsmith.corpus.jsonl import load_corpus, write_corpus
from seedsmith.extraction import HTML_KIND

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return main([str(a) for a in args])


def base_args(out, command="run"):
    return [
        command,
        "--corpus", DATA / "corpus.jsonl",
        "--out", out,
        "--fixtures", DATA / "responses",
    ]


EXPECTED_FILES = [
    "partition.csv", "partition_mc.csv", "seeds.csv",
    "distribution_all.csv", "distribution_html.csv", "distribution_non_html.csv",
    "precision_all.csv", "precision_html.csv", "precision_non_html.csv",
    "relevance_by_k_all.csv", "relevance_by_k_html.csv", "relevance_by_k_non_html.csv",
    "age.csv", "age_ecdf.csv", "diversity.csv", "overlap.csv",
    "bundle.json", "manifest.json", "report.json",
]


class TestRun:
    def test_full_run_offline(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(*base_args(out), "--refs", DATA / "refs.json")
        assert code == 0
        for name in EXPECTED_FILES:
            assert (out / name).exists(), name
        golds = sorted(p.name for p in (out / "golds").glob("*.json"))
        assert golds == ["gold_eclipse.json", "gold_flood.json", "gold_strike.json"]

    def test_threshold_out_of_range_is_config_error(self, tmp_path):
        code = run_cli(*base_args(tmp_path / "out"), "--threshold", "1.5")
        assert code == 2

    def test_missing_fixture_dir_is_config_error(self, tmp_path):
        code = run_cli(
            "run", "--corpus", DATA / "corpus.jsonl",
            "--out", tmp_path / "out", "--fixtures", tmp_path / "nope",
        )
        assert code == 2

    def test_empty_selection_is_valid_empty_report(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(*base_args(out), "--only-topics", "doesnotexist")
        assert code == 0
        lines = (out / "partition.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_without_refs_emits_na_relevance_and_warning(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(*base_args(out))
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("relevance tables will be NA" in w for w in manifest["warnings"])
        precision = (out / "precision_all.csv").read_text().splitlines()[1:]
        assert precision and all(",NA,0," in line for line in precision)

    def test_manifest_counts_and_warning_tally(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", DATA / "refs.json") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["counts"]["posts"] == 60
        assert manifest["counts"]["topics"] == 3
        assert manifest["warning_count"] == len(manifest["warnings"])
        assert manifest["config"]["mode"] == "offline"

    def test_parallel_jobs_output_identical_to_serial(self, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "4")):
            code = run_cli(*base_args(out), "--refs", DATA / "refs.json", "--jobs", jobs)
            assert code == 0
        for path in sorted(serial.rglob("*")):
            if path.is_file():
                rel = path.relative_to(serial)
                assert (parallel / rel).read_bytes() == path.read_bytes(), rel

    def test_strict_mode_fetch_failure_exits_1(self, tmp_path, capsys):
        corpus = make_corpus(
            [make_post(id="r", source="twitter", serp_visible=True,
                       text="https://twitter.com/ghost/status/1")]
        )
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus, corpus_path)
        fixtures = tmp_path / "responses"
        fixtures.mkdir()
        code = run_cli(
            "run", "--corpus", corpus_path, "--out", tmp_path / "out",
            "--fixtures", fixtures, "--strict",
        )
        assert code == 1
        # The error names its tag once, then the transport's detail.
        assert capsys.readouterr().err.startswith(
            "error: missing-fixture: no fixture for https://twitter.com/ghost/status/1 ("
        )

    def test_lenient_mode_same_corpus_exits_0(self, tmp_path):
        corpus = make_corpus(
            [make_post(id="r", source="twitter", serp_visible=True,
                       text="https://twitter.com/ghost/status/1")]
        )
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus, corpus_path)
        fixtures = tmp_path / "responses"
        fixtures.mkdir()
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", corpus_path, "--out", out, "--fixtures", fixtures) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("not resolvable" in w for w in manifest["warnings"])

    def test_overflowing_last_modified_does_not_stop_a_lenient_run(self, tmp_path):
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        [path] = [p for p in fixtures.iterdir() if b"\nLast-Modified: " in p.read_bytes()]
        huge = b"Last-Modified: Fri, 31 Dec 99999999999999999999 23:59:59 GMT"
        path.write_bytes(re.sub(rb"Last-Modified: [^\r\n]*", huge, path.read_bytes(), count=1))
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
                       "--refs", DATA / "refs.json", "--out", out) == 0
        assert (out / "age.csv").exists()

    def test_malformed_citation_href_does_not_stop_a_lenient_run(self, tmp_path):
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        [path] = [p for p in fixtures.iterdir()
                  if b"<title>Riverbend flood</title>" in p.read_bytes()]
        bad = b'<li><a href="http://[bad/x">bad</a></li>'
        path.write_bytes(path.read_bytes().replace(b"<ol>\n", b"<ol>\n" + bad, 1))
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
                       "--refs", DATA / "refs.json", "--out", out) == 0
        gold = json.loads((out / "golds" / "gold_flood.json").read_text())
        assert gold["reference_uris"] == [
            f"https://refdocs.example/flood-src-{i}" for i in (1, 2, 3)
        ]

    def test_postdates_warning_once_per_seed(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", DATA / "refs.json") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        postdates = [w for w in manifest["warnings"] if "postdates retrieval" in w]
        assert postdates == [
            "seed https://transit-news.example/strike-outlook: publication estimate "
            "2019-01-01 postdates retrieval; excluded from age aggregates"
        ]
        assert manifest["warning_count"] == len(manifest["warnings"])

    def test_each_relevant_html_page_dated_once(self, tmp_path, monkeypatch):
        dated = []
        estimate = reports.estimate_publication_date

        def counting(result, digest):
            dated.append(result.request_uri)
            return estimate(result, digest)

        monkeypatch.setattr(reports, "estimate_publication_date", counting)
        relevant = set()
        judgment = reports.RelevanceIndex.judgment

        def recording(self, seed):
            found = judgment(self, seed)
            if seed.kind == HTML_KIND and found is not None and found.relevant:
                relevant.add(seed.canonical)
            return found

        monkeypatch.setattr(reports.RelevanceIndex, "judgment", recording)
        assert run_cli(*base_args(tmp_path / "out"), "--refs", DATA / "refs.json") == 0
        assert relevant
        assert sorted(dated) == sorted(relevant)

    def test_fixtures_without_date_header_give_identical_bundles(self, tmp_path):
        corpus = make_corpus(
            [make_post(id="r", serp_visible=True, text="river flood https://news.example/flood")]
        )
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus, corpus_path)
        fixtures = tmp_path / "responses"
        page = b"<html><body><main><p>the river flood rose over the town bridge</p></main></body></html>"
        for uri in ("https://news.example/flood", "https://ref.example/flood"):
            write_fixture(fixtures, uri, 200, {"Content-Type": "text/html"}, page)
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"t1": ["https://ref.example/flood"]}))
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            args = ("run", "--corpus", corpus_path, "--fixtures", fixtures, "--refs", refs, "--out", out)
            assert run_cli(*args) == 0
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        for rel in files:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
        gold = json.loads((outs[0] / "golds" / "gold_t1.json").read_text())
        assert gold["built_at"] == "1970-01-01T00:00:00Z"

    def test_ipv6_seeds_keep_their_brackets(self, tmp_path):
        corpus = make_corpus(
            [make_post(id="r", serp_visible=True,
                       text="see http://[::1]:8080/a and http://[2001:DB8::1]/x")]
        )
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus, corpus_path)
        fixtures = tmp_path / "responses"
        fixtures.mkdir()
        out = tmp_path / "out"
        assert run_cli("run", "--corpus", corpus_path, "--out", out, "--fixtures", fixtures) == 0
        import csv as csvmod

        with (out / "seeds.csv").open(newline="") as fh:
            seeds = {row["canonical_uri"]: row["hostname"] for row in csvmod.DictReader(fh)}
        assert seeds == {"http://[::1]:8080/a": "::1", "http://[2001:db8::1]/x": "2001:db8::1"}

    def test_permalink_chain_deeper_than_the_recursion_limit(self, tmp_path):
        # Each permalink page links only the next; the last links a news
        # page. Substitution must follow all 1,500 levels.
        chain = [f"https://www.reddit.com/r/news/comments/c{i}" for i in range(1500)]
        corpus = make_corpus([make_post(id="r", serp_visible=True, text=f"see {chain[0]}")])
        corpus_path = tmp_path / "c.jsonl"
        write_corpus(corpus, corpus_path)
        fixtures = tmp_path / "responses"
        for uri, target in zip(chain, chain[1:] + ["https://news.example/final"]):
            write_fixture(fixtures, uri, 200, {"Content-Type": "text/html"},
                          f'<p><a href="{target}">next</a></p>'.encode())
        out = tmp_path / "out"
        args = ("run", "--corpus", corpus_path, "--out", out, "--fixtures", fixtures,
                "--depth-limit", "1510")
        assert run_cli(*args) == 0
        import csv as csvmod

        with (out / "seeds.csv").open(newline="") as fh:
            seeds = [row["canonical_uri"] for row in csvmod.DictReader(fh)]
        assert seeds == ["https://news.example/final"]


class TestJobs:
    """``--jobs`` changes how a run proceeds, never what it writes. The
    bundled corpus gains SERP posts linking pages that have no fixture,
    so the page-reading pass has warnings, and with --strict errors, to
    order."""

    MISSING = {
        "eclipse": "https://zzz.example/missing-page",
        "flood": "https://aaa.example/missing-page",
    }

    def corpus(self, tmp_path, topics):
        corpus = load_corpus(DATA / "corpus.jsonl")
        for topic in topics:
            post = make_post(id=f"missing-{topic}", topic_id=topic, serp_visible=True,
                             text=f"see {self.MISSING[topic]}")
            corpus.posts[post.id] = post
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        return path

    def refs_without_flood(self, tmp_path):
        refs = json.loads((DATA / "refs.json").read_text())
        del refs["flood"]
        path = tmp_path / "refs.json"
        path.write_text(json.dumps(refs))
        return path

    def run(self, corpus, refs, out, jobs, *flags):
        return run_cli("run", "--corpus", corpus, "--fixtures", DATA / "responses",
                       "--refs", refs, "--out", out, "--jobs", jobs, *flags)

    @pytest.mark.parametrize("all_refs", [True, False], ids=["all-refs", "no-flood-ref"])
    def test_jobs_2_writes_what_jobs_1_writes(self, tmp_path, all_refs):
        corpus = self.corpus(tmp_path, ("eclipse", "flood"))
        refs = DATA / "refs.json" if all_refs else self.refs_without_flood(tmp_path)
        serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
        assert self.run(corpus, refs, serial, "1") == 0
        assert self.run(corpus, refs, parallel, "2") == 0
        files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(parallel) for p in parallel.rglob("*") if p.is_file())
        for rel in files:
            assert (parallel / rel).read_bytes() == (serial / rel).read_bytes(), rel
        warnings = json.loads((serial / "manifest.json").read_text())["warnings"]
        assert any(self.MISSING["eclipse"] in w for w in warnings)
        assert any(self.MISSING["flood"] in w for w in warnings) == all_refs

    def test_strict_exit_code_does_not_depend_on_jobs(self, tmp_path):
        # Nothing judges the flood page, so no run of any --jobs reads it.
        corpus = self.corpus(tmp_path, ("flood",))
        refs = self.refs_without_flood(tmp_path)
        codes = [self.run(corpus, refs, tmp_path / f"jobs{j}", j, "--strict") for j in ("1", "2")]
        assert codes == [0, 0]


@pytest.mark.parametrize(
    "command, flag, name, text",
    [
        ("run", "--refs", "refs.json", "[]"),
        ("run", "--refs", "refs.json", '{"flood": 5, "eclipse": [3, null]}'),
        ("run", "--refs", "refs.json", "{not json"),
        ("run", "--topics", "topics.json", "[{not json"),
        ("analyze", "--golds", "golds/gold_flood.json", json.dumps(
            {"topic_id": "flood", "built_at": "2018-11-06T00:00:00Z", "reference_uris": [],
             "failures": [], "post_class": "P1An"})),
    ],
    ids=["refs-list", "refs-bad-entries", "refs-not-json", "topics-not-json", "gold-no-weights"],
)
def test_malformed_input_file_ends_with_one_error_line(tmp_path, capsys, command, flag, name, text):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    value = path.parent if flag == "--golds" else path
    assert run_cli(*base_args(tmp_path / "out", command), flag, value) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert str(path) in err
    assert "Traceback" not in err


class TestStages:
    def test_segment(self, tmp_path):
        out = tmp_path / "seg"
        assert run_cli(*base_args(out, "segment")) == 0
        lines = (out / "partition.csv").read_text().splitlines()
        assert lines[0] == "topic,source,vertical,post_class,group_count,post_count"
        assert len(lines) > 10
        assert (out / "partition_mc.csv").exists()

    def test_extract(self, tmp_path):
        out = tmp_path / "ext"
        assert run_cli(*base_args(out, "extract")) == 0
        seeds = json.loads((out / "seeds.json").read_text())
        assert seeds and {"original", "canonical", "kind", "hostname"} <= set(seeds[0])
        assert (out / "seeds.csv").read_text().splitlines()[0].startswith("topic,source")

    def test_goldstd(self, tmp_path):
        out = tmp_path / "gold"
        assert run_cli(*base_args(out, "goldstd"), "--refs", DATA / "refs.json") == 0
        gold = json.loads((out / "gold_flood.json").read_text())
        assert gold["topic_id"] == "flood"
        assert gold["reference_uris"]
        assert abs(sum(gold["weights"].values()) - 1.0) < 1e-9

    def test_each_stopped_run_writes_what_run_writes(self, tmp_path):
        """Every stage given run's flags writes run's bytes, on the bundled
        corpus and on its SERP roots grown into threads by --replies."""
        bundled = load_corpus(DATA / "corpus.jsonl")
        roots = [post for post in bundled.posts.values() if post.serp_visible]
        assert len(roots) < len(bundled.posts)
        write_corpus(make_corpus(roots, list(bundled.topics.values())), tmp_path / "roots.jsonl")
        inputs = {
            "bundled": ["--corpus", DATA / "corpus.jsonl"],
            "threads": ["--corpus", tmp_path / "roots.jsonl", "--replies", DATA / "corpus.jsonl"],
        }

        def written(out):
            return sorted(p.name for p in out.iterdir())

        for name, corpus_flags in inputs.items():
            flags = [*corpus_flags, "--fixtures", DATA / "responses"]
            refs = ["--refs", DATA / "refs.json"]
            full, seg, ext, gold, ana = (tmp_path / name / stage
                                         for stage in ("run", "seg", "ext", "gold", "ana"))

            def assert_same(out, names, reference=full):
                for file in names:
                    assert (out / file).read_bytes() == (reference / file).read_bytes(), (name, file)

            assert run_cli("run", *flags, *refs, "--out", full) == 0
            assert "PnAn" in (full / "partition.csv").read_text(), name

            assert run_cli("segment", *flags, *refs, "--out", seg) == 0
            assert written(seg) == ["partition.csv", "partition_mc.csv"]
            assert_same(seg, written(seg))

            assert run_cli("extract", *flags, *refs, "--out", ext) == 0
            assert written(ext) == ["seeds.csv", "seeds.json"]
            assert_same(ext, ["seeds.csv"])

            assert run_cli("goldstd", *flags, *refs, "--out", gold) == 0
            assert written(gold) == written(full / "golds")
            assert_same(gold, written(gold), full / "golds")

            assert run_cli("analyze", *flags, "--golds", gold, "--out", ana) == 0
            tables = [file for file in written(full) if file.endswith(".csv")]
            assert len(tables) == 16
            assert_same(ana, tables)

    def test_goldstd_without_refs_is_one_config_error(self, tmp_path, capsys):
        assert run_cli(*base_args(tmp_path / "gold", "goldstd")) == 2
        assert capsys.readouterr().err == "error: goldstd needs --refs FILE\n"
        assert not (tmp_path / "gold").exists()

    def test_goldstd_skips_segmentation_and_extraction(self, tmp_path, monkeypatch):
        import seedsmith.cli as cli

        def unexpected(*args, **kwargs):
            raise AssertionError("goldstd ran a stage it does not need")

        monkeypatch.setattr(cli, "partition_corpus", unexpected)
        monkeypatch.setattr(cli, "assemble_collections", unexpected)
        out = tmp_path / "gold"
        assert run_cli(*base_args(out, "goldstd"), "--refs", DATA / "refs.json") == 0
        assert (out / "gold_flood.json").exists()

    def test_ingest_expands_replies(self, tmp_path):
        roots = make_corpus([make_post(id="r", serp_visible=True)])
        replies = make_corpus(
            [
                make_post(id="r", serp_visible=True),
                make_post(id="c1", parent_id="r", author="bob"),
                make_post(id="c2", parent_id="c1", author="carol"),
            ]
        )
        write_corpus(roots, tmp_path / "roots.jsonl")
        write_corpus(replies, tmp_path / "replies.jsonl")
        fixtures = tmp_path / "responses"
        fixtures.mkdir()
        out = tmp_path / "out"
        code = run_cli(
            "ingest", "--corpus", tmp_path / "roots.jsonl", "--out", out,
            "--fixtures", fixtures, "--replies", tmp_path / "replies.jsonl",
        )
        assert code == 0
        ingested = load_corpus(out / "corpus.jsonl")
        assert set(ingested.posts) == {"r", "c1", "c2"}

    def test_ingest_and_segment_need_no_fixtures(self, tmp_path, capsys):
        # Neither stage fetches; a stage that does still asks for them.
        for command in ("ingest", "segment"):
            assert run_cli(command, "--corpus", DATA / "corpus.jsonl", "--out", tmp_path / command) == 0
        assert (tmp_path / "ingest" / "corpus.jsonl").exists()
        assert (tmp_path / "segment" / "partition.csv").exists()
        capsys.readouterr()
        assert run_cli("extract", "--corpus", DATA / "corpus.jsonl", "--out", tmp_path / "ext") == 2
        assert capsys.readouterr().err == "error: offline mode needs --fixtures DIR\n"
        assert not (tmp_path / "ext").exists()

    def test_analyze_with_prebuilt_golds(self, tmp_path):
        gold_dir = tmp_path / "golds"
        assert run_cli(*base_args(gold_dir, "goldstd"), "--refs", DATA / "refs.json") == 0
        out = tmp_path / "out"
        assert run_cli(*base_args(out, "analyze"), "--golds", gold_dir) == 0
        direct = tmp_path / "direct"
        assert run_cli(*base_args(direct), "--refs", DATA / "refs.json") == 0
        assert (out / "precision_all.csv").read_bytes() == (direct / "precision_all.csv").read_bytes()

    def test_topics_file_overrides_corpus_topics(self, tmp_path):
        topics = [
            {"topic_id": t, "text_query": f"query {t}", "expectation": "expected",
             "recurrence": "recurring"}
            for t in ("eclipse", "flood", "strike")
        ]
        topics_path = tmp_path / "topics.json"
        topics_path.write_text(json.dumps(topics))
        out = tmp_path / "out"
        code = run_cli(*base_args(out, "segment"), "--topics", topics_path)
        assert code == 0

    def test_topics_file_missing_topic_is_integrity_error(self, tmp_path):
        topics_path = tmp_path / "topics.json"
        topics_path.write_text(json.dumps([{"topic_id": "flood", "text_query": "q"}]))
        code = run_cli(*base_args(tmp_path / "out", "segment"), "--topics", topics_path)
        assert code == 1

    def test_topics_file_with_unknown_field_is_runtime_error(self, tmp_path):
        topics_path = tmp_path / "topics.json"
        topics_path.write_text(json.dumps([{"topic_id": "flood", "text_query": "q", "bogus": 1}]))
        code = run_cli(*base_args(tmp_path / "out", "segment"), "--topics", topics_path)
        assert code == 1

    def test_all_references_failing_warns_in_lenient_mode(self, tmp_path):
        refs = tmp_path / "refs.json"
        refs.write_text(json.dumps({"flood": ["https://gone.example/ref"]}))
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", refs) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("every reference failed" in w for w in manifest["warnings"])
        assert not (out / "golds" / "gold_flood.json").exists()

    def test_report_reemits_bundle(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", DATA / "refs.json") == 0
        csv_dir = tmp_path / "csv"
        assert run_cli("report", "--bundle", out / "bundle.json", "--out", csv_dir) == 0
        for name in ("seeds.csv", "age.csv", "diversity.csv"):
            assert (csv_dir / name).read_bytes() == (out / name).read_bytes()

    def test_report_json_carries_same_values_as_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", DATA / "refs.json") == 0
        json_dir = tmp_path / "json"
        assert run_cli("report", "--bundle", out / "bundle.json",
                       "--out", json_dir, "--format", "json") == 0
        tables = json.loads((json_dir / "report.json").read_text())
        for name, table in tables.items():
            csv_lines = (out / f"{name}.csv").read_text().splitlines()
            assert csv_lines[0].split(",") == table["header"]
            import csv as csvmod

            parsed = list(csvmod.reader(csv_lines[1:]))
            assert parsed == table["rows"]


@pytest.mark.parametrize(
    "text",
    ["{not", "[]", "{}", '{"tables": [], "manifest": {}}', '{"tables": {"age": 5}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"]}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"], "rows": [5]}}, "manifest": {}}',
     '{"tables": {"../age": {"header": ["a"], "rows": []}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"], "rows": [], "note": "x"}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a", 1], "rows": []}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"], "rows": [["x"], [null]]}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"], "rows": [[["x"]]]}}, "manifest": {}}',
     '{"tables": {"age": {"header": ["a"], "rows": "x"}}, "manifest": {}}',
     '{"tables": {"t": {"header": ["a"], "rows": [["\\ud800"]]}}, "manifest": {}}',
     '{"tables": {}, "manifest": {"warnings": ["x\\udfff"]}}'],
    ids=["not-json", "list", "empty-object", "tables-not-object", "table-not-object", "table-no-rows",
         "row-not-list", "table-name-a-path", "table-extra-key", "header-cell-not-string",
         "row-cell-not-string", "row-cell-a-list", "rows-not-list", "cell-lone-surrogate",
         "manifest-lone-surrogate"],
)
def test_malformed_bundle_ends_with_one_error_line(tmp_path, capsys, text):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(text)
    assert run_cli("report", "--bundle", bundle, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad bundle file {bundle}: ")
    assert len(err.splitlines()) == 1
    if "\\u" in text:
        assert err.endswith(": a string holds a lone surrogate, which is not UTF-8 text\n")
    if '"age": {' in text:
        assert err.startswith(f"error: bad bundle file {bundle}: table age: ")
    assert list(tmp_path.iterdir()) == [bundle]


def _appended_post(tmp_path, drop=(), **fields):
    """Writes bad.jsonl: the bundled corpus plus one post record copied
    from its line 2 under the id ``zz``, without ``drop`` and with
    ``fields`` set; returns the file and the new line's number."""
    lines = (DATA / "corpus.jsonl").read_text().splitlines()
    record = {**json.loads(lines[1]), "id": "zz", **fields}
    for key in drop:
        del record[key]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
    return path, len(lines) + 1


def _cli_subprocess(*args):
    """``seedsmith`` in a fresh interpreter: its stderr is all the program
    prints there, with no handler of the test runner's in between."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "seedsmith.cli", *map(str, args)], env=env, capture_output=True, text=True
    )


def test_each_warning_goes_to_the_runs_list_once(tmp_path):
    path, _line = _appended_post(
        tmp_path, raw_links=["http://[bad/x"], text="see https://www.reddit.com/r/x/comments/abc1"
    )
    extracted = [
        "post zz: skipping unparseable URI 'http://[bad/x'",
        "intra-site URI https://www.reddit.com/r/x/comments/abc1 not resolvable (missing-fixture); kept as-is",
    ]
    args = ["--corpus", path, "--fixtures", DATA / "responses"]
    stopped = _cli_subprocess("extract", *args, "--out", tmp_path / "ext")
    assert stopped.returncode == 0
    assert stopped.stderr == "".join(f"warning: {w}\n" for w in extracted)

    out = tmp_path / "out"
    full = _cli_subprocess("run", *args, "--refs", DATA / "refs.json", "--out", out)
    assert (full.returncode, full.stderr) == (0, "")
    assert json.loads((out / "manifest.json").read_text())["warnings"] == [
        *extracted,
        "seed https://www.reddit.com/r/x/comments/abc1 not fetchable (missing-fixture); judged on empty text",
        "seed https://transit-news.example/strike-outlook: publication estimate 2019-01-01 postdates "
        "retrieval; excluded from age aggregates",
    ]


_PERMALINK = "https://www.reddit.com/r/x/comments/abc1"
_UNRESOLVABLE = f"intra-site URI {_PERMALINK} not resolvable (missing-fixture); kept as-is"
_AGE_WARNING = (
    "seed https://transit-news.example/strike-outlook: publication estimate 2019-01-01 postdates "
    "retrieval; excluded from age aggregates"
)


def _corpus_with(tmp_path, *records):
    """Writes plus.jsonl: the bundled corpus plus, for each dict in
    ``records``, a copy of its line 2 (root post ``cr1``) updated with it."""
    lines = (DATA / "corpus.jsonl").read_text().splitlines()
    added = [json.dumps({**json.loads(lines[1]), **fields}) for fields in records]
    path = tmp_path / "plus.jsonl"
    path.write_text("\n".join([*lines, *added]) + "\n")
    return path


def _manifest_warnings(tmp_path, corpus):
    out = tmp_path / "out"
    assert run_cli("run", "--corpus", corpus, "--fixtures", DATA / "responses",
                   "--refs", DATA / "refs.json", "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warning_count"] == len(manifest["warnings"])
    return manifest["warnings"]


def test_post_in_two_groups_lists_each_warning_once(tmp_path, capsys):
    # zz, a reply to cr1 by cr1's author, sits in cr1/PnA1/zz and cr1/PnAn.
    corpus = _corpus_with(tmp_path, {
        "id": "zz", "parent_id": "cr1", "serp_visible": False,
        "raw_links": ["http://[bad/x"], "text": f"see {_PERMALINK}",
    })
    extracted = ["post zz: skipping unparseable URI 'http://[bad/x'", _UNRESOLVABLE]
    assert run_cli("extract", "--corpus", corpus, "--fixtures", DATA / "responses",
                   "--out", tmp_path / "ext") == 0
    assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in extracted)
    assert _manifest_warnings(tmp_path, corpus) == [
        *extracted,
        f"seed {_PERMALINK} not fetchable (missing-fixture); judged on empty text",
        _AGE_WARNING,
    ]


def test_shared_unresolvable_permalink_warns_once(tmp_path):
    # Two posts, in two topics with gold standards, link one permalink
    # that cannot be fetched: it is expanded once and its page is read
    # once per topic, but the run lists each warning once.
    corpus = _corpus_with(
        tmp_path,
        {"id": "zz1", "text": f"see {_PERMALINK}"},
        {"id": "zz2", "topic_id": "strike", "query": "national rail strike", "text": _PERMALINK},
    )
    assert _manifest_warnings(tmp_path, corpus) == [
        _UNRESOLVABLE,
        f"seed {_PERMALINK} not fetchable (missing-fixture); judged on empty text",
        _AGE_WARNING,
    ]


def _run_with(tmp_path, flag, path):
    args = base_args(tmp_path / "out")
    if flag == "--corpus":
        args[args.index("--corpus") + 1] = path
    else:
        args += ["--replies", path]
    return run_cli(*args)


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
def test_missing_field_is_named_once(tmp_path, capsys, flag):
    path, line = _appended_post(tmp_path, drop=("source",))
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line}: missing field 'source'\n"


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
def test_bad_timestamp_is_named_once(tmp_path, capsys, flag):
    path, line = _appended_post(tmp_path, retrieved_at="yesterday")
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line {line}: field 'retrieved_at' is not a valid timestamp: "
        "Invalid isoformat string: 'yesterday'\n"
    )


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
@pytest.mark.parametrize(
    "fields, message",
    [({"parent_id": "ghost", "serp_visible": False}, "posts with dangling parent_id: zz"),
     ({"topic_id": "ghost"}, "posts reference unknown topics: ghost")],
    ids=["dangling-parent", "unknown-topic"],
)
def test_integrity_error_names_the_file(tmp_path, capsys, flag, fields, message):
    path, _line = _appended_post(tmp_path, **fields)
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_replies_that_contradict_the_corpus_name_the_replies_file(tmp_path, capsys):
    # Each file is consistent on its own; only the grown threads are not.
    roots = make_corpus([make_post(id="r", serp_visible=True)])
    replies = make_corpus(
        [make_post(id="r", serp_visible=True, source="twitter"),
         make_post(id="c1", parent_id="r", source="twitter", author="bob")]
    )
    write_corpus(roots, tmp_path / "roots.jsonl")
    write_corpus(replies, tmp_path / "replies.jsonl")
    (tmp_path / "responses").mkdir()
    code = run_cli(
        "ingest", "--corpus", tmp_path / "roots.jsonl", "--out", tmp_path / "out",
        "--fixtures", tmp_path / "responses", "--replies", tmp_path / "replies.jsonl",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'replies.jsonl'}: "
        "post c1: parent r belongs to a different topic or source\n"
    )


def test_topics_file_missing_topic_names_the_topics_file(tmp_path, capsys):
    topics_path = tmp_path / "topics.json"
    topics_path.write_text(json.dumps([{"topic_id": "flood", "text_query": "q"}]))
    assert run_cli(*base_args(tmp_path / "out", "segment"), "--topics", topics_path) == 1
    assert capsys.readouterr().err == (
        f"error: bad topics file {topics_path}: posts reference unknown topics: eclipse, strike\n"
    )


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
@pytest.mark.parametrize("bad_line", [1, 3])
def test_corpus_not_utf8_ends_with_one_error_line(tmp_path, capsys, flag, bad_line):
    lines = (DATA / "corpus.jsonl").read_bytes().splitlines(keepends=True)
    lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
    path = tmp_path / f"{flag[2:]}.jsonl"
    path.write_bytes(b"".join(lines))
    assert _run_with(tmp_path, flag, path) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line {bad_line}: not UTF-8 text\n"


def test_unwritable_output_dir_is_runtime_error(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    code = run_cli(*base_args(blocker / "out", "segment"))
    assert code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
def test_lone_surrogate_in_corpus_is_named_once(tmp_path, capsys, flag):
    # json.dumps writes the surrogate as a \ud800 escape, which decodes
    # to a string no UTF-8 file can hold.
    path, line = _appended_post(tmp_path, text="see https://news.example/x\ud800y")
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line {line}: a string holds a lone surrogate, which is not UTF-8 text\n"
    )


def test_lone_surrogate_in_refs_names_the_topic(tmp_path, capsys):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"flood": "https://encyclo.example/wiki/Riverbend\ud800_flood"}))
    assert run_cli(*base_args(tmp_path / "out"), "--refs", refs) == 1
    assert capsys.readouterr().err == (
        f"error: bad refs file {refs}: topic 'flood': "
        "a string holds a lone surrogate, which is not UTF-8 text\n"
    )
