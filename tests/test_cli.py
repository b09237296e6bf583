import json
from pathlib import Path

import pytest

from conftest import make_corpus, make_post
from seedsmith import reports
from seedsmith.cli import main
from seedsmith.corpus import write_corpus, write_fixture
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

    def test_strict_mode_fetch_failure_exits_1(self, tmp_path):
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

        def counting(result, estimators):
            dated.append(result.request_uri)
            return estimate(result, estimators)

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
        full = tmp_path / "run"
        assert run_cli(*base_args(full), "--refs", DATA / "refs.json") == 0

        def written(out):
            return sorted(p.name for p in out.iterdir())

        def assert_same(out, names, reference=full):
            for name in names:
                assert (out / name).read_bytes() == (reference / name).read_bytes(), name

        seg, ext, gold, ana = (tmp_path / name for name in ("seg", "ext", "gold", "ana"))
        assert run_cli(*base_args(seg, "segment")) == 0
        assert written(seg) == ["partition.csv", "partition_mc.csv"]
        assert_same(seg, written(seg))

        assert run_cli(*base_args(ext, "extract")) == 0
        assert written(ext) == ["seeds.csv", "seeds.json"]
        assert_same(ext, ["seeds.csv"])

        assert run_cli(*base_args(gold, "goldstd"), "--refs", DATA / "refs.json") == 0
        assert written(gold) == written(full / "golds")
        assert_same(gold, written(gold), full / "golds")

        assert run_cli(*base_args(ana, "analyze"), "--golds", gold) == 0
        tables = [name for name in written(full) if name.endswith(".csv")]
        assert len(tables) == 16
        assert_same(ana, tables)

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
        from seedsmith.corpus import load_corpus

        ingested = load_corpus(out / "corpus.jsonl")
        assert set(ingested.posts) == {"r", "c1", "c2"}

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


def test_unwritable_output_dir_is_runtime_error(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file in the way")
    code = run_cli(*base_args(blocker / "out", "segment"))
    assert code == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
