import contextlib
import csv as csvmod
import functools
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_post
from seedsmith import cli, reports
from seedsmith.cli import main
from seedsmith.corpus.fetch import Fetcher, FixtureTransport, write_fixture
from seedsmith.corpus.jsonl import POST_FIELDS, TOPIC_FIELDS, load_corpus, write_corpus
from seedsmith.extraction import HTML_KIND
from seedsmith.stopwords import STOPWORDS_VERSION
from test_pipebench_view import load
from test_records import _modules_after

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
    "manifest.json",
]


class TestRun:
    def test_full_run_offline(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(*base_args(out), "--refs", DATA / "refs.json")
        assert code == 0
        for name in EXPECTED_FILES:
            assert (out / name).exists(), name
        assert not (out / "report.json").exists()
        assert sorted(p.name for p in out.iterdir()) == sorted([*EXPECTED_FILES, "golds"])
        golds = sorted(p.name for p in (out / "golds").glob("*.json"))
        assert golds == ["gold_eclipse.json", "gold_flood.json", "gold_strike.json"]

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--threshold", "1.5"), "--threshold"),
            (("--jobs", "-1"), "--jobs"),
            (("--depth-limit", "-1"), "--depth-limit"),
            (("--reply-limit", "-1"), "--reply-limit"),
            (("--max-redirects", "-1"), "--max-redirects"),
            (("--politeness-delay", "-1"), "--politeness-delay"),
            (("--politeness-delay", "nan"), "--politeness-delay"),
            (("--politeness-delay", "inf"), "--politeness-delay"),
            (("--golds", DATA / "nope"), str(DATA / "nope")),
            (("--golds", DATA / "refs.json"), str(DATA / "refs.json")),
            (("--golds", DATA, "--refs", DATA / "refs.json"), "--refs"),
        ],
        ids=["threshold", "jobs", "depth-limit", "reply-limit", "max-redirects",
             "politeness-delay-negative", "politeness-delay-nan", "politeness-delay-inf", "golds-missing", "golds-file", "golds-and-refs"],
    )
    def test_threshold_out_of_range_is_config_error(self, tmp_path, capsys, flags, named):
        code = run_cli(*base_args(tmp_path / "out"), *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert named in err
        assert not (tmp_path / "out").exists()

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

    def test_empty_golds_dir_warns(self, tmp_path):
        golds, out = tmp_path / "golds", tmp_path / "out"
        golds.mkdir()
        assert run_cli(*base_args(out), "--golds", golds) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert f"no gold_*.json file in --golds {golds}; relevance tables will be NA" in manifest["warnings"]
        assert manifest["counts"]["gold_standards"] == 0

    DEFAULT_ECHO = {
        "corpus": str(DATA / "corpus.jsonl"), "fixtures": str(DATA / "responses"),
        "mode": "offline", "strict": False, "threshold": 0.25, "dist_mode": "normalized",
        "reference_source": "google", "reply_limit": 500, "depth_limit": 3, "max_redirects": 10,
        "mc_exclude_root": False, "global_dedup": False, "fetch_kinds": False,
        "only_topics": [], "only_sources": [], "only_verticals": [],
    }

    @pytest.mark.parametrize(
        "flags, changed",
        [
            ((), {}),
            (("--threshold", "0.4", "--dist-mode", "literal", "--reference-source", "reddit",
              "--reply-limit", "7", "--depth-limit", "1", "--max-redirects", "4", "--strict",
              "--mc-exclude-root", "--global-dedup", "--only-topics", "flood,eclipse",
              "--only-sources", "reddit", "--only-verticals", "top", "--jobs", "2",
              "--politeness-delay", "0.5", "--refs", DATA / "refs.json"),
             {"threshold": 0.4, "dist_mode": "literal", "reference_source": "reddit",
              "reply_limit": 7, "depth_limit": 1, "max_redirects": 4, "strict": True,
              "mc_exclude_root": True, "global_dedup": True,
              "only_topics": ["flood", "eclipse"], "only_sources": ["reddit"],
              "only_verticals": ["top"]}),
        ],
        ids=["defaults", "non-defaults"],
    )
    def test_manifest_echoes_exactly_the_output_shaping_flags(self, tmp_path, flags, changed):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {**self.DEFAULT_ECHO, **changed}

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

    def test_each_relevant_html_page_dated_once(self, tmp_path, monkeypatch, live_mode):
        # A flood post and a strike post link one page, relevant to both
        # topics, through two 301 aliases: each alias is a seed URI of its
        # own, dated once, at any --jobs (live at 2, where workers judge).
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        page = "https://both.example/flood-and-strike"
        write_fixture(fixtures, page, 200, {"Content-Type": "text/html"},
                      b"<p>riverbend flood levee evacuation rainfall river crest rescue water; "
                      b"national rail strike union walkout workers trains railway negotiation</p>")
        corpus = load_corpus(DATA / "corpus.jsonl")
        aliases = [f"https://both.example/old-{topic}" for topic in ("flood", "strike")]
        for alias, topic in zip(aliases, ("flood", "strike")):
            write_fixture(fixtures, alias, 301, {"Location": page}, b"")
            post = make_post(id=f"alias-{topic}", topic_id=topic, serp_visible=True, text=f"see {alias}")
            corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        dated = []
        estimate = reports.estimate_publication_date

        def counting(result, digest):
            dated.append(result.request_uri)
            return estimate(result, digest)

        monkeypatch.setattr(reports, "estimate_publication_date", counting)
        relevant = set()
        judge_seeds = cli.judge_seeds

        def recording(*args, **kwargs):
            judgments, dates = judge_seeds(*args, **kwargs)
            relevant.update(uri for (_topic, kind, uri), found in judgments.items()
                            if kind == HTML_KIND and found.relevant)
            return judgments, dates

        monkeypatch.setattr(cli, "judge_seeds", recording)
        for jobs in ("1", "2"):
            dated.clear()
            relevant.clear()
            assert run_cli("run", "--corpus", tmp_path / "corpus.jsonl", "--out", tmp_path / f"jobs{jobs}",
                           "--fixtures", fixtures, "--refs", DATA / "refs.json", "--jobs", jobs,
                           *(live_mode if jobs == "2" else ())) == 0
            assert set(aliases) <= relevant
            assert sorted(dated) == sorted(relevant)

    def test_no_page_is_read_after_judging(self, tmp_path, monkeypatch):
        """Judging is the run's last page reader: once ``judge_seeds``
        returns, no table dereferences, digests or reads a page."""
        calls = []  # (method, whether judging had ended)
        judged = []
        for name in ("dereference", "digest", "text"):
            method = getattr(Fetcher, name)

            def recording(fetcher, arg, _name=name, _method=method):
                calls.append((_name, bool(judged)))
                return _method(fetcher, arg)

            monkeypatch.setattr(Fetcher, name, recording)
        judge_seeds = cli.judge_seeds
        monkeypatch.setattr(cli, "judge_seeds", lambda *a, **kw: (judge_seeds(*a, **kw), judged.append(1))[0])
        assert run_cli(*base_args(tmp_path / "out"), "--refs", DATA / "refs.json") == 0
        assert judged
        assert {name for name, _after in calls} == {"dereference", "digest", "text"}
        assert [name for name, after in calls if after] == []

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
        with (out / "seeds.csv").open(newline="") as fh:
            seeds = [row["canonical_uri"] for row in csvmod.DictReader(fh)]
        assert seeds == ["https://news.example/final"]


class TestJobs:
    """``--jobs`` changes how a run proceeds, never what it writes. The
    bundled corpus gains SERP posts linking pages that have no fixture,
    so the page-reading pass has warnings, and with --strict errors, to
    order. Only a live run judges with ``--jobs`` workers, so every run
    here is live, over fixtures and without a network."""

    @pytest.fixture(autouse=True)
    def live(self, live_mode):
        self.mode = live_mode

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

    def run(self, corpus, refs, out, jobs, *flags, fixtures=DATA / "responses"):
        return run_cli("run", *self.mode, "--corpus", corpus, "--fixtures", fixtures,
                       "--refs", refs, "--out", out, "--jobs", jobs, *flags)

    @staticmethod
    def assert_same_files(first, *others):
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        for other in others:
            assert files == sorted(p.relative_to(other) for p in other.rglob("*") if p.is_file())
            for rel in files:
                assert (other / rel).read_bytes() == (first / rel).read_bytes(), rel

    @pytest.mark.parametrize("all_refs", [True, False], ids=["all-refs", "no-flood-ref"])
    def test_jobs_2_writes_what_jobs_1_writes(self, tmp_path, all_refs):
        corpus = self.corpus(tmp_path, ("eclipse", "flood"))
        refs = DATA / "refs.json" if all_refs else self.refs_without_flood(tmp_path)
        serial, parallel = tmp_path / "jobs1", tmp_path / "jobs2"
        assert self.run(corpus, refs, serial, "1") == 0
        assert self.run(corpus, refs, parallel, "2") == 0
        self.assert_same_files(serial, parallel)
        warnings = json.loads((serial / "manifest.json").read_text())["warnings"]
        assert any(self.MISSING["eclipse"] in w for w in warnings)
        assert any(self.MISSING["flood"] in w for w in warnings) == all_refs

    def test_jobs_0_writes_what_jobs_1_writes(self, tmp_path):
        # --jobs 0 is valid input and reads the pages in this thread.
        corpus = self.corpus(tmp_path, ("eclipse", "flood"))
        outs = [tmp_path / f"jobs{j}" for j in ("0", "1")]
        for out in outs:
            assert self.run(corpus, DATA / "refs.json", out, out.name[4:]) == 0
        self.assert_same_files(*outs)

    def test_strict_exit_code_does_not_depend_on_jobs(self, tmp_path):
        # Nothing judges the flood page, so no run of any --jobs reads it.
        corpus = self.corpus(tmp_path, ("flood",))
        refs = self.refs_without_flood(tmp_path)
        codes = [self.run(corpus, refs, tmp_path / f"jobs{j}", j, "--strict") for j in ("1", "2")]
        assert codes == [0, 0]

    def test_strict_run_stops_at_its_first_failure(self, tmp_path, monkeypatch):
        """The first judged page has no fixture, so a strict run fails
        there, and at --jobs 2 the pages queued behind it are never read.
        Once judging has begun, every request but that page's takes 0.2 s,
        so the other worker cannot race past the failure."""
        corpus = load_corpus(DATA / "corpus.jsonl")
        gone = [f"https://gone.example/page-{i}" for i in range(3)]
        for i, uri in enumerate(gone):  # the run's first cell: eclipse, google
            post = make_post(id=f"gone-{i}", topic_id="eclipse", source="google", vertical="all",
                             serp_visible=True, text=f"see {uri}")
            corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        judging = []
        judge_seeds = cli.judge_seeds
        monkeypatch.setattr(cli, "judge_seeds", lambda *a, **kw: judging.append(1) or judge_seeds(*a, **kw))
        requested = []
        request = FixtureTransport.request

        def counting(transport, uri):
            requested.append(uri)
            if judging and uri != gone[0]:
                time.sleep(0.2)
            return request(transport, uri)

        monkeypatch.setattr(FixtureTransport, "request", counting)
        counts = []
        for jobs in ("1", "2"):
            requested.clear()
            judging.clear()
            assert self.run(tmp_path / "corpus.jsonl", DATA / "refs.json", tmp_path / f"jobs{jobs}", jobs,
                            "--strict") == 1
            assert gone[0] in requested
            counts.append(len(requested))
        assert counts[0] == 11
        assert counts[0] <= counts[1] <= counts[0] + 2

    def test_redirected_page_writes_the_same_at_any_jobs(self, tmp_path):
        # flood links news-b's page directly, eclipse and strike through
        # 301 aliases; threads switch often, so tasks race to the page.
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        corpus = load_corpus(DATA / "corpus.jsonl")
        aliases = [f"https://news-b.example/old-flood-b-{topic}" for topic in ("eclipse", "strike")]
        for alias, topic in zip(aliases, ("eclipse", "strike")):
            write_fixture(fixtures, alias, 301, {"Location": "https://news-b.example/flood-b"}, b"")
            post = make_post(id=f"alias-{topic}", topic_id=topic, serp_visible=True, text=f"see {alias}")
            corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        outs = [tmp_path / f"jobs{jobs}" for jobs in ("1", "2", "4")]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for out in outs:
                assert self.run(tmp_path / "corpus.jsonl", DATA / "refs.json", out, out.name[4:],
                                fixtures=fixtures) == 0
        finally:
            sys.setswitchinterval(switch)
        seeds = (outs[0] / "seeds.csv").read_text(encoding="utf-8")
        assert all(alias in seeds for alias in aliases)
        self.assert_same_files(*outs)

    def test_tasks_reaching_one_page_together_read_it_once(self, tmp_path, monkeypatch):
        """One eclipse post links news-b's flood page through two 301
        aliases, so at --jobs 2 both tasks reach the page at once. Taking
        the text is slowed to 0.2 s, so the second task finds the page
        mid-judgment: it must wait and reuse the judgments, not read the
        page anew and judge it again."""
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        page = "https://news-b.example/flood-b"
        aliases = [f"https://news-b.example/old-flood-b-{i}" for i in range(2)]
        for alias in aliases:
            write_fixture(fixtures, alias, 301, {"Location": page}, b"")
        corpus = load_corpus(DATA / "corpus.jsonl")
        post = make_post(id="aliases", topic_id="eclipse", serp_visible=True, text=" ".join(aliases))
        corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        requested = []
        request = FixtureTransport.request
        monkeypatch.setattr(FixtureTransport, "request",
                            lambda transport, uri: requested.append(uri) or request(transport, uri))
        text = Fetcher.text
        monkeypatch.setattr(Fetcher, "text", lambda fetcher, result: time.sleep(0.2) or text(fetcher, result))
        judged = []
        judge_relevance = reports.judge_relevance
        monkeypatch.setattr(reports, "judge_relevance", lambda *a: judged.append(1) or judge_relevance(*a))
        outs = [tmp_path / f"jobs{jobs}" for jobs in ("1", "2")]
        counts = []
        for out in outs:
            requested.clear()
            judged.clear()
            assert self.run(tmp_path / "corpus.jsonl", DATA / "refs.json", out, out.name[4:],
                            fixtures=fixtures) == 0
            counts.append((requested.count(page), len(judged)))
        # Each request URI reaching the page fetches it once; a second
        # read of its text would fetch it once more.
        assert counts[1] == counts[0]
        self.assert_same_files(*outs)


def _page_readers(monkeypatch) -> list:
    """The thread of each ``Fetcher.text`` call: only judging takes a text."""
    readers = []
    text = Fetcher.text
    monkeypatch.setattr(Fetcher, "text",
                        lambda fetcher, result: readers.append(threading.current_thread()) or text(fetcher, result))
    return readers


def test_offline_run_judges_every_page_on_the_main_thread(tmp_path, monkeypatch):
    """Offline, judging is CPU-bound, so any --jobs judges in the main
    thread and never loads the worker pool's module."""
    readers = _page_readers(monkeypatch)
    args = [*base_args(tmp_path / "out"), "--refs", DATA / "refs.json", "--jobs", "4"]
    assert run_cli(*args) == 0
    assert readers and set(readers) == {threading.main_thread()}
    argv = [str(arg) for arg in base_args(tmp_path / "again")] + ["--refs", str(DATA / "refs.json"), "--jobs", "4"]
    loaded = _modules_after(f"from seedsmith.cli import main; assert main({argv!r}) == 0")
    assert "seedsmith.reports" in loaded
    assert "concurrent.futures" not in loaded


def test_live_run_judges_with_its_jobs_workers(tmp_path, monkeypatch, live_mode):
    """A live run waits on the network, so --jobs 2 judges every page in
    one of two pool workers, and writes what an offline run over the
    same fixtures writes."""
    readers = _page_readers(monkeypatch)
    live, offline = tmp_path / "live", tmp_path / "offline"
    assert run_cli(*base_args(live), *live_mode, "--refs", DATA / "refs.json", "--jobs", "2") == 0
    assert readers and threading.main_thread() not in readers
    assert len(set(readers)) <= 2
    assert run_cli(*base_args(offline), "--refs", DATA / "refs.json") == 0
    files = sorted(p.relative_to(live) for p in live.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(offline) for p in offline.rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "manifest.json":
            assert (live / rel).read_bytes() == (offline / rel).read_bytes(), rel
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (live, offline)]
    assert [manifest["config"].pop("mode") for manifest in manifests] == ["live", "offline"]
    assert manifests[0] == manifests[1]


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
        lines = (out / "seeds.csv").read_text().splitlines()
        assert lines[:2] == [
            "topic,source,vertical,post_class,canonical_uri,kind,hostname,post_id,retrieved_at",
            "eclipse,google,all,P1A1,https://sci-journal.example/totality-timeline,html,"
            "sci-journal.example,eg1,2018-11-06T00:00:00Z",
        ]

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
            assert written(ext) == ["seeds.csv"]
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
        assert run_cli("report", "--bundle", out, "--out", csv_dir) == 0
        tables = sorted(p.name for p in out.glob("*.csv"))
        assert len(tables) == 16
        assert sorted(p.name for p in csv_dir.iterdir()) == tables
        for name in tables:
            assert (csv_dir / name).read_bytes() == (out / name).read_bytes(), name

    def test_report_json_carries_same_values_as_csv(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(*base_args(out), "--refs", DATA / "refs.json") == 0
        json_dir = tmp_path / "json"
        assert run_cli("report", "--bundle", out, "--out", json_dir, "--format", "json") == 0
        assert [p.name for p in json_dir.iterdir()] == ["report.json"]
        tables = {}
        for path in out.glob("*.csv"):
            csv_lines = path.read_text().splitlines()
            header = csv_lines[0].split(",")
            tables[path.stem] = {"header": header, "rows": list(csvmod.reader(csv_lines[1:]))}
        assert len(tables) == 16
        want = json.dumps(tables, ensure_ascii=False, indent=2, sort_keys=True) + "\n"
        assert (json_dir / "report.json").read_bytes() == want.encode()


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
    """``report`` reads a run's CSVs, never a bundle file: a bundle.json,
    whatever it holds, given itself or as the one file of a directory,
    is one error line naming it, and nothing is written."""
    bundle = tmp_path / "bundle.json"
    bundle.write_text(text)
    for given, why in ((bundle, "not a directory"), (tmp_path, "no CSV file")):
        assert run_cli("report", "--bundle", given, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: bad run directory {given}: {why}\n"
    assert list(tmp_path.iterdir()) == [bundle]


def _ingest_output(path):
    assert run_cli("ingest", "--corpus", DATA / "corpus.jsonl", "--out", path) == 0


def _csvs(**files):
    def write(path):
        path.mkdir()
        (path / "good.csv").write_bytes(b"h\nx\n")
        for name, data in files.items():
            (path / f"{name}.csv").write_bytes(data)
    return write


@pytest.mark.parametrize(
    "make, why",
    [(None, "not a directory"),
     (lambda path: path.write_text('{"tables": {"t": {"header": ["a"], "rows": []}}, "manifest": {}}'),
      "not a directory"),
     (_ingest_output, "no CSV file"),
     (_csvs(bad=b"h\n\xffx\n"), "bad.csv: 'utf-8' codec can't decode byte 0xff"),
     (_csvs(bad=b"h\n\xed\xa0\x80\n"), "bad.csv: 'utf-8' codec can't decode byte 0xed"),
     (_csvs(empty=b""), "empty.csv is empty")],
    ids=["missing", "bundle-file", "ingest-output", "csv-not-utf8", "csv-lone-surrogate", "csv-empty"],
)
def test_bad_run_directory_ends_with_one_error_line(tmp_path, capsys, make, why):
    given = tmp_path / "given"
    if make is not None:
        make(given)
    capsys.readouterr()
    for fmt in ("csv", "json"):
        assert run_cli("report", "--bundle", given, "--out", tmp_path / "out", "--format", fmt) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad run directory {given}: {why}")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()


def test_csv_file_name_not_utf8_is_one_error_line(tmp_path):
    # Run in a fresh interpreter, whose stderr escapes the name's
    # undecodable byte as the program's own stderr does.
    given = tmp_path / "given"
    _csvs()(given)
    (given / os.fsdecode(b"\xff.csv")).write_bytes(b"h\n")
    done = _cli_subprocess("report", "--bundle", given, "--out", tmp_path / "out", "--format", "json")
    assert done.returncode == 1
    assert done.stderr.startswith(f"error: bad run directory {given}: \\udcff.csv: 'utf-8' codec can't encode")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _appended_post(tmp_path, drop=(), **fields):
    """Writes bad.jsonl: the bundled corpus plus one post record copied
    from its line 2 under the id ``zz``, without ``drop`` and with
    ``fields`` set; returns the file and the new line's number."""
    lines = (DATA / "corpus.jsonl").read_text().splitlines()
    record = {**json.loads(lines[1]), "id": "zz", **fields}
    for key in drop:
        del record[key]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join([*lines, _json_text(record)]) + "\n")
    return path, len(lines) + 1


def _nested(depth: int) -> str:
    """A stand-in, for ``_json_text``, for a JSON array nested ``depth``
    deep, which no value that json.dumps can encode holds."""
    return f"\0nested {depth}\0"


def _json_text(payload) -> str:
    """``json.dumps(payload)`` with each ``_nested`` stand-in written as
    its nested array."""
    return re.sub(r'"\\u0000nested (\d+)\\u0000"', lambda m: "[" * int(m[1]) + "]" * int(m[1]),
                  json.dumps(payload))


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


@pytest.mark.parametrize(
    "text, reason",
    [('{"topics": []}', "not a list of topic records"),
     (json.dumps([{"topic_id": "flood", "text_query": "q"}, {"topic_id": "flood", "text_query": "r"}]),
      "duplicate topic id: flood"),
     (json.dumps([{"topic_id": "flood", "text_query": "q\ud800"}]),
      "a string holds a lone surrogate, which is not UTF-8 text")],
    ids=["object", "duplicate-id", "lone-surrogate"],
)
def test_bad_topics_file_is_one_error(tmp_path, capsys, text, reason):
    topics_path = tmp_path / "topics.json"
    topics_path.write_text(text)
    assert run_cli(*base_args(tmp_path / "out", "segment"), "--topics", topics_path) == 1
    assert capsys.readouterr().err == f"error: bad topics file {topics_path}: {reason}\n"


def test_corpus_topics_that_are_not_a_list_is_one_error(tmp_path, capsys):
    lines = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(['{"kind": "topics", "topics": 5}', *lines[1:]]) + "\n")
    assert _run_with(tmp_path, "--corpus", path) == 1
    assert capsys.readouterr().err == f"error: {path}: line 1: field 'topics' is not a list of topic records\n"


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
def test_misspelt_field_is_named_once(tmp_path, capsys, flag):
    # Read as absent, serp_visble would leave the post not SERP-visible.
    path, line = _appended_post(tmp_path, drop=("serp_visible",), serp_visble=True)
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line}: unknown field 'serp_visble'\n"


@pytest.mark.parametrize("flag", ["--corpus", "--replies"])
@pytest.mark.parametrize(
    "field, value, kind",
    [("text", None, "a string"), ("retrieved_at", 5, "a valid timestamp"),
     ("created_at", 5, "a valid timestamp"), ("topic_id", 7, "a string"), ("source", 7, "a string"),
     ("vertical", None, "a string"), ("id", 3, "a string"), ("serp_visible", "false", "a boolean"),
     ("author", 5, "a string"), ("raw_links", [1, 2], "a list of strings"), ("platform_uri", [1], "a string")],
)
def test_post_field_of_another_kind_is_named_once(tmp_path, capsys, flag, field, value, kind):
    path, line = _appended_post(tmp_path, **{field: value})
    assert _run_with(tmp_path, flag, path) == 1
    assert capsys.readouterr().err == f"error: {path}: line {line}: field '{field}' is not {kind}\n"


@pytest.mark.parametrize("bad", ["fl/ood", "fl\u0000ood"])
def test_topic_id_that_cannot_name_a_gold_file_is_one_error(tmp_path, capsys, bad):
    # Each topic's gold is written to gold_<topic_id>.json.
    corpus, topics = tmp_path / "corpus.jsonl", tmp_path / "topics.json"
    corpus.write_text((DATA / "corpus.jsonl").read_text(encoding="utf-8").replace(
        '"flood"', json.dumps(bad)), encoding="utf-8")
    topics.write_text(json.dumps([{"topic_id": bad, "text_query": "q"}]), encoding="utf-8")
    reason = f"topic_id {bad!r} is empty or holds '/' or NUL"
    for args, error in (((), f"{corpus}: line 1: bad topic record: {reason}"),
                        (("--topics", topics), f"bad topics file {topics}: {reason}")):
        out = tmp_path / "out"
        code = run_cli("run", "--corpus", corpus if not args else DATA / "corpus.jsonl", *args,
                       "--fixtures", DATA / "responses", "--refs", DATA / "refs.json", "--out", out)
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


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


@functools.cache
def _bundled_golds() -> dict:
    """The bundled corpus's gold files as ``goldstd`` writes them, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "golds"
        assert run_cli(*base_args(out, "goldstd"), "--refs", DATA / "refs.json") == 0
        return {path.name: path.read_text(encoding="utf-8") for path in out.iterdir()}


def _analyze_with_golds(tmp_path, edit=lambda golds: None):
    """``analyze --golds`` over the bundled golds after ``edit`` changed
    their decoded payloads (by file name) in place; returns the exit code
    and stderr."""
    golds = {name: json.loads(text) for name, text in _bundled_golds().items()}
    edit(golds)
    gold_dir = tmp_path / "golds"
    gold_dir.mkdir()
    for name, payload in golds.items():
        (gold_dir / name).write_text(_json_text(payload), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(*base_args(tmp_path / "out", "analyze"), "--golds", gold_dir)
    return code, err.getvalue()


class TestGoldFiles:
    def test_same_topic_in_two_files_is_one_error(self, tmp_path):
        code, err = _analyze_with_golds(
            tmp_path, lambda golds: golds["gold_strike.json"].update(topic_id="flood"))
        assert code == 1
        gold_dir = tmp_path / "golds"
        assert err == (f"error: bad gold standard file {gold_dir / 'gold_strike.json'}: "
                       f"topic 'flood' is also in {gold_dir / 'gold_flood.json'}\n")

    def test_topic_outside_the_corpus_is_a_warning(self, tmp_path):
        code, err = _analyze_with_golds(
            tmp_path, lambda golds: golds["gold_strike.json"].update(topic_id="hurricane"))
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert (f"gold standard file {tmp_path / 'golds' / 'gold_strike.json'}: topic 'hurricane' "
                "is not in the corpus; not used") in manifest["warnings"]
        assert manifest["counts"]["gold_standards"] == 2
        assert sorted(p.name for p in (tmp_path / "out" / "golds").iterdir()) == [
            "gold_eclipse.json", "gold_flood.json"]

    def test_gold_built_with_another_stopword_list_is_one_error(self, tmp_path):
        code, err = _analyze_with_golds(
            tmp_path, lambda golds: golds["gold_flood.json"].update(stopwords_version="some-other-list"))
        assert code == 1
        assert err == (f"error: bad gold standard file {tmp_path / 'golds' / 'gold_flood.json'}: "
                       f"stopwords_version 'some-other-list' is not this build's {STOPWORDS_VERSION!r}\n")

    @pytest.mark.parametrize("edit", [lambda gold: gold.pop("stopwords_version"),
                                      lambda gold: gold.update(stopwords_version=None)], ids=["absent", "null"])
    def test_gold_that_names_no_stopword_list_is_read_as_this_builds(self, tmp_path, edit):
        (tmp_path / "as-written").mkdir()
        assert _analyze_with_golds(tmp_path / "as-written") == (0, "")
        code, err = _analyze_with_golds(tmp_path, lambda golds: [edit(gold) for gold in golds.values()])
        assert (code, err) == (0, "")
        def written(out):
            return {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}

        assert written(tmp_path / "out") == written(tmp_path / "as-written" / "out")


# Numbers whose squares underflow or overflow, which plain strategies
# seldom draw.
_EXTREME_NUMBERS = st.sampled_from([1e-200, 1e308, 10 ** 200, 10 ** 400])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _EXTREME_NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _set_field(payload, field, value):
    if field == "one weight":
        payload["weights"][next(iter(payload["weights"]))] = value
    elif field == "every weight":
        payload["weights"] = dict.fromkeys(payload["weights"], value)
    elif field == "one reference":
        payload["reference_uris"][0] = value
    elif field == "one failure":
        payload["failures"].append(value)
    else:
        payload[field] = value


def _run_with_value(tmp: Path, flag: str, field: str, value):
    """``run`` over the bundled inputs, with ``value`` in ``field`` of one
    record of the input that ``flag`` names ("--corpus topics" is the
    corpus's topics record). Returns the exit code, stderr, and the start
    that an error line must have."""
    args = [*base_args(tmp / "out"), "--refs", DATA / "refs.json"]
    lines = (DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    topics = json.loads(lines[0])
    if flag == "--golds":
        code, err = _analyze_with_golds(tmp, lambda golds: _set_field(golds["gold_flood.json"], field, value))
        return code, err, f"error: bad gold standard file {tmp / 'golds' / 'gold_flood.json'}: "
    if flag in ("--corpus", "--replies"):
        path, _line = _appended_post(tmp, **{field: value})
        start = f"error: {path}: "
    elif flag == "--corpus topics":
        flag, path = "--corpus", tmp / "corpus.jsonl"
        (topics if field == "topics" else topics["topics"][0])[field] = value
        path.write_text("\n".join([_json_text(topics), *lines[1:]]) + "\n", encoding="utf-8")
        start = f"error: {path}: "
    else:
        path = tmp / "input.json"
        payload = topics["topics"] if flag == "--topics" else json.loads((DATA / "refs.json").read_text())
        (payload[0] if flag == "--topics" else payload)[field] = value
        path.write_text(_json_text(payload), encoding="utf-8")
        start = f"error: bad {flag[2:]} file {path}: "
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(*args, flag, path)
    return code, err.getvalue(), start


# Each input the property writes into, with the fields it may set there.
_FIELDS_BY_INPUT = {
    "--corpus": list(POST_FIELDS),
    "--replies": list(POST_FIELDS),
    "--corpus topics": [*TOPIC_FIELDS, "topics"],
    "--topics": list(TOPIC_FIELDS),
    "--refs": ["eclipse", "flood", "strike", "hurricane"],
    "--golds": ["topic_id", "built_at", "post_class", "stopwords_version", "weights", "reference_uris",
                "failures", "one weight", "every weight", "one reference", "one failure"],
}


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from([(flag, field) for flag, fields in _FIELDS_BY_INPUT.items() for field in fields]),
    value=_JSON_VALUES | st.integers(1, 10 ** 5).map(_nested),
)
@example(case=("--golds", "every weight"), value=1e-200)  # was a ZeroDivisionError
@example(case=("--golds", "one weight"), value=10 ** 200)  # was an OverflowError
# Each of these was a traceback, or a run that read the value as something else.
@example(case=("--corpus", "text"), value=None)
@example(case=("--corpus", "retrieved_at"), value=5)
@example(case=("--replies", "created_at"), value=5)
@example(case=("--corpus", "topic_id"), value=7)
@example(case=("--corpus", "source"), value=7)
@example(case=("--replies", "vertical"), value=None)
@example(case=("--corpus", "id"), value=3)
@example(case=("--corpus", "serp_visible"), value="false")
@example(case=("--corpus", "author"), value=5)
@example(case=("--replies", "raw_links"), value=[1, 2])
@example(case=("--corpus", "platform_uri"), value=[1])
@example(case=("--corpus", "created_at"), value="0001-01-01T00:00:00+01:00")
@example(case=("--corpus topics", "topics"), value=5)
@example(case=("--topics", "text_query"), value=5)
@example(case=("--topics", "hashtag_query"), value=[1])
@example(case=("--corpus", "text"), value=_nested(10 ** 5))
@example(case=("--replies", "text"), value=_nested(10 ** 5))
@example(case=("--topics", "topic_id"), value=_nested(10 ** 5))
@example(case=("--refs", "flood"), value=_nested(10 ** 5))
def test_any_json_value_in_any_field_ends_in_a_run_or_one_error_line(case, value):
    with tempfile.TemporaryDirectory() as tmp:
        code, err, start = _run_with_value(Path(tmp), *case, value)
    assert code in (0, 1)
    if code:
        assert err.startswith(start)
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


# An offline run turns the cyclic collector off, so a reference cycle that
# a run made per post, page or gold would stay in memory to its end. A run
# may leave only a fixed amount of cyclic garbage (argparse's parser),
# whatever its corpus.
_CYCLIC_GARBAGE = """
import gc, sys
from seedsmith.cli import main
gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
code = main(sys.argv[1:])
gc.collect()
print(code, len(gc.garbage))
"""


def _cyclic_garbage(corpus, fixtures, refs, out):
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["run", "--corpus", corpus, "--fixtures", fixtures, "--refs", refs, "--out", out]
    done = subprocess.run([sys.executable, "-c", _CYCLIC_GARBAGE, *map(str, argv)], env=env,
                          capture_output=True, text=True, check=True)
    code, garbage = done.stdout.split()
    assert code == "0", done.stderr
    return int(garbage)


def test_offline_run_leaves_the_same_cyclic_garbage_whatever_its_corpus(tmp_path, monkeypatch):
    world = load("worlds", monkeypatch).make_world("many-topics", 1, tmp_path / "world")
    assert world.topics == 200
    trimmed = tmp_path / "trimmed"
    shutil.copytree(DATA / "responses", trimmed)
    for path in sorted(trimmed.iterdir())[::5]:
        path.unlink()
    counts = {
        "bundled": _cyclic_garbage(DATA / "corpus.jsonl", DATA / "responses", DATA / "refs.json", tmp_path / "a"),
        "trimmed": _cyclic_garbage(DATA / "corpus.jsonl", trimmed, DATA / "refs.json", tmp_path / "b"),
        "many-topics": _cyclic_garbage(world.corpus, world.fixtures, world.refs, tmp_path / "c"),
    }
    assert len(set(counts.values())) == 1, counts


def _collector_during_runs(monkeypatch) -> list[bool]:
    """Whether the collector was on in each run, seen at segmentation."""
    seen = []
    partition = cli.partition_corpus

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return partition(*args, **kwargs)

    monkeypatch.setattr(cli, "partition_corpus", spy)
    return seen


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("fixtures, flags, code", [
    (DATA / "responses", [], 0),
    (DATA / "responses", ["--threshold", "2"], 2),
    (None, ["--strict"], 1),  # an empty fixtures directory
], ids=["success", "config-error", "strict-failure"])
def test_offline_run_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collecting, fixtures, flags, code):
    if fixtures is None:
        fixtures = tmp_path / "empty"
        fixtures.mkdir()
    seen = _collector_during_runs(monkeypatch)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        result = run_cli("run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures, "--out", tmp_path / "out",
                         *flags)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert (result, after) == (code, collecting)
    assert seen == ([] if code == 2 else [False])


@pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
def test_run_that_raises_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collecting):
    def fail(*args, **kwargs):
        raise RuntimeError("stage failed")

    monkeypatch.setattr(cli, "partition_corpus", fail)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError):
            run_cli(*base_args(tmp_path / "out"))
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is collecting
