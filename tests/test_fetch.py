import contextlib
import csv
import email.utils
import gc
import inspect
import io
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_post
from seedsmith import cli
from seedsmith.cli import main
from seedsmith.corpus import fetch as fetch_module
from seedsmith.corpus.fetch import (
    EPOCH,
    TAG_INVALID_URI,
    TAG_MISSING_FIXTURE,
    TAG_REDIRECT_LIMIT,
    TAG_REDIRECT_LOOP,
    TAG_TRANSPORT,
    FetchError,
    Fetcher,
    FetchResult,
    FixtureTransport,
    HttpTransport,
    RecordingTransport,
    TransportError,
    fixture_filename,
    parse_http_date,
    write_fixture,
)
from seedsmith.corpus.jsonl import load_corpus, write_corpus
from seedsmith.pages import PageDigest, digest_page
from test_acceptance import BUNDLED_POSTS, assert_run_matches_recompute, regen
from test_pages import _JSONLD, _MARKUP, EDGE_PAGES, HUGE_JSONLD_INT

DATA = Path(__file__).parent / "data"
# A URI that ``urllib.parse.urlsplit`` rejects ("Invalid IPv6 URL").
BAD_URI = "http://[bad/x"


@pytest.fixture
def fixtures(tmp_path):
    return tmp_path / "responses"


def fixture_fetcher(fixtures, **settings):
    return Fetcher(FixtureTransport(fixtures), **settings)


def _run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestFixtureTransport:
    def test_plain_200(self, fixtures):
        write_fixture(fixtures, "https://a.example/x", 200,
                      {"Content-Type": "text/html; charset=utf-8"}, b"<p>hi</p>")
        result = fixture_fetcher(fixtures).dereference("https://a.example/x")
        assert result.status == 200
        assert result.media_type == "text/html"
        assert result.final_uri == "https://a.example/x"
        assert result.body == b"<p>hi</p>"

    def test_redirect_followed(self, fixtures):
        write_fixture(fixtures, "https://a.example/old", 301,
                      {"Location": "https://a.example/new"}, b"")
        write_fixture(fixtures, "https://a.example/new", 200,
                      {"Content-Type": "text/html"}, b"ok")
        result = fixture_fetcher(fixtures).dereference("https://a.example/old")
        assert result.status == 200
        assert result.final_uri == "https://a.example/new"

    def test_missing_fixture_is_tagged(self, fixtures):
        fixtures.mkdir(parents=True)
        result = fixture_fetcher(fixtures).dereference("https://nowhere.example/")
        assert result.status == TAG_MISSING_FIXTURE
        assert not result.ok

    def test_missing_fixture_strict_raises(self, fixtures):
        fixtures.mkdir(parents=True)
        fetcher = fixture_fetcher(fixtures, lenient=False)
        with pytest.raises(FetchError):
            fetcher.dereference("https://nowhere.example/")

    def test_redirect_loop_detected(self, fixtures):
        write_fixture(fixtures, "https://a.example/1", 301, {"Location": "https://a.example/2"}, b"")
        write_fixture(fixtures, "https://a.example/2", 301, {"Location": "https://a.example/1"}, b"")
        result = fixture_fetcher(fixtures).dereference("https://a.example/1")
        assert result.status == TAG_REDIRECT_LOOP

    def test_redirect_limit(self, fixtures):
        for i in range(6):
            write_fixture(fixtures, f"https://a.example/{i}", 302,
                          {"Location": f"https://a.example/{i + 1}"}, b"")
        fetcher = fixture_fetcher(fixtures, max_redirects=3)
        result = fetcher.dereference("https://a.example/0")
        assert result.status == TAG_REDIRECT_LIMIT

    @pytest.mark.parametrize("lenient", [True, False], ids=["lenient", "strict"])
    def test_unsplittable_location_is_invalid_uri(self, fixtures, lenient):
        write_fixture(fixtures, "https://a.example/old", 302, {"Location": BAD_URI}, b"")
        fetcher = fixture_fetcher(fixtures, lenient=lenient)
        if not lenient:
            with pytest.raises(FetchError) as caught:
                fetcher.dereference("https://a.example/old")
            assert caught.value.tag == TAG_INVALID_URI
            return
        result = fetcher.dereference("https://a.example/old")
        assert (result.status, result.final_uri) == (TAG_INVALID_URI, "https://a.example/old")

    def test_relative_location_resolved(self, fixtures):
        write_fixture(fixtures, "https://a.example/old", 302, {"Location": "/new"}, b"")
        write_fixture(fixtures, "https://a.example/new", 200, {}, b"ok")
        result = fixture_fetcher(fixtures).dereference("https://a.example/old")
        assert result.final_uri == "https://a.example/new"

    @pytest.mark.parametrize("raw, body", [
        (b"HTTP/1.1 200 OK\nContent-Type: application/pdf\n\n%PDF-1.4\r\n\r\nstream",
         b"%PDF-1.4\r\n\r\nstream"),
        (b"HTTP/1.1 200 OK\r\nContent-Type: application/pdf\r\n\r\n%PDF-1.4\n\nstream",
         b"%PDF-1.4\n\nstream"),
    ], ids=["lf-head", "crlf-head"])
    def test_head_ends_at_first_blank_line(self, fixtures, raw, body):
        fixtures.mkdir(parents=True)
        (fixtures / fixture_filename("https://a.example/d.pdf")).write_bytes(raw)
        status, headers, got = FixtureTransport(fixtures).request("https://a.example/d.pdf")
        assert (status, headers, got) == (200, {"content-type": "application/pdf"}, body)

    def test_non_ascii_location_round_trips(self, fixtures):
        # What requests yields for the UTF-8 bytes of "café": one latin-1
        # character per byte.
        target = "https://a.example/caf\u00c3\u00a9"
        write_fixture(fixtures, "https://a.example/old", 301, {"Location": target}, b"")
        write_fixture(fixtures, target, 200, {}, b"ok")
        _, headers, _ = FixtureTransport(fixtures).request("https://a.example/old")
        assert headers["location"] == target
        result = fixture_fetcher(fixtures).dereference("https://a.example/old")
        assert (result.status, result.final_uri, result.body) == (200, target, b"ok")

    def test_write_fixture_leaves_only_the_fixture(self, fixtures):
        path = write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"again")
        assert list(fixtures.iterdir()) == [path]
        assert path.read_bytes() == b"HTTP/1.1 200 OK\r\n\r\nagain"

    @pytest.mark.parametrize("date", ["Fri, 31 Dec 9999 23:59:59 -0100", "not a date"])
    def test_unusable_date_falls_back_to_clock(self, fixtures, date):
        write_fixture(fixtures, "https://a.example/x", 200, {"Date": date}, b"ok")
        fetcher = Fetcher(FixtureTransport(fixtures), clock=lambda: EPOCH)
        result = fetcher.dereference("https://a.example/x")
        assert (result.status, result.fetched_at) == (200, EPOCH)


def test_out_of_range_date_does_not_stop_a_lenient_run(tmp_path):
    fixtures = tmp_path / "responses"
    shutil.copytree(DATA / "responses", fixtures)
    uri = "https://encyclo.example/wiki/Riverbend_flood"
    status, headers, body = FixtureTransport(fixtures).request(uri)
    assert "date" in headers
    headers["date"] = "Fri, 31 Dec 9999 23:59:59 -0100"
    write_fixture(fixtures, uri, status, headers, body)
    args = ["run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
            "--refs", DATA / "refs.json", "--out", tmp_path / "out"]
    assert _run_cli(*args) == 0


class CountingTransport:
    """Wraps a transport and counts exchanges, to observe cache behavior."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def request(self, uri):
        self.requests.append(uri)
        return self.inner.request(uri)


class TestCaching:
    def test_repeated_fetch_hits_cache(self, fixtures):
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
        transport = CountingTransport(FixtureTransport(fixtures))
        fetcher = Fetcher(transport)
        first = fetcher.dereference("https://a.example/x")
        second = fetcher.dereference("https://a.example/x")
        assert first == second
        assert len(transport.requests) == 1

    def test_recording_survives_fetcher_restart(self, fixtures, tmp_path):
        write_fixture(fixtures, "https://a.example/old", 301, {"Location": "/x"}, b"")
        write_fixture(fixtures, "https://a.example/x", 200, {"Date": "Mon, 05 Nov 2018 10:00:00 GMT"}, b"body")
        recorded = tmp_path / "recorded"
        live = CountingTransport(FixtureTransport(fixtures))
        first = Fetcher(RecordingTransport(recorded, live)).dereference("https://a.example/old")
        again = Fetcher(RecordingTransport(recorded, live)).dereference("https://a.example/old")
        replay = Fetcher(FixtureTransport(recorded)).dereference("https://a.example/old")
        assert first == again == replay
        assert (first.status, first.body) == (200, b"body")
        assert live.requests == ["https://a.example/old", "https://a.example/x"]
        assert sorted(p.name for p in recorded.iterdir()) == sorted(
            fixture_filename(u) for u in ("https://a.example/old", "https://a.example/x")
        )

    def test_failures_are_not_recorded(self, fixtures, tmp_path):
        fixtures.mkdir(parents=True)
        recorded = tmp_path / "recorded"
        transport = RecordingTransport(recorded, FixtureTransport(fixtures))
        assert Fetcher(transport).dereference("https://a.example/x").status == TAG_MISSING_FIXTURE
        assert not recorded.exists()
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"late")
        assert Fetcher(transport).dereference("https://a.example/x").ok


class TestBodyRelease:
    """A cached page keeps its body until ``release("body")``; from then
    on the cache holds each digested page without it. A run releases the
    bodies once its gold stage ends, digest links once extraction ends,
    each judged page's text at its judgment and every other text once
    judging ends, and writes what a run that keeps every part writes."""

    def test_digest_drops_the_cached_body_only_after_release(self, fixtures):
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"<p>x</p>")
        write_fixture(fixtures, "https://a.example/y", 200, {}, b"<p>y</p>")
        fetcher = fixture_fetcher(fixtures)
        x = fetcher.dereference("https://a.example/x")
        fetcher.digest(x)
        assert fetcher.dereference("https://a.example/x") is x
        fetcher.release("body")
        assert fetcher.dereference("https://a.example/x") == x._replace(body=b"")
        y = fetcher.dereference("https://a.example/y")
        assert fetcher.dereference("https://a.example/y").body == b"<p>y</p>"  # not digested yet
        digest = fetcher.digest(y)
        assert fetcher.dereference("https://a.example/y").body == b""
        assert fetcher.digest(fetcher.dereference("https://a.example/y")) is digest
        assert (x.body, y.body) == (b"<p>x</p>", b"<p>y</p>")  # results handed out stay whole

    def test_concurrent_digests_after_release(self, fixtures):
        uris = [f"https://a.example/p{i}" for i in range(40)]
        for uri in uris:
            write_fixture(fixtures, uri, 200, {"Content-Type": "text/html"}, f"<p>{uri}</p>".encode())
        fetcher = fixture_fetcher(fixtures)
        for uri in uris[::2]:  # half digested before the release
            fetcher.digest(fetcher.dereference(uri))
        fetcher.release("body")
        seen = [[] for _ in range(8)]

        def worker(i):
            for uri in uris[i:] + uris[:i]:
                result = fetcher.dereference(uri)
                seen[i].append((result, fetcher.digest(result)))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        digests = {}
        for pairs in seen:
            assert len(pairs) == len(uris)
            for result, digest in pairs:
                assert digests.setdefault(result.final_uri, digest) is digest
                assert digest.text == result.final_uri
        assert [fetcher.dereference(uri).body for uri in uris] == [b""] * len(uris)

    def test_links_released_while_pages_are_digested(self, fixtures):
        uris = [f"https://a.example/p{i}" for i in range(60)]
        for uri in uris:
            write_fixture(fixtures, uri, 200, {}, f'<p>{uri}</p><a href="{uri}">x</a>'.encode())
        fetcher = fixture_fetcher(fixtures)
        started = threading.Barrier(5)

        def worker(i):
            started.wait(timeout=30)
            for uri in uris[i::4]:
                fetcher.digest(fetcher.dereference(uri))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            started.wait(timeout=30)
            fetcher.release("links")
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(fetcher._digests) == len(uris)
        assert [uri for uri, d in fetcher._digests.items() if "links" in vars(d)] == []

    def run(self, monkeypatch, out, *args, keep_parts=False):
        """``seedsmith run`` with ``args``; returns the run's fetcher, whose
        ``requested`` lists the URIs its transport was asked for. With
        ``keep_parts`` the fetcher keeps every part of every page (body,
        links and text) to the end."""
        made = []
        make = cli._fetcher

        def recording(parsed):
            fetcher = make(parsed)
            if keep_parts:
                fetcher.release = lambda *parts: None
                fetcher.text = lambda result: fetcher.digest(result).text
            fetcher.requested = []
            request = fetcher.transport.request
            fetcher.transport.request = lambda uri: fetcher.requested.append(uri) or request(uri)
            made.append(fetcher)
            return fetcher

        monkeypatch.setattr(cli, "_fetcher", recording)
        assert _run_cli("run", *args, "--out", out) == 0
        [fetcher] = made
        return fetcher

    def assert_same_as_kept(self, tmp_path, monkeypatch, *args):
        """Runs ``args`` twice, releasing pages' parts and keeping them; both
        write the same files. Returns the releasing run's fetcher and
        output directory."""
        out, kept = tmp_path / "out", tmp_path / "kept"
        fetcher = self.run(monkeypatch, out, *args)
        self.run(monkeypatch, kept, *args, keep_parts=True)
        files = sorted(p.relative_to(kept) for p in kept.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        for rel in files:
            assert (out / rel).read_bytes() == (kept / rel).read_bytes(), rel
        return fetcher, out

    def assert_matches_recompute(self, out, refs, fixtures):
        expected = regen.csv_bytes(regen.reference_tables(BUNDLED_POSTS, refs, fixtures))
        assert {name: (out / name).read_bytes() for name in expected} == expected

    @staticmethod
    def assert_no_digested_body(fetcher):
        digested = [r for r in fetcher._memory.values() if r.final_uri in fetcher._digests]
        assert digested
        assert [r.request_uri for r in digested if r.body] == []

    def write_refs(self, tmp_path, **entries):
        refs = {**json.loads((DATA / "refs.json").read_text(encoding="utf-8")), **entries}
        (tmp_path / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
        return refs

    def test_reference_list_page_digested_as_another_topics_reference(self, tmp_path, monkeypatch):
        # eclipse's gold is built first and digests flood's reference-list
        # page; flood's gold then reads that page's body.
        refs = self.write_refs(tmp_path, eclipse=["https://encyclo.example/wiki/Riverbend_flood"])
        _fetcher, out = self.assert_same_as_kept(
            tmp_path, monkeypatch, "--corpus", DATA / "corpus.jsonl", "--fixtures", DATA / "responses",
            "--refs", tmp_path / "refs.json")
        gold = json.loads((out / "golds" / "gold_flood.json").read_text(encoding="utf-8"))
        assert gold["reference_uris"] == [f"https://refdocs.example/flood-src-{i}" for i in (1, 2, 3)]
        self.assert_matches_recompute(out, refs, DATA / "responses")

    def test_reference_list_page_digested_during_extraction(self, tmp_path, monkeypatch):
        # A permalink that extraction expands is also flood's reference list.
        permalink = "https://twitter.com/grace/status/900"
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        status, headers, _body = FixtureTransport(fixtures).request(permalink)
        items = "".join(f'<li><a href="https://refdocs.example/flood-src-{i}">source {i}</a></li>'
                        for i in (1, 2, 3))
        write_fixture(fixtures, permalink, status, headers,
                      f"<html><body><p>crews heading out</p><ol>{items}</ol></body></html>".encode())
        refs = self.write_refs(tmp_path, flood=permalink)
        _fetcher, out = self.assert_same_as_kept(
            tmp_path, monkeypatch, "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
            "--refs", tmp_path / "refs.json")
        gold = json.loads((out / "golds" / "gold_flood.json").read_text(encoding="utf-8"))
        assert gold["reference_uris"] == [f"https://refdocs.example/flood-src-{i}" for i in (1, 2, 3)]
        seeds = (out / "seeds.csv").read_text(encoding="utf-8")
        assert "https://refdocs.example/flood-src-1" in seeds  # substituted from the same page
        self.assert_matches_recompute(out, refs, fixtures)

    def test_two_redirects_to_one_page(self, tmp_path, monkeypatch):
        page = "https://news-b.example/flood-b"
        aliases = ["https://news-b.example/old-a", "https://news-b.example/old-b"]
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        for alias in aliases:
            write_fixture(fixtures, alias, 301, {"Location": page}, b"")
        corpus = load_corpus(DATA / "corpus.jsonl")
        for i, alias in enumerate(aliases):
            post = make_post(id=f"alias-{i}", topic_id="flood", serp_visible=True, text=f"see {alias}")
            corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        body = FixtureTransport(fixtures).request(page)[2]
        digested = []
        digest_page = fetch_module.digest_page

        def counting(raw):
            digested.append(raw)
            return digest_page(raw)

        monkeypatch.setattr(fetch_module, "digest_page", counting)
        fetcher, _out = self.assert_same_as_kept(
            tmp_path, monkeypatch, "--corpus", tmp_path / "corpus.jsonl", "--fixtures", fixtures,
            "--refs", DATA / "refs.json")
        assert digested.count(body) == 2  # once in each of the two runs
        for uri in aliases:
            cached = fetcher.dereference(uri)
            assert (cached.final_uri, cached.body) == (page, b"")
        self.assert_no_digested_body(fetcher)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_digested_page_keeps_its_body(self, tmp_path, monkeypatch, live_mode, jobs):
        # Only a live run judges with --jobs workers.
        fetcher = self.run(monkeypatch, tmp_path / "out", "--corpus", DATA / "corpus.jsonl",
                           "--fixtures", DATA / "responses", "--refs", DATA / "refs.json",
                           "--jobs", jobs, *(live_mode if jobs == "2" else ()))
        self.assert_no_digested_body(fetcher)

    @pytest.mark.parametrize("case", [None, "page-in-two-topics", "gold-reference-seed", "permalink-target-seed"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_digest_keeps_links_or_a_judged_text(self, tmp_path, monkeypatch, live_mode, jobs, case):
        corpus, fixtures = self.edge_corpus(tmp_path, case) if case else (DATA / "corpus.jsonl", DATA / "responses")
        out = tmp_path / "out"
        fetcher = self.run(monkeypatch, out, "--corpus", corpus, "--fixtures", fixtures,
                           "--refs", DATA / "refs.json", "--jobs", jobs, *(live_mode if jobs == "2" else ()))
        with (out / "seeds.csv").open(encoding="utf-8") as fh:
            judged = {row["canonical_uri"] for row in csv.DictReader(fh) if row["kind"] == "html"}
        assert judged & fetcher._digests.keys()
        assert [uri for uri, d in fetcher._digests.items() if "links" in vars(d)] == []
        assert [uri for uri, d in fetcher._digests.items() if "text" in vars(d)] == []
        # Each judged text was read once: no page was fetched again for it.
        assert len(fetcher.requested) == len(set(fetcher.requested))

    def test_only_the_pages_in_flight_hold_a_text(self, tmp_path, monkeypatch, live_mode):
        """In a live run at --jobs 2, each judged page holds its text only
        while one of the two workers judges it: at every digest, at most
        two judged pages still hold a text."""
        args = ("--corpus", DATA / "corpus.jsonl", "--fixtures", DATA / "responses", "--refs", DATA / "refs.json")
        serial = self.run(monkeypatch, tmp_path / "jobs1", *args)
        with (tmp_path / "jobs1" / "seeds.csv").open(encoding="utf-8") as fh:
            pages = {serial.dereference(row["canonical_uri"]).final_uri
                     for row in csv.DictReader(fh) if row["kind"] == "html"}
        holding = []
        digest = Fetcher.digest

        def counting(fetcher, result):
            found = [fetcher._digests.get(uri) for uri in pages]
            holding.append(sum(1 for d in found if d is not None and vars(d).get("text")))
            return digest(fetcher, result)

        monkeypatch.setattr(Fetcher, "digest", counting)
        self.run(monkeypatch, tmp_path / "jobs2", *args, "--jobs", "2", *live_mode)
        assert 1 <= max(holding) <= 2

    def test_released_parts_raise_when_read(self, fixtures):
        page = b'<html><body><p>river flood rising</p><a href="https://b.example/">b</a></body></html>'
        write_fixture(fixtures, "https://a.example/x", 200, {}, page)
        write_fixture(fixtures, "https://a.example/y", 200, {}, page.replace(b"river", b"lake"))
        write_fixture(fixtures, "https://a.example/old", 301, {"Location": "https://a.example/x"}, b"")
        fetcher = fixture_fetcher(fixtures)
        x = fetcher.dereference("https://a.example/x")
        digest = fetcher.digest(x)
        fetcher.release("links")
        with pytest.raises(AttributeError):
            digest.links
        assert "links" not in vars(fetcher.digest(fetcher.dereference("https://a.example/y")))
        assert fetcher.text(x) == digest_page(page).text
        with pytest.raises(AttributeError):
            digest.text
        # A later read, direct or redirected, fetches the page anew.
        requested = []
        request = fetcher.transport.request
        fetcher.transport.request = lambda uri: requested.append(uri) or request(uri)
        old = fetcher.dereference("https://a.example/old")
        assert fetcher.digest(old) is digest
        assert [fetcher.text(x), fetcher.text(old)] == [digest_page(page).text] * 2
        assert requested == ["https://a.example/old", "https://a.example/x",  # dereference(old)
                             "https://a.example/x", "https://a.example/old", "https://a.example/x"]
        with pytest.raises(AttributeError):
            digest.text
        # Neither part has a default that a late read could fall back on.
        parameters = inspect.signature(PageDigest).parameters
        assert [parameters[name].default for name in ("text", "links")] == [inspect.Parameter.empty] * 2
        assert [name for name in ("text", "links") if hasattr(PageDigest, name)] == []

    @pytest.mark.parametrize("lenient", [True, False])
    def test_read_of_a_taken_text_that_fails_anew_reads_empty(self, fixtures, lenient):
        page = b"<html><body><p>river flood rising</p></body></html>"
        write_fixture(fixtures, "https://a.example/x", 200, {}, page)
        write_fixture(fixtures, "https://a.example/old", 301, {"Location": "https://a.example/x"}, b"")
        fetcher = fixture_fetcher(fixtures, lenient=lenient)
        assert fetcher.text(fetcher.dereference("https://a.example/x")) == digest_page(page).text
        old = fetcher.dereference("https://a.example/old")
        # The page now answers with an error page, then not at all.
        path = write_fixture(fixtures, "https://a.example/x", 404, {}, page.replace(b"river", b"missing"))
        assert fetcher.text(old) == ""
        path.unlink()
        assert fetcher.text(old) == ""

    @staticmethod
    def edge_corpus(tmp_path, case):
        """The bundled corpus and fixtures plus the posts (and pages) of
        one edge ``case``; returns the corpus path and fixture directory."""
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        corpus = load_corpus(DATA / "corpus.jsonl")
        if case == "page-in-two-topics":  # a flood page also linked from eclipse
            posts = [make_post(id="edge-1", topic_id="eclipse", serp_visible=True,
                               text="also https://news-b.example/flood-b")]
        elif case == "gold-reference-seed":  # a page of each gold also a post seed
            posts = [make_post(id="edge-1", topic_id="strike", serp_visible=True,
                               text="see https://refdocs.example/strike-src-1"),
                     make_post(id="edge-2", topic_id="flood", serp_visible=True,
                               text="see https://refdocs.example/flood-src-2")]
        else:  # permalink-target-seed: a permalink chain back to its first page, kept at depth 3
            chain = [f"https://twitter.com/edge/status/{i}" for i in range(3)]
            headers = {"Content-Type": "text/html", "Date": "Tue, 06 Nov 2018 00:00:00 GMT"}
            for i, uri in enumerate(chain):
                news = f"https://daily-herald.example/edge-{i}"
                write_fixture(fixtures, news, 200, headers,
                              f"<html><body><p>riverbend flood levee report {i}</p></body></html>".encode())
                anchors = "".join(f'<a href="{link}">{link}</a>' for link in (chain[(i + 1) % 3], news))
                write_fixture(fixtures, uri, 200, headers,
                              f"<html><body><p>riverbend flood crews {i}</p>{anchors}</body></html>".encode())
            posts = [make_post(id="edge-1", topic_id="flood", source="twitter", serp_visible=True,
                               text=f"thread {chain[0]}")]
        for post in posts:
            corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        return tmp_path / "corpus.jsonl", fixtures

    @pytest.mark.parametrize("flags", [{}, {"global_dedup": True, "mc_exclude_root": True}])
    @pytest.mark.parametrize("case", ["page-in-two-topics", "gold-reference-seed", "permalink-target-seed"])
    def test_edge_corpus_matches_recompute(self, tmp_path, case, flags):
        corpus, fixtures = self.edge_corpus(tmp_path, case)
        posts = regen.read_corpus(corpus)[1]
        assert_run_matches_recompute(tmp_path / "out", corpus, fixtures, DATA / "refs.json", posts, **flags)

    def test_redirect_to_a_page_judged_for_another_topic(self, tmp_path, monkeypatch):
        # flood judges news-b's page first and drops its text; strike
        # reaches the page later through a redirect and reads it anew.
        fixtures = tmp_path / "responses"
        shutil.copytree(DATA / "responses", fixtures)
        alias = "https://news-b.example/old-flood"
        write_fixture(fixtures, alias, 301, {"Location": "https://news-b.example/flood-b"}, b"")
        corpus = load_corpus(DATA / "corpus.jsonl")
        post = make_post(id="alias-1", topic_id="strike", serp_visible=True, text=f"see {alias}")
        corpus.posts[post.id] = post
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        fetcher, _out = self.assert_same_as_kept(tmp_path, monkeypatch, "--corpus", tmp_path / "corpus.jsonl",
                                                 "--fixtures", fixtures, "--refs", DATA / "refs.json")
        # The redirect's own fetch, then one more for the taken text.
        assert [fetcher.requested.count(uri) for uri in (alias, "https://news-b.example/flood-b")] == [2, 3]


def test_default_fetcher_writes_nothing(fixtures, tmp_path, monkeypatch):
    write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert Fetcher(FixtureTransport(fixtures)).dereference("https://a.example/x").ok
    assert list(cwd.iterdir()) == []


def test_offline_run_writes_nothing_outside_out(tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    args = ["run", "--corpus", DATA / "corpus.jsonl", "--fixtures", DATA / "responses",
            "--refs", DATA / "refs.json", "--out", tmp_path / "out"]
    assert _run_cli(*args) == 0
    assert list(cwd.iterdir()) == []


def test_invalid_uri_tagged(fixtures):
    fixtures.mkdir(parents=True)
    fetcher = fixture_fetcher(fixtures)
    assert fetcher.dereference("mailto:a@b.c").status == TAG_INVALID_URI
    assert fetcher.dereference("not a uri").status == TAG_INVALID_URI
    assert fetcher.dereference(BAD_URI).status == TAG_INVALID_URI
    with pytest.raises(FetchError) as caught:
        fixture_fetcher(fixtures, lenient=False).dereference(BAD_URI)
    assert caught.value.tag == TAG_INVALID_URI


# Any header value a fixture can hold: latin-1, one line.
_HEADER_TEXT = st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=20)
# Date-header tokens: day names, days, months, years of two to five
# digits, times, named and numeric zones, and junk.
_DATE_TOKENS = st.sampled_from([
    "Mon,", "Thu,", "Sunday,", "0", "1", "08", "31", "32", "Nov", "nov", "Feb", "December", "Foo",
    "18", "49", "50", "69", "70", "99", "100", "1899", "2018", "9999", "10000", "99999",
    "12:00:00", "23:59:60", "24:00", "12:00", "1:2:3", "12:00:00.5", "12.00.00", "::",
    "+", "-", ",", "(comment)", "junk",
])
_ZONES = st.sampled_from(["GMT", "UT", "UTC", "Z", "EST", "EDT", "PST", "-0000", "+0000", "+2400", "-2400",
                          "-2359", "+0130", "+0099", "+99999", "-12345678901234567890", "nowhere", ""])
_HTTP_DATES = st.one_of(
    _HEADER_TEXT,
    st.lists(st.one_of(_DATE_TOKENS, _ZONES, _HEADER_TEXT), max_size=7).map(" ".join),
    st.builds("{}, {} {} {} {:02d}:{:02d}:{:02d} {}".format,
              st.sampled_from(["Thu", "Fri", "Xyz"]), st.integers(0, 32),
              st.sampled_from(["Jan", "Feb", "Jun", "Nov", "Dec", "dec", "Foo"]),
              st.one_of(st.integers(0, 99), st.integers(1899, 2101), st.integers(0, 10 ** 20)),
              st.integers(0, 25), st.integers(0, 60), st.integers(0, 61), _ZONES),
)


def _outcome(parse, raw):
    """What ``parse(raw)`` gives: its value's repr (offset included), or
    the type of what it raised."""
    try:
        return repr(parse(raw))
    except Exception as exc:  # the type is the outcome
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(raw=_HTTP_DATES)
@example(raw="Tue, 06 Nov 2018 00:00:00 GMT")
@example(raw="Tue, 06 Nov 2018 00:00:00 -0000")
@example(raw="Tue, 06 Nov 18 23:59:59 +2400")
@example(raw="Tue, 06 Nov 2018 23:59:59 EST")
@example(raw="Fri, 31 Dec 9999 23:59:59 -0100")
@example(raw="")
def test_parse_http_date_is_parsedate_to_datetime(raw):
    assert _outcome(parse_http_date, raw) == _outcome(email.utils.parsedate_to_datetime, raw)


@settings(max_examples=300, deadline=None)
@given(location=st.one_of(_HEADER_TEXT, st.builds(
    str.__add__,
    st.sampled_from(["http://", "https://", "//", "/", "?", "ftp://", "mailto:", "http://[",
                     "http://[::1", "http://a.example:", "http://a.example:99999"]),
    _HEADER_TEXT,
)), lenient=st.booleans())
def test_any_location_ends_in_a_result_or_a_fetch_error(location, lenient):
    with tempfile.TemporaryDirectory() as fixtures:
        write_fixture(fixtures, "https://a.example/old", 302, {"Location": location}, b"")
        fetcher = Fetcher(FixtureTransport(fixtures), lenient=lenient)
        try:
            assert isinstance(fetcher.dereference("https://a.example/old"), FetchResult)
        except FetchError:
            assert not lenient


@pytest.mark.parametrize("where", ["refs-entry", "redirect-location"])
@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_unsplittable_uri_ends_no_run_in_a_traceback(tmp_path, capsys, where, strict):
    """A reference URI, or a redirect's Location, that does not split is an
    invalid-uri failure: a manifest warning in a lenient run, one error
    line in a strict one."""
    fixtures = tmp_path / "responses"
    shutil.copytree(DATA / "responses", fixtures)
    refs = json.loads((DATA / "refs.json").read_text(encoding="utf-8"))
    if where == "refs-entry":
        refs["strike"] = [*refs["strike"], BAD_URI]
    else:
        write_fixture(fixtures, refs["flood"], 302, {"Location": BAD_URI}, b"")
    (tmp_path / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
    args = ["run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
            "--refs", tmp_path / "refs.json", "--out", tmp_path / "out"]
    code = _run_cli(*args, *(["--strict"] if strict else []))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if strict:
        assert code == 1
        assert err.startswith(f"error: {TAG_INVALID_URI}: ")
        assert err.count("error:") == 1 and err.count("\n") == 1
    else:
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert any(TAG_INVALID_URI in warning for warning in manifest["warnings"])


def test_unreadable_fixture_is_a_transport_error(fixtures):
    (fixtures / fixture_filename("https://a.example/x")).mkdir(parents=True)
    result = fixture_fetcher(fixtures).dereference("https://a.example/x")
    assert (result.status, result.ok) == (TAG_TRANSPORT, False)
    with pytest.raises(FetchError) as caught:
        fixture_fetcher(fixtures, lenient=False).dereference("https://a.example/x")
    assert caught.value.tag == TAG_TRANSPORT
    assert caught.value.detail.startswith("cannot read the fixture for https://a.example/x: ")


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_unreadable_fixture_ends_no_run_in_a_traceback(tmp_path, capsys, strict):
    """A fixture path that is a directory is a transport-error failure of
    that one URI: a manifest warning in a lenient run, one error line in
    a strict one."""
    fixtures = tmp_path / "responses"
    shutil.copytree(DATA / "responses", fixtures)
    path = fixtures / fixture_filename("https://news-b.example/flood-b")
    path.unlink()
    path.mkdir()
    args = ["run", "--corpus", DATA / "corpus.jsonl", "--fixtures", fixtures,
            "--refs", DATA / "refs.json", "--out", tmp_path / "out"]
    code = _run_cli(*args, *(["--strict"] if strict else []))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if strict:
        assert code == 1
        assert err.startswith(f"error: {TAG_TRANSPORT}: cannot read the fixture for https://news-b.example/flood-b: ")
        assert len(err.splitlines()) == 1
    else:
        assert (code, err) == (0, "")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert f"seed https://news-b.example/flood-b not fetchable ({TAG_TRANSPORT}); judged on empty text" in (
            manifest["warnings"]
        )


# Pages of the bundled corpus that a run reads: seed pages, a permalink
# page, reference pages and a reference-list page.
_READ_PAGES = [
    "https://news-b.example/flood-b",
    "https://river-times.example/2018/09/12/flood-report",
    "https://twitter.com/grace/status/900",
    "https://refdocs.example/flood-src-1",
    "https://refdocs.example/strike-src-1",
    "https://encyclo.example/wiki/Riverbend_flood",
]
_CHARSETS = st.one_of(_HEADER_TEXT, st.sampled_from(
    ["utf-8", "UTF-8", "latin-1", "utf-16", "utf-32-le", "ascii", "cp1252", "shift_jis", "utf-7", "idna",
     "rot13", "base64", "zlib", "undefined", "no-such-codec", ""]
))
_RESPONSES = st.fixed_dictionaries({
    "status": st.one_of(st.integers().map("HTTP/1.1 {} Reason".format),
                        st.integers(100, 599).map("HTTP/1.0 {}".format), _HEADER_TEXT),
    "headers": st.fixed_dictionaries({}, optional={
        "Date": _HTTP_DATES,
        "Last-Modified": _HTTP_DATES,
        "Content-Type": st.one_of(_HEADER_TEXT, st.builds(
            "{}; charset={}".format,
            st.sampled_from(["text/html", "TEXT/HTML", "application/xhtml+xml", "application/pdf", "text/plain", ""]),
            _CHARSETS,
        )),
        "Location": st.one_of(_HTTP_DATES, _HEADER_TEXT, st.sampled_from(_READ_PAGES),
                              st.builds(str.__add__, st.sampled_from(["http://", "https://", "//", "/", "?"]),
                                        _HEADER_TEXT)),
    }),
    "body": st.one_of(
        _MARKUP.map(str.encode),
        st.builds(lambda charset, markup: f'<html><head><meta charset="{charset}"></head><body>{markup}'
                  "</body></html>".encode(), _CHARSETS, _MARKUP),
        _JSONLD.map(lambda payload: b'<script type="application/ld+json">' + json.dumps(payload).encode()
                    + b"</script><p>river flood</p>"),
        st.sampled_from([param.values[0] for param in EDGE_PAGES]),
        st.binary(max_size=40),
    ),
})


@pytest.fixture(scope="module")
def bundled_responses(tmp_path_factory):
    fixtures = tmp_path_factory.mktemp("bundled") / "responses"
    shutil.copytree(DATA / "responses", fixtures)
    return fixtures


@settings(max_examples=200, deadline=None)
@given(uri=st.sampled_from(_READ_PAGES), response=_RESPONSES)
@example(uri=_READ_PAGES[0], response={"status": "HTTP/1.1 200 OK", "headers": {}, "body": HUGE_JSONLD_INT})
@example(uri=_READ_PAGES[1], response={"status": "HTTP/1.1 200 OK", "body": b"<p>river flood</p>", "headers": {
    "Date": "Thu, 01 Jan 3000000000 00:00:00 GMT", "Last-Modified": "Thu, 01 Jan 2018 00:00:00 -12345678901234567890",
    "Content-Type": "text/html; charset=rot13"}})
@example(uri="https://encyclo.example/wiki/2018_solar_eclipse", response={  # a reference-list page
    "status": "HTTP/1.1 200 OK", "headers": {"Content-Type": "text/html"},
    "body": b'<html><head><meta charset="undefined"></head><body><div class="references"><ol>'
            b'<li><a href="https://refdocs.example/eclipse-src-1">1</a></li></ol></div></body></html>'})
def test_no_fetched_response_aborts_a_run(bundled_responses, uri, response):
    """One page of the bundled corpus answered with any status line,
    date, type and location headers and body: a lenient run exits 0, a
    strict one exits 0 or 1 with one ``error:`` line, and neither ends
    in a traceback."""
    head = [response["status"], *(f"{name}: {value}" for name, value in response["headers"].items())]
    path = bundled_responses / fixture_filename(uri)
    original = path.read_bytes()
    path.write_bytes("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response["body"])
    try:
        for strict in (False, True):
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
                code = _run_cli("run", "--corpus", DATA / "corpus.jsonl", "--fixtures", bundled_responses,
                                "--refs", DATA / "refs.json", "--out", out, *(["--strict"] if strict else []))
            err = err.getvalue()
            assert "Traceback" not in err
            if strict and code:
                assert code == 1
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            else:
                assert (code, err) == (0, "")
    finally:
        path.write_bytes(original)


# Citations must name another host than the page's: "localhost" against
# the server's "127.0.0.1".
_REFERENCE_PAGE = """<html><body><p>Riverbend flood</p>
<div class="references"><ol>
<li><a href="http://localhost:{port}/ref-dated">dated</a></li>
<li><a href="http://localhost:{port}/nodate">undated</a></li>
</ol></div></body></html>"""


class _Handler(BaseHTTPRequestHandler):
    """Serves a redirect (``/old``), a 404 (``/missing``), a 503
    (``/broken``), a page without a ``Date`` header (``/nodate``), a
    reference-list page (``/wiki``) and, at any other path, a page with
    one."""

    hits = []

    def do_GET(self):
        _Handler.hits.append(self.path)
        if self.path == "/old":
            self.send_response(301)
            self.send_header("Location", "/new")
            self.end_headers()
            return
        if self.path in ("/missing", "/broken"):
            self.send_response(404 if self.path == "/missing" else 503)
            self.end_headers()
            return
        if self.path == "/wiki":
            body = _REFERENCE_PAGE.format(port=self.server.server_address[1]).encode()
        else:
            body = f"<html><body><main><p>live river flood report {self.path}</p></main></body></html>".encode()
        if self.path == "/nodate":
            self.send_response_only(200)  # send_response would add a Date header
        else:
            self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def live_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.hits = []
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _refused_uri() -> str:
    """A local URI on a port nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/gone"


def test_politeness_delay_spaces_same_host_requests(live_server):
    transport = HttpTransport(politeness_delay=0.15)
    start = time.monotonic()
    transport.request(f"{live_server}/1")
    transport.request(f"{live_server}/2")
    assert time.monotonic() - start >= 0.15


class TestHttpTransport:
    def test_live_fetch_and_redirect(self, live_server):
        fetcher = Fetcher(HttpTransport(politeness_delay=0))
        result = fetcher.dereference(f"{live_server}/old")
        assert result.status == 200
        assert result.final_uri == f"{live_server}/new"
        assert b"live" in result.body

    def test_live_fetch_cached_one_network_request(self, live_server):
        fetcher = Fetcher(HttpTransport(politeness_delay=0))
        fetcher.dereference(f"{live_server}/page")
        fetcher.dereference(f"{live_server}/page")
        assert _Handler.hits.count("/page") == 1

    def test_politeness_delay_holds_across_threads(self, live_server):
        transport = HttpTransport(politeness_delay=0.1)
        workers = [threading.Thread(target=transport.request, args=(f"{live_server}/{i}",)) for i in range(3)]
        start = time.monotonic()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert time.monotonic() - start >= 0.2

    def test_replayed_exchange_never_waits(self, live_server, tmp_path):
        transport = RecordingTransport(tmp_path, HttpTransport(politeness_delay=5.0))
        transport.request(f"{live_server}/page")  # the host's first request: no wait
        start = time.monotonic()
        for _ in range(3):
            transport.request(f"{live_server}/page")
        assert time.monotonic() - start < 2.5
        assert _Handler.hits == ["/page"]

    def test_recording_keeps_every_answered_exchange(self, live_server, tmp_path):
        transport = RecordingTransport(tmp_path, HttpTransport(politeness_delay=0))
        fetcher = Fetcher(transport)
        uris = [f"{live_server}/{path}" for path in ("old", "nodate", "missing", "broken")]
        live = [fetcher.dereference(uri) for uri in uris]
        assert [r.status for r in live] == [200, 200, 404, 503]
        assert all("date" in r.headers for r in live)
        recorded = sorted(p.name for p in tmp_path.iterdir())
        assert recorded == sorted(fixture_filename(u) for u in uris + [f"{live_server}/new"])
        assert [Fetcher(FixtureTransport(tmp_path)).dereference(uri) for uri in uris] == live

    def test_refused_connection_records_nothing(self, tmp_path):
        transport = RecordingTransport(tmp_path / "rec", HttpTransport(politeness_delay=0))
        with pytest.raises(TransportError) as caught:
            transport.request(_refused_uri())
        assert caught.value.tag == TAG_TRANSPORT
        assert not (tmp_path / "rec").exists()


def _bundle_files(out):
    return sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())


class TestRecordReplay:
    """A live run with --fixtures records what it fetched; an offline run
    over the recording writes the same bundle."""

    def _inputs(self, server, tmp_path):
        corpus = make_corpus([
            make_post(id="r", serp_visible=True, text=f"river flood {server}/dated {server}/old"),
            make_post(id="c", parent_id="r", text=f"{server}/nodate {server}/missing {server}/broken"),
        ])
        write_corpus(corpus, tmp_path / "c.jsonl")
        (tmp_path / "refs.json").write_text(json.dumps({"t1": f"{server}/wiki"}))
        return ["--corpus", tmp_path / "c.jsonl", "--refs", tmp_path / "refs.json"]

    def test_offline_replay_reproduces_live_run(self, live_server, tmp_path):
        inputs = self._inputs(live_server, tmp_path)
        recorded = tmp_path / "recorded"
        live_out, replay_out = tmp_path / "live", tmp_path / "replay"
        live = ["run", "--mode", "live", "--politeness-delay", "0", "--fixtures", recorded, *inputs]
        assert _run_cli(*live, "--out", live_out) == 0
        assert {"/dated", "/old", "/new", "/nodate", "/missing", "/broken", "/wiki",
                "/ref-dated"} <= set(_Handler.hits)
        assert _run_cli("run", "--fixtures", recorded, *inputs, "--out", replay_out) == 0

        files = _bundle_files(live_out)
        assert files == _bundle_files(replay_out)
        for rel in files:
            if rel.name != "manifest.json":
                assert (live_out / rel).read_bytes() == (replay_out / rel).read_bytes(), rel
        live_json, replay_json = (json.loads((out / "manifest.json").read_text()) for out in (live_out, replay_out))
        assert (live_json["config"].pop("mode"), replay_json["config"].pop("mode")) == ("live", "offline")
        assert live_json == replay_json
        # The undated reference was stamped when the live run fetched it.
        gold = json.loads((replay_out / "golds" / "gold_t1.json").read_text())
        assert gold["built_at"] > "2020"

        _Handler.hits = []
        assert _run_cli(*live, "--out", tmp_path / "again") == 0
        assert _Handler.hits == []

    def test_live_run_keeps_the_collector_on(self, live_server, tmp_path, monkeypatch):
        # A live run's failed requests leave frames and tracebacks in
        # reference cycles, so the collector stays on there.
        seen, partition = [], cli.partition_corpus
        monkeypatch.setattr(cli, "partition_corpus",
                            lambda *a, **kw: seen.append(gc.isenabled()) or partition(*a, **kw))
        assert gc.isenabled()
        live = ["run", "--mode", "live", "--politeness-delay", "0", *self._inputs(live_server, tmp_path)]
        assert _run_cli(*live, "--out", tmp_path / "out") == 0
        assert seen == [True] and gc.isenabled()

    def test_fixtures_naming_a_file_is_a_config_error(self, live_server, tmp_path, capsys):
        inputs = self._inputs(live_server, tmp_path)
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        code = _run_cli("run", "--mode", "live", "--fixtures", not_a_dir, *inputs, "--out", tmp_path / "out")
        assert code == 2
        assert capsys.readouterr().err == f"error: --fixtures is not a directory: {not_a_dir}\n"
        assert _Handler.hits == []


def test_cli_import_leaves_requests_unloaded():
    """Importing the CLI loads neither ``requests`` nor ``logging``: the
    program fetches with the standard library and reports its warnings
    only through the run's list."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, seedsmith.cli; print([m in sys.modules for m in ('requests', 'logging')])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"
