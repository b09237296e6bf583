import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from conftest import make_corpus, make_post
from seedsmith.cli import main
from seedsmith.corpus.fetch import (
    EPOCH,
    TAG_INVALID_URI,
    TAG_MISSING_FIXTURE,
    TAG_REDIRECT_LIMIT,
    TAG_REDIRECT_LOOP,
    TAG_TRANSPORT,
    FetchError,
    FetchPolicy,
    Fetcher,
    FixtureTransport,
    HttpTransport,
    RecordingTransport,
    TransportError,
    fixture_filename,
    write_fixture,
)
from seedsmith.corpus.jsonl import write_corpus

DATA = Path(__file__).parent / "data"


@pytest.fixture
def fixtures(tmp_path):
    return tmp_path / "responses"


def fixture_fetcher(fixtures, policy=None):
    return Fetcher(FixtureTransport(fixtures), policy)


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
        assert result.redirect_chain == ()
        assert result.body == b"<p>hi</p>"

    def test_redirect_followed(self, fixtures):
        write_fixture(fixtures, "https://a.example/old", 301,
                      {"Location": "https://a.example/new"}, b"")
        write_fixture(fixtures, "https://a.example/new", 200,
                      {"Content-Type": "text/html"}, b"ok")
        result = fixture_fetcher(fixtures).dereference("https://a.example/old")
        assert result.status == 200
        assert result.final_uri == "https://a.example/new"
        assert result.redirect_chain == ("https://a.example/new",)

    def test_missing_fixture_is_tagged(self, fixtures):
        fixtures.mkdir(parents=True)
        result = fixture_fetcher(fixtures).dereference("https://nowhere.example/")
        assert result.status == TAG_MISSING_FIXTURE
        assert result.failed

    def test_missing_fixture_strict_raises(self, fixtures):
        fixtures.mkdir(parents=True)
        fetcher = fixture_fetcher(fixtures, FetchPolicy(lenient=False))
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
        fetcher = fixture_fetcher(fixtures, FetchPolicy(max_redirects=3))
        result = fetcher.dereference("https://a.example/0")
        assert result.status == TAG_REDIRECT_LIMIT

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
        assert result.redirect_chain == (f"{live_server}/new",)
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
            if rel.name in ("manifest.json", "bundle.json"):
                continue
            assert (live_out / rel).read_bytes() == (replay_out / rel).read_bytes(), rel
        for name in ("manifest.json", "bundle.json"):
            live_json, replay_json = (json.loads((out / name).read_text()) for out in (live_out, replay_out))
            live_config, replay_config = (
                (doc if name == "manifest.json" else doc["manifest"])["config"] for doc in (live_json, replay_json)
            )
            assert (live_config.pop("mode"), replay_config.pop("mode")) == ("live", "offline")
            assert live_json == replay_json, name
        # The undated reference was stamped when the live run fetched it.
        gold = json.loads((replay_out / "golds" / "gold_t1.json").read_text())
        assert gold["built_at"] > "2020"

        _Handler.hits = []
        assert _run_cli(*live, "--out", tmp_path / "again") == 0
        assert _Handler.hits == []

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
