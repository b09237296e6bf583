import os
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from seedsmith.corpus.fetch import (
    TAG_INVALID_URI,
    TAG_MISSING_FIXTURE,
    TAG_REDIRECT_LIMIT,
    TAG_REDIRECT_LOOP,
    FetchError,
    FetchPolicy,
    Fetcher,
    FixtureTransport,
    HttpTransport,
    write_fixture,
)

FAST = FetchPolicy(politeness_delay=0.0, disk_cache=False)


@pytest.fixture
def fixtures(tmp_path):
    return tmp_path / "responses"


def fixture_fetcher(fixtures, policy=FAST):
    return Fetcher(FixtureTransport(fixtures), policy)


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
        fetcher = fixture_fetcher(
            fixtures, FetchPolicy(politeness_delay=0, lenient=False, disk_cache=False)
        )
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
        fetcher = Fetcher(
            FixtureTransport(fixtures),
            FetchPolicy(politeness_delay=0, max_redirects=3, disk_cache=False),
        )
        result = fetcher.dereference("https://a.example/0")
        assert result.status == TAG_REDIRECT_LIMIT

    def test_relative_location_resolved(self, fixtures):
        write_fixture(fixtures, "https://a.example/old", 302, {"Location": "/new"}, b"")
        write_fixture(fixtures, "https://a.example/new", 200, {}, b"ok")
        result = fixture_fetcher(fixtures).dereference("https://a.example/old")
        assert result.final_uri == "https://a.example/new"


class CountingTransport:
    """Wraps a transport and counts exchanges, to observe cache behavior."""

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def request(self, uri, **kw):
        self.requests.append(uri)
        return self.inner.request(uri, **kw)


class TestCaching:
    def test_repeated_fetch_hits_cache(self, fixtures):
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
        transport = CountingTransport(FixtureTransport(fixtures))
        fetcher = Fetcher(transport, FAST)
        first = fetcher.dereference("https://a.example/x")
        second = fetcher.dereference("https://a.example/x")
        assert first == second
        assert len(transport.requests) == 1

    def test_disk_cache_survives_fetcher_restart(self, fixtures, tmp_path):
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
        policy = FetchPolicy(politeness_delay=0, cache_dir=str(tmp_path / "cache"))
        transport = CountingTransport(FixtureTransport(fixtures))
        Fetcher(transport, policy).dereference("https://a.example/x")
        again = Fetcher(transport, policy).dereference("https://a.example/x")
        assert again.status == 200
        assert again.body == b"body"
        assert len(transport.requests) == 1

    def test_failures_are_not_disk_cached(self, fixtures, tmp_path):
        fixtures.mkdir(parents=True)
        policy = FetchPolicy(politeness_delay=0, cache_dir=str(tmp_path / "cache"))
        fetcher = Fetcher(FixtureTransport(fixtures), policy)
        assert fetcher.dereference("https://a.example/x").failed
        write_fixture(fixtures, "https://a.example/x", 200, {}, b"late")
        assert Fetcher(FixtureTransport(fixtures), policy).dereference(
            "https://a.example/x"
        ).ok


def test_cache_env_var_names_disk_cache_dir(fixtures, tmp_path, monkeypatch):
    write_fixture(fixtures, "https://a.example/x", 200, {}, b"body")
    monkeypatch.setenv("SEEDSMITH_CACHE", str(tmp_path / "envcache"))
    fetcher = Fetcher(FixtureTransport(fixtures), FetchPolicy(politeness_delay=0))
    fetcher.dereference("https://a.example/x")
    assert list((tmp_path / "envcache").glob("*.json"))


def test_invalid_uri_tagged(fixtures):
    fixtures.mkdir(parents=True)
    fetcher = fixture_fetcher(fixtures)
    assert fetcher.dereference("mailto:a@b.c").status == TAG_INVALID_URI
    assert fetcher.dereference("not a uri").status == TAG_INVALID_URI


def test_politeness_delay_spaces_same_host_requests(fixtures):
    write_fixture(fixtures, "https://a.example/1", 200, {}, b"")
    write_fixture(fixtures, "https://a.example/2", 200, {}, b"")
    fetcher = Fetcher(
        FixtureTransport(fixtures),
        FetchPolicy(politeness_delay=0.15, disk_cache=False),
    )
    start = time.monotonic()
    fetcher.dereference("https://a.example/1")
    fetcher.dereference("https://a.example/2")
    assert time.monotonic() - start >= 0.15


class _Handler(BaseHTTPRequestHandler):
    hits = []

    def do_GET(self):
        _Handler.hits.append(self.path)
        if self.path == "/old":
            self.send_response(301)
            self.send_header("Location", "/new")
            self.end_headers()
            return
        body = b"<html><body>live</body></html>"
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


class TestHttpTransport:
    def test_live_fetch_and_redirect(self, live_server):
        fetcher = Fetcher(HttpTransport(), FAST)
        result = fetcher.dereference(f"{live_server}/old")
        assert result.status == 200
        assert result.final_uri == f"{live_server}/new"
        assert result.redirect_chain == (f"{live_server}/new",)
        assert b"live" in result.body

    def test_live_fetch_cached_one_network_request(self, live_server):
        fetcher = Fetcher(HttpTransport(), FAST)
        fetcher.dereference(f"{live_server}/page")
        fetcher.dereference(f"{live_server}/page")
        assert _Handler.hits.count("/page") == 1


def test_cli_import_leaves_requests_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, seedsmith.cli; print('requests' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
