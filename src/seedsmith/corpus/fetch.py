"""HTTP fetching with redirects and per-run caching, recorded and
replayed through one fixture format.

A transport performs one request/response exchange with no redirect
handling. ``HttpTransport`` reaches a host, waiting between requests to
one host; ``FixtureTransport`` replays ``{sha256(uri)}.response`` files
(status line, header lines, blank line, raw body);
``RecordingTransport`` replays an exchange already in its directory and
otherwise fetches it live and writes it there, so a replay of the
directory reproduces the live run. The Fetcher layers redirect
following and a per-run, request-URI-keyed memory cache on top, plus
one page digest per final URI (see ``seedsmith.pages``). Nothing else
is kept on disk.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import formatdate, parsedate_to_datetime
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from ..pages import PageDigest, digest_page

# Transport-error tags stored in FetchResult.status (lenient mode).
TAG_TRANSPORT = "transport-error"
TAG_TIMEOUT = "timeout"
TAG_INVALID_URI = "invalid-uri"
TAG_REDIRECT_LOOP = "redirect-loop"
TAG_REDIRECT_LIMIT = "redirect-limit"
TAG_MISSING_FIXTURE = "missing-fixture"

# Fetch time of failed fetches, and the clock of offline runs.
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class FetchError(Exception):
    """Raised in strict mode when a fetch cannot be completed."""

    def __init__(self, tag: str, detail: str = ""):
        super().__init__(f"{tag}: {detail}" if detail else tag)
        self.tag = tag
        self.detail = detail


class TransportError(FetchError):
    """A single request/response exchange failed."""


@dataclass(frozen=True)
class FetchPolicy:
    max_redirects: int = 10
    lenient: bool = True  # errors become tagged results instead of raising


@dataclass(frozen=True)
class FetchResult:
    request_uri: str
    final_uri: str
    status: int | str  # HTTP status, or a transport-error tag
    media_type: str | None
    headers: dict[str, str]  # final-hop response headers, lowercased keys
    body: bytes
    fetched_at: datetime
    redirect_chain: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return isinstance(self.status, int) and 200 <= self.status < 300

    @property
    def failed(self) -> bool:
        return not isinstance(self.status, int)


def media_type_of(headers: dict[str, str]) -> str | None:
    content_type = headers.get("content-type")
    if not content_type:
        return None
    return content_type.split(";")[0].strip().lower() or None


class HttpTransport:
    """Live single-exchange transport; redirects are not followed here.

    Requests to one host start at least ``politeness_delay`` seconds
    apart, also under concurrency; requests to distinct hosts proceed in
    parallel. ``requests`` is imported on first use, so offline runs
    never load it.
    """

    TIMEOUT = 30.0
    USER_AGENT = "seedsmith/0.1"

    def __init__(self, politeness_delay: float = 1.0):
        import requests

        self._session = requests.Session()
        self.politeness_delay = politeness_delay
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}
        self._locks_lock = threading.Lock()

    def _wait_for_host(self, uri: str) -> None:
        delay = self.politeness_delay
        if delay <= 0:
            return
        host = urlsplit(uri).hostname or ""
        with self._locks_lock:
            lock = self._host_locks.setdefault(host, threading.Lock())
        with lock:
            last = self._host_last.get(host)
            now = time.monotonic()
            if last is not None and now - last < delay:
                time.sleep(delay - (now - last))
            self._host_last[host] = time.monotonic()

    def request(self, uri: str):
        import requests

        self._wait_for_host(uri)
        try:
            response = self._session.get(
                uri,
                timeout=self.TIMEOUT,
                allow_redirects=False,
                headers={"User-Agent": self.USER_AGENT},
            )
        except requests.exceptions.Timeout as exc:
            raise TransportError(TAG_TIMEOUT, str(exc)) from exc
        except requests.exceptions.RequestException as exc:
            raise TransportError(TAG_TRANSPORT, str(exc)) from exc
        headers = {k.lower(): v for k, v in response.headers.items()}
        return response.status_code, headers, response.content


def fixture_filename(uri: str) -> str:
    """Name of the fixture file for a URI: sha256 hex + .response."""
    return hashlib.sha256(uri.encode("utf-8")).hexdigest() + ".response"


def write_fixture(directory, uri: str, status: int, headers: dict, body: bytes, reason: str = "") -> Path:
    """Write an HTTP-message-like fixture file for ``uri`` and return its path.

    Header lines are latin-1, as ``FixtureTransport`` and ``http.client``
    read them. The file appears whole: it is written under a temporary
    name unique to the writer and then renamed, so concurrent recorders
    of one exchange cannot tear it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    reason = reason or {200: "OK", 301: "Moved Permanently", 302: "Found", 404: "Not Found"}.get(status, "")
    lines = [f"HTTP/1.1 {status} {reason}".rstrip().encode("ascii")]
    for name, value in headers.items():
        lines.append(f"{name}: {value}".encode("latin-1"))
    message = b"\r\n".join(lines) + b"\r\n\r\n" + body
    path = directory / fixture_filename(uri)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(message)
    tmp.replace(path)
    return path


_BLANK_LINE = re.compile(rb"\r?\n\r?\n")


class FixtureTransport:
    """Serves requests from a directory of ``{uri-hash}.response`` files.

    Each file is an HTTP-like message: status line, header lines, blank
    line, raw body. Both CRLF and LF separators are accepted; the head
    ends at the first blank line of either form.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def request(self, uri: str):
        path = self.directory / fixture_filename(uri)
        if not path.exists():
            raise TransportError(TAG_MISSING_FIXTURE, f"no fixture for {uri} ({path.name})")
        raw = path.read_bytes()
        blank = _BLANK_LINE.search(raw)
        head, body = (raw[:blank.start()], raw[blank.end():]) if blank else (raw, b"")
        head_lines = head.replace(b"\r\n", b"\n").split(b"\n")
        status_line = head_lines[0].decode("latin-1").strip()
        parts = status_line.split(None, 2)
        try:
            status = int(parts[1] if parts[0].upper().startswith("HTTP") else parts[0])
        except (IndexError, ValueError) as exc:
            raise TransportError(TAG_TRANSPORT, f"bad status line in {path.name}: {status_line!r}") from exc
        headers = {}
        for line in head_lines[1:]:
            text = line.decode("latin-1")
            if ":" not in text:
                continue
            name, value = text.split(":", 1)
            headers[name.strip().lower()] = value.strip()
        return status, headers, body


class RecordingTransport:
    """Replays an exchange already recorded in ``directory``; fetches any
    other through ``live`` and records it there first.

    Every exchange the server answers is recorded: each redirect hop,
    404s and 5xx alike. A transport failure records nothing. A response
    without a ``Date`` header is stamped with the time of the fetch. The
    live run is served the recorded file, so a ``FixtureTransport`` over
    ``directory`` later replays exactly what the live run saw.
    """

    def __init__(self, directory, live):
        self.replay = FixtureTransport(directory)
        self.live = live

    def request(self, uri: str):
        if not (self.replay.directory / fixture_filename(uri)).exists():
            status, headers, body = self.live.request(uri)
            headers.setdefault("date", formatdate(usegmt=True))
            write_fixture(self.replay.directory, uri, status, headers, body)
        return self.replay.request(uri)


class Fetcher:
    """Dereferences URIs with redirects and per-run caching.

    Safe for concurrent use: the caches tolerate concurrent readers and
    writers, and pacing requests to a host is the transport's concern.
    """

    def __init__(self, transport=None, policy: FetchPolicy | None = None, clock=None):
        self.transport = transport or HttpTransport()
        self.policy = policy or FetchPolicy()
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._memory: dict[str, FetchResult] = {}
        self._memory_lock = threading.Lock()
        self._digests: dict[str, PageDigest] = {}
        self._digest_lock = threading.Lock()
        self.request_count = 0  # transport exchanges performed (cache misses)

    def digest(self, result: FetchResult) -> PageDigest:
        """The digest of a successfully fetched document, built once per
        final URI (requests redirected to one page share its digest).

        A page is digested under a lock, so concurrent callers never
        parse it twice; parsing holds the GIL throughout anyway.
        """
        with self._digest_lock:
            found = self._digests.get(result.final_uri)
            if found is None:
                found = self._digests[result.final_uri] = digest_page(result.body)
        return found

    def dereference(self, uri: str) -> FetchResult:
        """Fetch ``uri``, following redirects up to the policy limit.

        In lenient mode transport failures come back as results whose
        status is an error tag; in strict mode they raise FetchError.
        Results, failures included, are kept in memory for the run.
        """
        with self._memory_lock:
            result = self._memory.get(uri)
        if result is None:
            result = self._fetch(uri)
            with self._memory_lock:
                self._memory[uri] = result
        return result

    def _fetch(self, uri: str) -> FetchResult:
        parts = urlsplit(uri)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            return self._fail(uri, uri, (), TAG_INVALID_URI, f"not an absolute http(s) URI: {uri}")
        chain: list[str] = []
        current = uri
        while True:
            try:
                status, headers, body = self.transport.request(current)
                self.request_count += 1
            except TransportError as exc:
                return self._fail(uri, current, tuple(chain), exc.tag, exc.detail)
            if status in (301, 302, 303, 307, 308) and headers.get("location"):
                target = urljoin(current, headers["location"])
                if target == current or target in chain or target == uri:
                    return self._fail(uri, current, tuple(chain), TAG_REDIRECT_LOOP, f"redirect loop at {target}")
                chain.append(target)
                if len(chain) > self.policy.max_redirects:
                    return self._fail(uri, current, tuple(chain), TAG_REDIRECT_LIMIT,
                                      f"more than {self.policy.max_redirects} redirects")
                current = target
                continue
            return FetchResult(
                request_uri=uri,
                final_uri=current,
                status=status,
                media_type=media_type_of(headers),
                headers=headers,
                body=body,
                fetched_at=self._fetched_at(headers),
                redirect_chain=tuple(chain),
            )

    def _fetched_at(self, headers: dict[str, str]) -> datetime:
        # Prefer the response Date header so fixture-served fetches are
        # reproducible run to run; a date that does not parse, or lies
        # beyond the datetime range in UTC, falls back to the clock.
        raw = headers.get("date")
        if raw:
            try:
                dt = parsedate_to_datetime(raw)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                return dt.astimezone(timezone.utc)
            except (TypeError, ValueError, OverflowError):
                pass
        return self._clock()

    def _fail(self, request_uri, final_uri, chain, tag, detail) -> FetchResult:
        if not self.policy.lenient:
            raise FetchError(tag, detail)
        return FetchResult(
            request_uri=request_uri,
            final_uri=final_uri,
            status=tag,
            media_type=None,
            headers={},
            body=b"",
            fetched_at=EPOCH,
            redirect_chain=chain,
        )
