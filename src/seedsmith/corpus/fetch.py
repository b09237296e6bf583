"""Polite HTTP fetching with redirects, per-run caching, and offline fixtures.

A Transport performs one request/response exchange with no redirect
handling; the Fetcher layers redirect following, per-host politeness,
and a request-URI-keyed cache on top, plus one page digest per final
URI (see ``seedsmith.pages``). The supported, reproducible path is
FixtureTransport, which serves bit-exact HTTP-message-like files.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from ..pages import PageDigest, digest_page
from .model import format_timestamp, parse_timestamp

CACHE_ENV = "SEEDSMITH_CACHE"
DEFAULT_CACHE_DIR = ".seedsmith-cache"

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
    politeness_delay: float = 1.0  # seconds between requests to one host
    timeout: float = 30.0
    lenient: bool = True  # errors become tagged results instead of raising
    user_agent: str = "seedsmith/0.1"
    disk_cache: bool = True
    cache_dir: str | None = None  # None -> $SEEDSMITH_CACHE or .seedsmith-cache


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

    ``requests`` is imported on first use, so offline runs never load it.
    """

    def __init__(self):
        import requests

        self._session = requests.Session()

    def request(self, uri: str, *, timeout: float, user_agent: str):
        import requests

        try:
            response = self._session.get(
                uri,
                timeout=timeout,
                allow_redirects=False,
                headers={"User-Agent": user_agent},
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
    """Write an HTTP-message-like fixture file for ``uri`` and return its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    reason = reason or {200: "OK", 301: "Moved Permanently", 302: "Found", 404: "Not Found"}.get(status, "")
    lines = [f"HTTP/1.1 {status} {reason}".rstrip().encode("ascii")]
    for name, value in headers.items():
        lines.append(f"{name}: {value}".encode("utf-8"))
    message = b"\r\n".join(lines) + b"\r\n\r\n" + body
    path = directory / fixture_filename(uri)
    path.write_bytes(message)
    return path


class FixtureTransport:
    """Serves requests from a directory of ``{uri-hash}.response`` files.

    Each file is an HTTP-like message: status line, header lines, blank
    line, raw body. Both CRLF and LF separators are accepted.
    """

    def __init__(self, directory):
        self.directory = Path(directory)

    def request(self, uri: str, *, timeout: float, user_agent: str):
        path = self.directory / fixture_filename(uri)
        if not path.exists():
            raise TransportError(TAG_MISSING_FIXTURE, f"no fixture for {uri} ({path.name})")
        raw = path.read_bytes()
        for sep in (b"\r\n\r\n", b"\n\n"):
            if sep in raw:
                head, body = raw.split(sep, 1)
                break
        else:
            head, body = raw, b""
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


class Fetcher:
    """Dereferences URIs with redirects, politeness, and per-run caching.

    Safe for concurrent use: requests to distinct hosts may proceed in
    parallel, same-host requests are serialized by the politeness delay,
    and the caches tolerate concurrent readers/writers.
    """

    def __init__(self, transport=None, policy: FetchPolicy | None = None, clock=None):
        self.transport = transport or HttpTransport()
        self.policy = policy or FetchPolicy()
        self._clock = clock or (lambda: datetime.now(timezone.utc))
        self._memory: dict[str, FetchResult] = {}
        self._memory_lock = threading.Lock()
        self._digests: dict[str, PageDigest] = {}
        self._digest_lock = threading.Lock()
        self._host_locks: dict[str, threading.Lock] = {}
        self._host_last: dict[str, float] = {}
        self.request_count = 0  # network exchanges performed (cache misses)

    # -- cache ---------------------------------------------------------

    def _cache_dir(self) -> Path | None:
        if not self.policy.disk_cache:
            return None
        raw = self.policy.cache_dir or os.environ.get(CACHE_ENV) or DEFAULT_CACHE_DIR
        return Path(raw)

    def _disk_path(self, request_uri: str) -> Path | None:
        directory = self._cache_dir()
        if directory is None:
            return None
        return directory / (hashlib.sha256(request_uri.encode("utf-8")).hexdigest() + ".json")

    def _load_cached(self, request_uri: str) -> FetchResult | None:
        with self._memory_lock:
            hit = self._memory.get(request_uri)
        if hit is not None:
            return hit
        path = self._disk_path(request_uri)
        if path is None or not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            result = FetchResult(
                request_uri=record["request_uri"],
                final_uri=record["final_uri"],
                status=record["status"],
                media_type=record["media_type"],
                headers=record["headers"],
                body=base64.b64decode(record["body_b64"]),
                fetched_at=parse_timestamp(record["fetched_at"]),
                redirect_chain=tuple(record["redirect_chain"]),
            )
        except (KeyError, ValueError, json.JSONDecodeError):
            return None  # corrupt cache entries are refetched
        with self._memory_lock:
            self._memory[request_uri] = result
        return result

    def _store(self, result: FetchResult) -> None:
        with self._memory_lock:
            self._memory[result.request_uri] = result
        path = self._disk_path(result.request_uri)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "request_uri": result.request_uri,
            "final_uri": result.final_uri,
            "status": result.status,
            "media_type": result.media_type,
            "headers": result.headers,
            "body_b64": base64.b64encode(result.body).decode("ascii"),
            "fetched_at": format_timestamp(result.fetched_at),
            "redirect_chain": list(result.redirect_chain),
        }
        # Unique temp name per writer so concurrent stores of the same
        # entry cannot tear each other; replace() is atomic.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(json.dumps(record), encoding="utf-8")
        tmp.replace(path)

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

    # -- politeness ----------------------------------------------------

    def _wait_for_host(self, uri: str) -> None:
        delay = self.policy.politeness_delay
        if delay <= 0:
            return
        host = urlsplit(uri).hostname or ""
        with self._memory_lock:
            lock = self._host_locks.setdefault(host, threading.Lock())
        with lock:
            last = self._host_last.get(host)
            now = time.monotonic()
            if last is not None and now - last < delay:
                time.sleep(delay - (now - last))
            self._host_last[host] = time.monotonic()

    # -- fetching ------------------------------------------------------

    def dereference(self, uri: str) -> FetchResult:
        """Fetch ``uri``, following redirects up to the policy limit.

        In lenient mode transport failures come back as results whose
        status is an error tag; in strict mode they raise FetchError.
        """
        parts = urlsplit(uri)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            return self._fail(uri, uri, (), TAG_INVALID_URI, f"not an absolute http(s) URI: {uri}")
        cached = self._load_cached(uri)
        if cached is not None:
            return cached

        chain: list[str] = []
        current = uri
        final_status: int | None = None
        headers: dict[str, str] = {}
        body = b""
        while True:
            self._wait_for_host(current)
            try:
                status, headers, body = self.transport.request(
                    current, timeout=self.policy.timeout, user_agent=self.policy.user_agent
                )
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
            final_status = status
            break

        result = FetchResult(
            request_uri=uri,
            final_uri=current,
            status=final_status,
            media_type=media_type_of(headers),
            headers=headers,
            body=body,
            fetched_at=self._fetched_at(headers),
            redirect_chain=tuple(chain),
        )
        self._store(result)
        return result

    def _fetched_at(self, headers: dict[str, str]) -> datetime:
        # Prefer the response Date header so fixture-served fetches are
        # reproducible run to run.
        raw = headers.get("date")
        if raw:
            try:
                dt = parsedate_to_datetime(raw)
                if dt.tzinfo is None:
                    dt = dt.replace(tzinfo=timezone.utc)
                return dt.astimezone(timezone.utc)
            except (TypeError, ValueError):
                pass
        return self._clock()

    def _fail(self, request_uri, final_uri, chain, tag, detail) -> FetchResult:
        if not self.policy.lenient:
            raise FetchError(tag, detail)
        result = FetchResult(
            request_uri=request_uri,
            final_uri=final_uri,
            status=tag,
            media_type=None,
            headers={},
            body=b"",
            fetched_at=EPOCH,
            redirect_chain=chain,
        )
        # Failures are cached in memory only, so a later run may retry.
        with self._memory_lock:
            self._memory[request_uri] = result
        return result
