"""From post groups to seed collections.

Extracts URIs from post links and free text, canonicalizes them,
classifies HTML vs non-HTML, replaces intra-platform post URIs with the
seeds found in their targets, and assembles deduplicated per-cell
collections with full provenance.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, replace
from datetime import datetime
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

from .corpus.fetch import Fetcher
from .corpus.model import Corpus, Post
from .segmentation import CellKey, PostGroup

HTML_KIND = "html"
NON_HTML_KIND = "non_html"

HTML_MEDIA_TYPES = frozenset({"text/html", "application/xhtml+xml"})

# Extension heuristic used when no media type is available. Anything not
# listed is presumed to be a webpage.
NON_HTML_EXTENSIONS = frozenset(
    """
    .pdf .doc .docx .ppt .pptx .xls .xlsx .csv .txt .rtf .xml .json
    .jpg .jpeg .png .gif .bmp .webp .svg .ico
    .mp4 .webm .avi .mov .mkv .mp3 .wav .ogg .flac
    .zip .gz .tgz .tar .rar .7z .exe .dmg .iso
    """.split()
)

TRACKING_PARAM_PREFIXES = ("utm_",)
TRACKING_PARAMS = frozenset({"fbclid", "gclid"})

_URI_RE = re.compile(r"https?://[^\s<>\"']+", re.IGNORECASE)
_TRAILING_PUNCT = ".,;:!?'\")]}>"

# Host + path patterns that identify a link to another post on the same
# platform (a post-permalink, not an arbitrary page).
_INTRA_SITE_PATTERNS = (
    ("twitter", ("twitter.com", "www.twitter.com", "mobile.twitter.com"),
     re.compile(r"^/[^/]+/status/\d+")),
    ("twitter_moments", ("twitter.com", "www.twitter.com"),
     re.compile(r"^/i/moments/\d+")),
    ("reddit", ("reddit.com", "www.reddit.com", "old.reddit.com", "np.reddit.com"),
     re.compile(r"^/r/[^/]+/comments/\w+")),
    ("scoopit", ("scoop.it", "www.scoop.it"),
     re.compile(r"^/(?:t/[^/]+/p/\d+|topic/[^/]+/p/\d+)")),
)


class ExtractionError(Exception):
    pass


class CanonicalizationError(ExtractionError):
    """The input could not be treated as an absolute http(s) URI."""


@dataclass(frozen=True)
class SeedProvenance:
    post_id: str
    group_id: str
    topic_id: str
    source: str
    vertical: str
    post_class: str


@dataclass(frozen=True)
class SeedUri:
    original: str
    canonical: str
    hostname: str
    kind: str  # html | non_html
    provenance: SeedProvenance
    retrieved_at: datetime
    final: str | None = None  # post-redirect URI, once fetched
    fetch_status: int | str | None = None


@dataclass(frozen=True)
class SeedCollection:
    """Seeds of one (topic, source, vertical, post class) cell.

    ``seeds`` is deduplicated per cell (or across the run with global
    dedup) and feeds collection-level counts (URI totals, diversity,
    overlap). A post's link count is a property of the post itself, so
    ``post_seeds`` keeps every post's own links (deduplicated within the
    post only) for the per-post measures.
    """

    key: CellKey
    seeds: tuple[SeedUri, ...]
    post_seeds: tuple[SeedUri, ...]

    @property
    def canonical_uris(self) -> set[str]:
        return {s.canonical for s in self.seeds}


def _trim_trailing_punct(uri: str) -> str:
    while uri and uri[-1] in _TRAILING_PUNCT:
        if uri[-1] == ")" and uri.count("(") >= uri.count(")"):
            break  # the closer is balanced inside the URI, keep it
        uri = uri[:-1]
    return uri


def extract_uris(post: Post) -> list[str]:
    """Raw URI strings of a post: markup links first, then absolute
    http(s) URIs found in the text. Order kept, duplicates kept."""
    found = list(post.raw_links)
    for match in _URI_RE.finditer(post.text):
        uri = _trim_trailing_punct(match.group(0))
        if uri:
            found.append(uri)
    return found


def canonicalize(uri: str) -> str:
    """Normalize an absolute http(s) URI.

    Lowercases scheme and host, drops the fragment and default ports,
    strips tracking parameters (utm_*, fbclid, gclid), sorts the
    remaining query parameters, and removes the trailing slash of an
    otherwise-empty path. IPv6 hosts keep their brackets. Idempotent.
    """
    if not isinstance(uri, str) or not uri.strip():
        raise CanonicalizationError(f"cannot canonicalize {uri!r}")
    try:
        parts = urlsplit(uri.strip())
        host = parts.hostname
        port = parts.port
    except ValueError as exc:
        raise CanonicalizationError(f"cannot canonicalize {uri!r}: {exc}") from exc
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https") or not host:
        raise CanonicalizationError(f"not an absolute http(s) URI: {uri!r}")

    netloc = host.lower()
    if ":" in netloc:  # an IPv6 literal
        netloc = f"[{netloc}]"
    if port is not None and port != {"http": 80, "https": 443}[scheme]:
        netloc = f"{netloc}:{port}"
    if parts.username:
        cred = parts.username + (f":{parts.password}" if parts.password else "")
        netloc = f"{cred}@{netloc}"

    pairs = [
        (k, v)
        for k, v in parse_qsl(parts.query, keep_blank_values=True)
        if not (k.lower().startswith(TRACKING_PARAM_PREFIXES) or k.lower() in TRACKING_PARAMS)
    ]
    query = urlencode(sorted(pairs))

    path = parts.path
    if path == "/":
        path = ""
    return urlunsplit((scheme, netloc, path, query, ""))


def hostname_of(canonical: str) -> str:
    """Full lowercase hostname of a canonical URI; subdomains are kept
    distinct (no registrable-domain collapsing)."""
    parts = urlsplit(canonical)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise CanonicalizationError(f"URI has no http(s) hostname: {canonical!r}")
    return parts.hostname.lower()


def classify_uri_kind(uri: str, media_type: str | None = None) -> str:
    """HTML/non-HTML classification of ``uri``.

    A media type wins when present; otherwise the path extension decides
    (unlisted extensions count as HTML).
    """
    if media_type:
        base = media_type.split(";")[0].strip().lower()
        return HTML_KIND if base in HTML_MEDIA_TYPES else NON_HTML_KIND
    ext = posixpath.splitext(urlsplit(uri).path)[1].lower()
    return NON_HTML_KIND if ext in NON_HTML_EXTENSIONS else HTML_KIND


def intra_site_source(uri: str) -> str | None:
    """Platform name when ``uri`` is a post-permalink on a known platform."""
    parts = urlsplit(uri)
    host = (parts.hostname or "").lower()
    for source, hosts, path_re in _INTRA_SITE_PATTERNS:
        if host in hosts and path_re.match(parts.path):
            return source
    return None


class LinkTable(dict):
    """Per-run memo of what a raw link string canonicalizes to.

    ``table[raw]`` is ``(canonical, hostname, kind, intra-site source)``,
    or ``None`` when ``raw`` is not an absolute http(s) URI. Each distinct
    string is canonicalized once, on its first lookup.
    """

    def __missing__(self, raw: str) -> tuple[str, str, str, str | None] | None:
        try:
            canonical = canonicalize(raw)
            entry = (canonical, hostname_of(canonical), classify_uri_kind(canonical),
                     intra_site_source(canonical))
        except CanonicalizationError:
            entry = None
        self[raw] = entry
        return entry


def substitute_intra_site(
    permalink: str,
    fetcher: Fetcher,
    depth_limit: int = 3,
    warnings: list | None = None,
    links: LinkTable | None = None,
) -> tuple[tuple[str, str, str, str], ...] | None:
    """The seeds an intra-platform post URI stands for: the links its
    target holds, as (original, canonical, hostname, kind) tuples.

    ``permalink`` is a canonical URI. Follows nested post links up to
    ``depth_limit``, visiting each post URI once (cycles terminate). A
    target without outbound links gives ``()``. A failed fetch keeps the
    permalink as-is (the result is ``None``) under a lenient fetcher and
    raises ExtractionError under a strict one.
    ``links`` is the run's link table, if the caller keeps one.
    """
    if links is None:
        links = LinkTable()
    if warnings is None:
        warnings = []

    def links_of(uri: str) -> tuple[str, ...] | None:
        result = fetcher.dereference(uri)
        if not result.ok:
            if not fetcher.policy.lenient:
                raise ExtractionError(f"cannot resolve intra-site URI {uri}: {result.status}")
            warnings.append(f"intra-site URI {uri} not resolvable ({result.status}); kept as-is")
            return None
        return fetcher.digest(result).links

    page_links = links_of(permalink)
    if page_links is None:
        return None
    visited = {permalink}
    out: list[tuple[str, str, str, str]] = []
    # Depth-first over nested post links with an explicit stack of
    # (uri, depth, remaining links), so the nesting depth is bounded by
    # ``depth_limit`` alone and not by the interpreter's recursion limit.
    # A nested post that cannot be fetched contributes nothing.
    stack = [(permalink, 1, iter(page_links))]
    while stack:
        uri, depth, remaining = stack[-1]
        for link in remaining:
            entry = links[link]
            if entry is None:
                warnings.append(f"skipping unparseable link {link!r} in {uri}")
                continue
            canonical, hostname, kind, source = entry
            if source and depth < depth_limit:
                if canonical in visited:
                    continue
                visited.add(canonical)
                nested = links_of(canonical)
                if nested is not None:
                    stack.append((canonical, depth + 1, iter(nested)))
                    break
                continue
            out.append((link, canonical, hostname, kind))
        else:
            stack.pop()
    if not out:
        warnings.append(f"intra-site URI {permalink} had no outbound links; seed dropped")
    return tuple(out)


@dataclass(frozen=True)
class AssembleOptions:
    depth_limit: int = 3
    fetch_kinds: bool = False  # dereference seeds for media-type evidence
    global_dedup: bool = False


def assemble_collections(
    corpus: Corpus,
    partition: dict[CellKey, list[PostGroup]],
    fetcher: Fetcher | None = None,
    options: AssembleOptions = AssembleOptions(),
    warnings: list | None = None,
) -> dict[CellKey, SeedCollection]:
    """Extract, substitute, canonicalize, classify, and dedup seeds per cell.

    Intra-platform post URIs are substituted when a ``fetcher`` is given.
    Every cell of the partition appears in the result, empty or not.
    Dedup is by canonical URI, first occurrence winning, scoped per cell
    (or across the whole run with ``global_dedup``).

    Each distinct raw link is canonicalized once per call, and each
    distinct permalink is expanded once per call: an expansion depends
    only on the permalink's canonical URI, the fetcher and the options,
    so every visit builds its seeds from the stored targets, and the
    expansion's warnings are raised once, on the first visit.
    """
    if warnings is None:
        warnings = []
    links = LinkTable()
    # permalink canonical URI -> substitute_intra_site's targets, or None
    # when the permalink is kept as-is
    expansions: dict[str, tuple | None] = {}
    global_seen: set[str] = set()
    collections: dict[CellKey, SeedCollection] = {}

    for key in sorted(partition):
        groups = partition[key]
        seen = global_seen if options.global_dedup else set()
        per_post_seen: dict[str, set[str]] = {}
        seeds: list[SeedUri] = []
        stream: list[SeedUri] = []
        for group in groups:
            for post_id in group.post_ids:
                post = corpus.posts[post_id]
                post_seen = per_post_seen.setdefault(post.id, set())
                provenance = SeedProvenance(
                    post_id=post.id,
                    group_id=group.group_id,
                    topic_id=group.topic_id,
                    source=group.source,
                    vertical=group.vertical,
                    post_class=group.post_class,
                )
                for raw in extract_uris(post):
                    entry = links[raw]
                    if entry is None:
                        warnings.append(f"post {post.id}: skipping unparseable URI {raw!r}")
                        continue
                    canonical, hostname, kind, source = entry
                    targets = None
                    if fetcher is not None and source:
                        if canonical not in expansions:
                            expansions[canonical] = substitute_intra_site(
                                canonical, fetcher, options.depth_limit, warnings, links
                            )
                        targets = expansions[canonical]
                    if targets is None:  # not a permalink, or one kept as-is
                        targets = ((raw, canonical, hostname, kind),)
                    for target in targets:
                        if target[1] in post_seen:
                            continue
                        post_seen.add(target[1])
                        seed = SeedUri(*target, provenance, post.retrieved_at)
                        if options.fetch_kinds and fetcher is not None:
                            seed = _fetch_kind(seed, fetcher)
                        stream.append(seed)
                        if seed.canonical in seen:
                            continue
                        seen.add(seed.canonical)
                        seeds.append(seed)
        collections[key] = SeedCollection(key=key, seeds=tuple(seeds), post_seeds=tuple(stream))
    return collections


def _fetch_kind(seed: SeedUri, fetcher: Fetcher) -> SeedUri:
    result = fetcher.dereference(seed.canonical)
    if result.failed:
        return replace(seed, fetch_status=result.status)
    return replace(
        seed,
        final=result.final_uri,
        fetch_status=result.status,
        kind=classify_uri_kind(result.final_uri, result.media_type),
    )


SEED_CSV_HEADER = (
    "topic",
    "source",
    "vertical",
    "post_class",
    "canonical_uri",
    "kind",
    "hostname",
    "post_id",
    "retrieved_at",
)


def seed_rows(collections: dict[CellKey, SeedCollection]) -> list[tuple]:
    """Seed export rows matching SEED_CSV_HEADER, deterministically ordered."""
    from .corpus.model import format_timestamp

    rows = []
    for key in sorted(collections):
        for seed in collections[key].seeds:
            p = seed.provenance
            rows.append(
                (
                    p.topic_id,
                    p.source,
                    p.vertical,
                    p.post_class,
                    seed.canonical,
                    seed.kind,
                    seed.hostname,
                    p.post_id,
                    format_timestamp(seed.retrieved_at),
                )
            )
    return rows


def seed_json(collections: dict[CellKey, SeedCollection]) -> list[dict]:
    """Seed export mirroring SeedUri fields exactly."""
    from .corpus.model import format_timestamp

    out = []
    for key in sorted(collections):
        for seed in collections[key].seeds:
            p = seed.provenance
            out.append(
                {
                    "original": seed.original,
                    "canonical": seed.canonical,
                    "final": seed.final,
                    "kind": seed.kind,
                    "hostname": seed.hostname,
                    "provenance": {
                        "post_id": p.post_id,
                        "group_id": p.group_id,
                        "topic_id": p.topic_id,
                        "source": p.source,
                        "vertical": p.vertical,
                        "post_class": p.post_class,
                    },
                    "retrieved_at": format_timestamp(seed.retrieved_at),
                    "fetch_status": seed.fetch_status,
                }
            )
    return out
