"""Per-topic gold-standard term vectors from reference-list documents.

The pipeline mirrors how the reference material is prepared: dereference
each citation URI, strip page boilerplate down to main-content text,
concatenate everything, and build one normalized term-frequency vector.
Reference lists are multi-author artifacts, so gold standards carry the
P1An post-class label.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from urllib.parse import urlsplit

from . import textkernel
from .corpus.fetch import Fetcher, FetchResult
from .corpus.model import TopicSpec, format_timestamp, parse_timestamp
from .htmltools import Element, HtmlDecodingError, decode_html, parse_html
from .segmentation import P1AN
from .stopwords import STOPWORDS, STOPWORDS_VERSION

log = logging.getLogger(__name__)

MIN_TOKEN_LEN = 2

_REFERENCE_MARKER_RE = re.compile(
    r"(references|reflist|citations|cite[-_]?list|sources|footnotes|bibliography)",
    re.IGNORECASE,
)


class GoldStandardError(Exception):
    pass


def build_term_vector(texts) -> dict[str, float]:
    """Normalized term frequencies over the concatenation of ``texts``:
    each weight is tf / total tf, so non-empty weights sum to 1 (within
    1e-9).

    Order-invariant: any permutation of the same texts yields the same
    weights. Terms keep their first-seen order, which fixes the
    summation order of every cosine taken over the vector.
    """
    counts = Counter()
    for i, text in enumerate(texts):
        found = textkernel.token_counts(text, STOPWORDS, MIN_TOKEN_LEN)
        if i:
            counts.update(found)
        else:
            counts = found
    total = sum(counts.values())
    return {term: n / total for term, n in counts.items()}


def _looks_like_reference_container(el: Element) -> bool:
    attrs = " ".join(
        filter(None, (el.attrs.get("id"), el.attrs.get("class"), el.attrs.get("role")))
    )
    return bool(attrs and _REFERENCE_MARKER_RE.search(attrs))


def extract_references(ref_page: FetchResult) -> list[str]:
    """External citation URIs from a reference-list page, document order.

    Looks for containers marked as reference/citation lists (by id or
    class), falling back to ordered lists that hold off-site anchors.
    Same-host and relative links are treated as intra-wiki navigation
    and excluded. Returns [] with a warning when nothing looks like a
    references section.
    """
    try:
        root = parse_html(decode_html(ref_page.body))
    except HtmlDecodingError:
        log.warning("reference page %s is not decodable", ref_page.final_uri)
        return []
    page_host = (urlsplit(ref_page.final_uri).hostname or "").lower()

    def external_uris(container: Element) -> list[str]:
        out = []
        for anchor in container.iter_tag("a"):
            href = anchor.attrs.get("href")
            if not href:
                continue
            href = href.strip()
            if not href.lower().startswith(("http://", "https://")):
                continue
            host = (urlsplit(href).hostname or "").lower()
            if host and host != page_host:
                out.append(href)
        return out

    containers = [el for el in root.elements if _looks_like_reference_container(el)]
    if not containers:
        containers = [el for el in root.elements if el.tag == "ol" and external_uris(el)]
    if not containers:
        log.warning("no references section found in %s", ref_page.final_uri)
        return []

    seen = set()
    uris = []
    for container in containers:
        for uri in external_uris(container):
            if uri not in seen:
                seen.add(uri)
                uris.append(uri)
    return uris


@dataclass(frozen=True)
class GoldStandard:
    topic_id: str
    vector: dict[str, float]  # build_term_vector's normalized weights
    reference_uris: tuple[str, ...]
    failures: tuple[tuple[str, str], ...]  # (uri, reason)
    built_at: datetime
    post_class: str = P1AN

    def to_json(self) -> str:
        """Byte-stable JSON with lexicographically sorted terms."""
        payload = {
            "topic_id": self.topic_id,
            "built_at": format_timestamp(self.built_at),
            "reference_uris": list(self.reference_uris),
            "failures": [{"uri": u, "reason": r} for u, r in self.failures],
            "post_class": self.post_class,
            "stopwords_version": STOPWORDS_VERSION,
            "weights": {t: self.vector[t] for t in sorted(self.vector)},
        }
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GoldStandard":
        """Read ``to_json``'s output back. Text that is not such a
        document raises GoldStandardError."""
        try:
            payload = json.loads(text)
            return cls(
                topic_id=payload["topic_id"],
                vector=dict(payload["weights"]),
                reference_uris=tuple(payload["reference_uris"]),
                failures=tuple((f["uri"], f["reason"]) for f in payload["failures"]),
                built_at=parse_timestamp(payload["built_at"]),
                post_class=payload.get("post_class", P1AN),
            )
        except KeyError as exc:
            raise GoldStandardError(f"missing key {exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise GoldStandardError(f"malformed gold standard: {exc}") from exc


def build_gold_standard(topic: TopicSpec, ref_uris, fetcher: Fetcher) -> GoldStandard:
    """Fetch every reference, take its main-content text from the
    fetcher's page digest, and build one normalized vector over the
    concatenation.

    Individual fetch/parse failures are recorded and skipped; if every
    reference fails, GoldStandardError is raised. ``built_at`` is the
    newest reference fetch time, so fixture-driven builds are
    reproducible.
    """
    ref_uris = list(ref_uris)
    if not ref_uris:
        raise GoldStandardError(f"topic {topic.topic_id}: no reference URIs given")

    texts = []
    failures = []
    fetched_times = []
    for uri in ref_uris:
        result = fetcher.dereference(uri)
        if result.failed or not result.ok:
            failures.append((uri, str(result.status)))
            continue
        fetched_times.append(result.fetched_at)
        digest = fetcher.digest(result)
        if digest.text_error is not None:
            failures.append((uri, f"unusable document: {digest.text_error}"))
        else:
            texts.append(digest.text)

    if not texts:
        raise GoldStandardError(
            f"topic {topic.topic_id}: every reference failed "
            f"({len(failures)} of {len(ref_uris)})"
        )
    return GoldStandard(
        topic_id=topic.topic_id,
        vector=build_term_vector(texts),
        reference_uris=tuple(ref_uris),
        failures=tuple(failures),
        built_at=max(fetched_times),
    )
