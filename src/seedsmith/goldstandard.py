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
from dataclasses import dataclass
from datetime import datetime, timezone
from urllib.parse import urlsplit

from . import textkernel
from .corpus.fetch import Fetcher, FetchResult
from .corpus.model import TopicSpec, format_timestamp
from .htmltools import Element, HtmlDecodingError, decode_html, find_links, parse_html
from .pages import main_text
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


@dataclass(frozen=True)
class TermVector:
    """Sparse term -> weight map with its provenance counts.

    ``term_count`` is the number of kept tokens the weights were built
    from; a normalized vector's weights sum to 1 (within 1e-9).
    """

    weights: dict[str, float]
    term_count: int
    source_doc_count: int
    normalized: bool

    def is_empty(self) -> bool:
        return not self.weights


def build_term_vector(texts, normalize: bool = True) -> TermVector:
    """Accumulate term frequencies over the concatenation of ``texts``.

    Order-invariant: any permutation of the same texts yields the same
    vector. With ``normalize`` each weight is tf / total tf.
    """
    counts: dict[str, int] = {}
    doc_count = 0
    for text in texts:
        doc_count += 1
        textkernel.merge_counts(counts, textkernel.token_counts(text, STOPWORDS, MIN_TOKEN_LEN))
    total = sum(counts.values())
    if normalize and total:
        weights = {term: n / total for term, n in counts.items()}
    else:
        weights = {term: float(n) for term, n in counts.items()}
    return TermVector(
        weights=weights,
        term_count=total,
        source_doc_count=doc_count,
        normalized=normalize,
    )


def strip_boilerplate(html) -> str:
    """Main-content plaintext of an HTML document (``pages.main_text``
    over a fresh parse).

    Raises HtmlDecodingError for undecodable bytes and ValueError for
    input with no markup at all. The pipeline reads the same text from
    the fetcher's page digests instead.
    """
    return main_text(parse_html(decode_html(html)))


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
        for href, _ in find_links(container):
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
    vector: TermVector
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
            "weights": {t: self.vector.weights[t] for t in sorted(self.vector.weights)},
        }
        return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GoldStandard":
        from .corpus.model import parse_timestamp

        payload = json.loads(text)
        weights = dict(payload["weights"])
        vector = TermVector(
            weights=weights,
            term_count=0,  # token totals are not persisted
            source_doc_count=0,
            normalized=True,
        )
        return cls(
            topic_id=payload["topic_id"],
            vector=vector,
            reference_uris=tuple(payload["reference_uris"]),
            failures=tuple((f["uri"], f["reason"]) for f in payload["failures"]),
            built_at=parse_timestamp(payload["built_at"]),
            post_class=payload.get("post_class", P1AN),
        )


def build_gold_standard(
    topic: TopicSpec,
    ref_uris,
    fetcher: Fetcher,
    clock=None,
) -> GoldStandard:
    """Fetch every reference, take its main-content text from the
    fetcher's page digest, and build one normalized vector over the
    concatenation.

    Individual fetch/parse failures are recorded and skipped; if every
    reference fails, GoldStandardError is raised. ``built_at`` defaults
    to the newest reference fetch time, so fixture-driven builds are
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
    built_at = clock() if clock else (
        max(fetched_times) if fetched_times else datetime(1970, 1, 1, tzinfo=timezone.utc)
    )
    return GoldStandard(
        topic_id=topic.topic_id,
        vector=build_term_vector(texts, normalize=True),
        reference_uris=tuple(ref_uris),
        failures=tuple(failures),
        built_at=built_at,
    )
