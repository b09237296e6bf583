"""Per-topic gold-standard term vectors from reference-list documents.

The pipeline mirrors how the reference material is prepared: dereference
each citation URI, strip page boilerplate down to main-content text,
concatenate everything, and build one normalized term-frequency vector.
Reference lists are multi-author artifacts, so gold standards carry the
P1An post-class label.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from datetime import datetime
from urllib.parse import urlsplit

from . import textkernel
from .corpus.fetch import Fetcher, FetchResult
from .corpus.jsonl import FAILURES, REQUIRED, STRING, STRINGS, TIMESTAMP, WEIGHTS, read_fields, read_json
from .corpus.model import TopicSpec, format_timestamp
from .htmltools import _RAW_TEXT_END, VOID_TAGS, HtmlDecodingError, _markup_token, decode_html
from .segmentation import P1AN
from .stopwords import STOPWORDS, STOPWORDS_VERSION

MIN_TOKEN_LEN = 2

_REFERENCE_MARKER_RE = re.compile(
    r"(references|reflist|citations|cite[-_]?list|sources|footnotes|bibliography)",
    re.IGNORECASE,
)


class GoldStandardError(Exception):
    pass


# Every key of a gold file, as ``GoldStandard.to_json`` writes it.
GOLD_FIELDS = {
    "topic_id": (STRING, REQUIRED),
    "weights": (WEIGHTS, REQUIRED),
    "reference_uris": (STRINGS, REQUIRED),
    "failures": (FAILURES, REQUIRED),
    "built_at": (TIMESTAMP, REQUIRED),
    "post_class": (STRING, P1AN),
    "stopwords_version": (STRING, None),
}


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


def _looks_like_reference_container(attrs: dict[str, str]) -> bool:
    attrs = " ".join(filter(None, (attrs.get("id"), attrs.get("class"), attrs.get("role"))))
    return bool(attrs and _REFERENCE_MARKER_RE.search(attrs))


def extract_references(ref_page: FetchResult) -> list[str]:
    """External citation URIs from a reference-list page, document order.

    Looks for containers marked as reference/citation lists (by id,
    class or role), falling back to ordered lists that hold off-site
    anchors. Same-host and relative links are treated as intra-wiki
    navigation and excluded, and so is an href that does not split as a
    URI. Returns [] for a page that does not decode, that has nothing
    that looks like a references section, or whose marked containers
    hold no citation; it warns about none of these, because the caller
    records every empty result in the run's warnings.

    One pass over the lexer's tags, building no tree. The anchors of
    every container, deduplicated in document order, are the anchors
    inside any container or marked themselves. An end tag closes back to
    the nearest open element of its name; void elements, ``<tag/>`` and
    the raw text of ``script`` and ``style`` hold no anchor.
    """
    try:
        text = decode_html(ref_page.body)
    except HtmlDecodingError:
        return []
    page_host = (urlsplit(ref_page.final_uri).hostname or "").lower()
    marked_uris = []  # external anchors inside a marked container
    ol_uris = []  # external anchors inside an ol
    any_marked = False
    # Open elements, innermost last, each as (tag, inside a marked
    # container, inside an ol); the base entry is the document's.
    stack = [(None, False, False)]
    in_marked = in_ol = False
    open_count = defaultdict(int)
    find = text.find
    i = 0
    while True:
        j = find("<", i)
        if j < 0:
            break
        i, token = _markup_token(text, j)
        if token is None or type(token) is str:
            continue
        tag, attrs, closed = token
        if attrs is None:
            if open_count[tag]:
                while True:
                    closing = stack.pop()[0]
                    open_count[closing] -= 1
                    if closing == tag:
                        break
                in_marked, in_ol = stack[-1][1:]
            continue
        marked = in_marked or _looks_like_reference_container(attrs)
        any_marked = any_marked or marked
        if tag == "a" and (marked or in_ol):
            href = attrs.get("href", "").strip()
            if href.lower().startswith(("http://", "https://")):
                try:
                    host = (urlsplit(href).hostname or "").lower()
                except ValueError:
                    host = ""
                if host and host != page_host:
                    if marked:
                        marked_uris.append(href)
                    if in_ol:
                        ol_uris.append(href)
        if closed or tag in VOID_TAGS:
            continue
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            m = raw_end.search(text, i)
            if m is None:
                break
            i = m.end()
            continue
        in_ol = in_ol or tag == "ol"
        in_marked = marked
        stack.append((tag, in_marked, in_ol))
        open_count[tag] += 1
    return list(dict.fromkeys(marked_uris if any_marked else ol_uris))


def _indented(value, depth: int) -> str:
    """``value`` as ``json.dumps(..., ensure_ascii=False, indent=2)`` writes it
    ``depth`` levels in, with one call of the C encoder per flat list or dict."""
    pad = "\n" + "  " * depth
    if isinstance(value, list) and value and isinstance(value[0], dict):  # the failures
        return "[" + pad + "  " + ("," + pad + "  ").join(_indented(v, depth + 1) for v in value) + pad + "]"
    text = json.dumps(value, ensure_ascii=False, separators=("," + pad + "  ", ": "))
    if isinstance(value, str) or not value:
        return text
    return text[0] + pad + "  " + text[1:-1] + pad + text[-1]


class GoldStandard:
    def __init__(self, topic_id: str, vector: dict[str, float], reference_uris: tuple[str, ...],
                 failures: tuple[tuple[str, str], ...], built_at: datetime, post_class: str = P1AN):
        self.topic_id = topic_id
        self.vector = vector  # build_term_vector's normalized weights
        self.reference_uris = reference_uris
        self.failures = failures  # (uri, reason)
        self.built_at = built_at
        self.post_class = post_class
        self.norm = textkernel.norm(vector)  # taken once for every cosine against this gold

    def __eq__(self, other):
        if not isinstance(other, GoldStandard):
            return NotImplemented
        return (self.topic_id, self.vector, self.reference_uris, self.failures, self.built_at, self.post_class) == (
            other.topic_id, other.vector, other.reference_uris, other.failures, other.built_at, other.post_class)

    def to_json(self) -> str:
        """Byte-stable JSON with lexicographically sorted terms, in the layout of
        ``json.dumps(payload, ensure_ascii=False, indent=2)``; ``indent`` runs
        the pure-Python encoder, whose closures form a reference cycle per call."""
        payload = {
            "topic_id": self.topic_id,
            "built_at": format_timestamp(self.built_at),
            "reference_uris": list(self.reference_uris),
            "failures": [{"uri": u, "reason": r} for u, r in self.failures],
            "post_class": self.post_class,
            "stopwords_version": STOPWORDS_VERSION,
            "weights": {t: self.vector[t] for t in sorted(self.vector)},
        }
        return "{\n" + ",\n".join(f'  "{key}": {_indented(value, 1)}' for key, value in payload.items()) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "GoldStandard":
        """Read ``to_json``'s output back. Text that ``read_json`` or
        ``GOLD_FIELDS`` rejects, whose weights have a sum of squares that
        is 0 or overflows, or whose ``stopwords_version`` is another than
        ``STOPWORDS_VERSION``, raises GoldStandardError. A file without
        a ``stopwords_version`` (or with null) is read as this build's."""
        where = "malformed gold standard"
        fields = read_fields(read_json(text, GoldStandardError, where), GOLD_FIELDS, GoldStandardError, where)
        weights = fields["weights"]
        # A norm that overflows or underflows makes every cosine against
        # the gold NaN, 0 or a division by zero.
        if weights and not 0 < sum(float(w) * float(w) for w in weights.values()) < math.inf:
            raise GoldStandardError("weights do not have a positive finite norm")
        version = fields["stopwords_version"]
        if version is not None and version != STOPWORDS_VERSION:
            raise GoldStandardError(f"stopwords_version {version!r} is not this build's {STOPWORDS_VERSION!r}")
        return cls(
            topic_id=fields["topic_id"],
            vector=weights,
            reference_uris=tuple(fields["reference_uris"]),
            failures=tuple((f["uri"], f["reason"]) for f in fields["failures"]),
            built_at=fields["built_at"],
            post_class=fields["post_class"],
        )


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
        if not result.ok:
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
