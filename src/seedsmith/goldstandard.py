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
from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from urllib.parse import urlsplit

from . import textkernel
from .corpus.fetch import Fetcher, FetchResult
from .corpus.jsonl import check_encodable
from .corpus.model import TopicSpec, format_timestamp, parse_timestamp
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


@dataclass(frozen=True)
class GoldStandard:
    topic_id: str
    vector: dict[str, float]  # build_term_vector's normalized weights
    reference_uris: tuple[str, ...]
    failures: tuple[tuple[str, str], ...]  # (uri, reason)
    built_at: datetime
    post_class: str = P1AN

    @cached_property
    def norm(self) -> float:  # taken once for every cosine against this gold
        return textkernel.norm(self.vector)

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
        document raises GoldStandardError: JSON that is not an object, a
        missing key, a field of another type (``topic_id``,
        ``post_class`` and ``built_at`` are strings, ``weights`` maps
        terms to finite numbers, ``reference_uris`` is a list of strings
        and ``failures`` a list of ``{uri, reason}`` strings), weights
        whose sum of squares is 0 or overflows, a ``built_at`` that is
        not a timestamp, or a lone surrogate."""
        try:
            payload = json.loads(text)
            if "\\u" in text:  # only an escape can name a lone surrogate
                check_encodable(payload)
        except (ValueError, RecursionError) as exc:
            raise GoldStandardError(f"malformed gold standard: {exc}") from exc
        if not isinstance(payload, dict):
            raise GoldStandardError("malformed gold standard: not a JSON object")
        for key in ("topic_id", "weights", "reference_uris", "failures", "built_at"):
            if key not in payload:
                raise GoldStandardError(f"missing key {key!r}")
        post_class = payload.get("post_class", P1AN)
        weights, uris, failures = payload["weights"], payload["reference_uris"], payload["failures"]
        for key, ok, expected in (
            ("topic_id", isinstance(payload["topic_id"], str), "a string"),
            ("post_class", isinstance(post_class, str), "a string"),
            ("built_at", isinstance(payload["built_at"], str), "a string"),
            ("weights", isinstance(weights, dict) and all(map(_is_finite_number, weights.values())),
             "an object of finite numbers"),
            ("reference_uris", isinstance(uris, list) and all(isinstance(u, str) for u in uris),
             "a list of strings"),
            ("failures", isinstance(failures, list) and all(map(_is_failure, failures)),
             "a list of {uri, reason} strings"),
        ):
            if not ok:
                raise GoldStandardError(f"{key} is not {expected}")
        # A norm that overflows or underflows makes every cosine against
        # the gold NaN, 0 or a division by zero.
        if weights and not 0 < sum(float(w) * float(w) for w in weights.values()) < math.inf:
            raise GoldStandardError("weights do not have a positive finite norm")
        try:
            built_at = parse_timestamp(payload["built_at"])
        except (ValueError, OverflowError) as exc:
            raise GoldStandardError(f"built_at is not a timestamp: {exc}") from exc
        return cls(
            topic_id=payload["topic_id"],
            vector=weights,
            reference_uris=tuple(uris),
            failures=tuple((f["uri"], f["reason"]) for f in failures),
            built_at=built_at,
            post_class=post_class,
        )


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _is_failure(value) -> bool:
    return isinstance(value, dict) and all(isinstance(value.get(k), str) for k in ("uri", "reason"))


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
