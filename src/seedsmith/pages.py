"""One digest per fetched page: what the measures read from a document.

A fetched HTML document is used three ways: its main-content text
decides relevance, its metadata dates it for the age measure, and its
outbound links replace an intra-platform permalink during extraction.
``digest_page`` decodes and parses the body once, keeps those three
results and drops the element tree. The Fetcher holds one digest per
final URI for the length of a run, and every reader of a fetched page
(relevance, gold standards, dating, substitution) takes that digest;
none parses the body again.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from datetime import date

from .htmltools import (
    NON_CONTENT_TAGS,
    Document,
    absolute_http_links,
    decode_html,
    find_meta,
    parse_html,
)

log = logging.getLogger(__name__)

_CONTENT_CANDIDATE_TAGS = frozenset(("article", "main", "body", "section", "div", "td"))

_ISO_DATE_PREFIX_RE = re.compile(r"^\s*(\d{4})-(\d{2})-(\d{2})")

# Meta attribute values that announce a publication timestamp, tried in
# this order before generic name-based fields.
_META_PROPERTY_FIELDS = ("article:published_time", "og:article:published_time", "article:published")
_META_NAME_FIELDS = (
    "date",
    "pubdate",
    "publishdate",
    "publish-date",
    "published-date",
    "publication_date",
    "dc.date",
    "dc.date.issued",
    "sailthru.date",
    "parsely-pub-date",
    "article.published",
    "timestamp",
)


@dataclass(frozen=True)
class PageDigest:
    """The parts of one fetched document that the measures read.

    ``text_error`` is the message of what boilerplate stripping raised
    (HtmlDecodingError for undecodable bytes, ValueError for input
    without markup); ``text`` is then empty. Only the message is kept:
    a stored exception's traceback would keep the parse tree alive. An
    undecodable page has no metadata date and no links.
    """

    text: str
    text_error: str | None
    published: date | None
    links: tuple[str, ...]  # absolute http(s) hrefs, document order


def digest_page(body) -> PageDigest:
    """Decode and parse ``body`` once and keep text, date and links."""
    try:
        root = parse_html(decode_html(body))
    except ValueError as exc:
        return PageDigest("", str(exc), None, ())
    try:
        text, error = main_text(root), None
    except ValueError as exc:
        text, error = "", str(exc)
    return PageDigest(text, error, metadata_date(root), tuple(absolute_http_links(root)))


def main_text(root: Document) -> str:
    """Main-content plaintext of a parsed document.

    Drops scripts, styles, navigation, headers, footers, and asides,
    then keeps the block container with the most non-link text: its
    text length minus the length of its anchors' texts joined by
    spaces. Ties go to the container with fewer elements, then to the
    earlier one. Whitespace is collapsed. Raises ValueError for a tree
    with no elements at all.

    One reverse pass over ``root.elements`` visits every element after
    its descendants and sums, per subtree, what the scores need. A
    collapsed text is its tokens joined by single spaces, so its length
    is the sum of (token length + 1) over its tokens, minus one; the
    joined anchor texts likewise measure the sum of (anchor text
    length + 1), minus one. Only the winner's text is built.
    """
    elements = root.elements
    if not elements:
        raise ValueError("input does not look like an HTML document (no tags found)")
    parents = root.parents
    n = len(elements)
    # Per element, over its subtree: sum of (token length + 1) of its
    # text without NON_CONTENT_TAGS children; sum of (text length + 1)
    # of its anchors, at any depth; number of descendant elements.
    text_sums = [0] * n
    anchor_sums = [0] * n
    sizes = [0] * n

    best = root
    best_key = None
    for i in range(n - 1, -1, -1):
        el = elements[i]
        text_sum = text_sums[i]
        for child in el.children:
            if type(child) is str:
                tokens = child.split()
                if tokens:
                    text_sum += len(tokens) + len("".join(tokens))
        tag = el.tag
        anchor_sum = anchor_sums[i]
        if tag == "a":
            anchor_sum += text_sum if text_sum else 1
        size = sizes[i]
        if tag in _CONTENT_CANDIDATE_TAGS:
            score = (text_sum - 1 if text_sum else 0) - (anchor_sum - 1 if anchor_sum else 0)
            # Walking backwards, an equal key belongs to an earlier element.
            key = (score, -size)
            if best_key is None or key >= best_key:
                best, best_key = el, key
        parent = parents[i]
        if parent >= 0:
            if tag not in NON_CONTENT_TAGS:
                text_sums[parent] += text_sum
            anchor_sums[parent] += anchor_sum
            sizes[parent] += size + 1

    content = best.text(exclude=NON_CONTENT_TAGS)
    if not content:
        log.warning("document contained no main-content text after boilerplate removal")
    return content


def _parse_iso_date(value) -> date | None:
    if not isinstance(value, str):
        return None
    m = _ISO_DATE_PREFIX_RE.match(value)
    if not m:
        return None
    try:
        return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None


def _jsonld_published(payload) -> str | None:
    """First non-empty datePublished (else dateCreated) value of a JSON-LD
    payload, walking it in document order with an explicit stack. An
    object that holds either field is not searched below."""
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            field = next((f for f in ("datePublished", "dateCreated") if f in node), None)
            if field is None:
                stack.extend(reversed(list(node.values())))
            elif node[field]:
                return node[field]
        elif isinstance(node, list):
            stack.extend(reversed(node))
    return None


def metadata_date(root: Document) -> date | None:
    """Publication date from a parsed document's metadata (meta tags,
    time elements, embedded JSON-LD), in a fixed priority order."""
    metas = find_meta(root)

    for wanted in _META_PROPERTY_FIELDS:
        for meta in metas:
            if meta.get("property", "").lower() == wanted:
                found = _parse_iso_date(meta.get("content", ""))
                if found:
                    return found
    for meta in metas:
        if meta.get("itemprop", "").lower() == "datepublished":
            found = _parse_iso_date(meta.get("content", ""))
            if found:
                return found
    for el in root.elements:
        if el.tag != "time":
            continue
        if "pubdate" in el.attrs or el.attrs.get("itemprop", "").lower() == "datepublished":
            found = _parse_iso_date(el.attrs.get("datetime", ""))
            if found:
                return found
    for el in root.elements:
        if el.tag != "script" or el.attrs.get("type", "").lower() != "application/ld+json":
            continue
        raw = "".join(c for c in el.children if isinstance(c, str))
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):
            # Too deep for the decoder: treated as carrying no date.
            continue
        found = _parse_iso_date(_jsonld_published(payload))
        if found:
            return found
    for wanted in _META_NAME_FIELDS:
        for meta in metas:
            if meta.get("name", "").lower() == wanted:
                found = _parse_iso_date(meta.get("content", ""))
                if found:
                    return found
    return None
