"""One digest per fetched page: what the measures read from a document.

A fetched HTML document is used three ways: its main-content text
decides relevance, its metadata dates it for the age measure, and its
outbound links replace an intra-platform permalink during extraction.
``digest_page`` decodes the body and reads all three in one pass of the
HTML lexer, building no element tree. The Fetcher holds one digest per
final URI, each part only while a reader of it is left, and every
reader of a fetched page (relevance, gold standards, dating,
substitution) takes that digest; none reads the body again.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from datetime import date
from html import unescape

from .htmltools import (
    _PLAIN_ATTR,
    _PLAIN_TAG,
    _RAW_TEXT_END,
    NON_CONTENT_TAGS,
    VOID_TAGS,
    _markup_token,
    decode_html,
)

_CONTENT_CANDIDATE_TAGS = frozenset(("article", "main", "body", "section", "div", "td"))
# The only tags whose attributes a digest reads.
_ATTRIBUTE_TAGS = frozenset(("a", "meta", "time", "script"))
_ROOT = "[document]"  # not a tag name, so no end tag closes it

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


class PageDigest:
    """The parts of one fetched document that the measures read.

    ``text_error`` says why a page has no main text: bytes that do not
    decode, or input without markup; ``text`` is then empty. An
    undecodable page has no metadata date and no links. The Fetcher
    deletes ``links`` once extraction ends, and ``text`` at the page's
    judgment or, unread, once judging ends. Neither the class nor
    ``__init__`` gives them a default, so reading a deleted one raises
    AttributeError, and so does the digest's ``==``.
    """

    def __init__(self, text: str, text_error: str | None, published: date | None, links: tuple[str, ...]):
        self.text = text
        self.text_error = text_error
        self.published = published
        self.links = links  # absolute http(s) hrefs, document order

    def __eq__(self, other):
        if not isinstance(other, PageDigest):
            return NotImplemented
        return (self.text, self.text_error, self.published, self.links) == (
            other.text, other.text_error, other.published, other.links)


def digest_page(body) -> PageDigest:
    """Decode ``body`` and read its text, date and links in one lexer pass.

    The main text drops scripts, styles, navigation, headers, footers
    and asides, then keeps the block container with the most non-link
    text: its text length minus the length of its anchors' texts joined
    by spaces. Ties go to the container with fewer elements, then to the
    earlier one. Whitespace is collapsed.

    The tokens are those of ``htmltools._markup_token``, and an end tag
    closes back to the nearest open element of its name. Each element is
    scored as it closes, from sums its descendants added to its frame,
    and no tree is built.
    """
    try:
        text = decode_html(body)
    except ValueError as exc:
        return PageDigest("", str(exc), None, ())
    chunks = []  # collapsed non-empty text chunks outside raw-text elements
    fences = []  # per chunk: depth of its innermost NON_CONTENT_TAGS ancestor, 0 for none
    metas, times, payloads, links = [], [], [], []
    # The innermost open element's frame: its tag, first chunk, fence,
    # and over its descendants the sum of (chunk length + 1) outside
    # NON_CONTENT_TAGS, the sum of (anchor text length + 1) and the
    # element count. A collapsed text of k chunks is k - 1 longer than
    # its chunks, so the sums give the lengths the score compares.
    # ``stack`` holds the frames of its ancestors, so its depth is
    # len(stack); the root's parent is a base frame, and the end of the
    # input closes the root as an end tag would.
    current, first, fence, text_sum, anchor_sum, size = _ROOT, 0, 0, 0, 0, 0
    stack = [(None, 0, 0, 0, 0, 0)]
    open_count = defaultdict(int, {_ROOT: 1})
    # Two elements that tie on score and size are not nested, so the
    # earlier one closes first and keeps the lead.
    best_key = (float("-inf"),)
    best = (0, None, 1)  # the winner's chunk range and depth; the root if no candidate
    find = text.find
    match_tag = _PLAIN_TAG.match
    n = len(text)
    i = 0
    while True:
        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            data = text[i:j]
            if "&" in data:
                data = unescape(data)
            data = " ".join(data.split())
            if data:
                chunks.append(data)
                fences.append(fence)
                text_sum += len(data) + 1
        if j == n:
            tag = _ROOT
        else:
            m = match_tag(text, j)
            if m is not None:
                i = m.end()
                name, attr_text, slash, tag = m.groups()
                if tag is None:
                    tag = name.lower()
                    closed = slash == "/"
                    attrs = {}
                    if attr_text and tag in _ATTRIBUTE_TAGS:
                        for key, double, single, bare in _PLAIN_ATTR.findall(attr_text):
                            value = double or single or bare
                            attrs[key.lower()] = unescape(value) if "&" in value else value
                else:
                    tag = tag.lower()
                    attrs = None
            else:
                i, token = _markup_token(text, j)
                if token is None:
                    continue
                if type(token) is str:
                    data = " ".join(token.split())
                    if data:
                        chunks.append(data)
                        fences.append(fence)
                        text_sum += len(data) + 1
                    continue
                tag, attrs, closed = token
            if attrs is not None:
                # A start tag. A leaf (void, <tag/> or raw text) is
                # opened here and closed below at once.
                if attrs:
                    if tag == "a":
                        href = attrs.get("href")
                        if href:
                            href = href.strip()
                            if href.lower().startswith(("http://", "https://")):
                                links.append(href)
                    elif tag == "meta":
                        metas.append(attrs)
                    elif tag == "time":
                        if "pubdate" in attrs or attrs.get("itemprop", "").lower() == "datepublished":
                            times.append(attrs.get("datetime", ""))
                stack.append((current, first, fence, text_sum, anchor_sum, size))
                current, first, text_sum, anchor_sum, size = tag, len(chunks), 0, 0, 0
                if tag in NON_CONTENT_TAGS:
                    fence = len(stack)
                open_count[tag] += 1
                if not (closed or tag in VOID_TAGS):
                    if tag not in _RAW_TEXT_END:
                        continue
                    m = _RAW_TEXT_END[tag].search(text, i)
                    if m is None:
                        i = n  # its raw text and the rest of the input are dropped
                    else:
                        if tag == "script" and attrs.get("type", "").lower() == "application/ld+json":
                            payloads.append(text[i : m.start()])
                        i = m.end()
        if open_count[tag]:
            # Close back to the nearest open element of this name.
            while True:
                closing = current
                open_count[closing] -= 1
                if closing == "a":
                    anchor_sum += text_sum or 1
                elif closing in _CONTENT_CANDIDATE_TAGS:
                    score = (text_sum - 1 if text_sum else 0) - (anchor_sum - 1 if anchor_sum else 0)
                    key = (score, -size)
                    if key > best_key:
                        best_key, best = key, (first, len(chunks), len(stack))
                current, first, fence, parent_text, parent_anchor, parent_size = stack.pop()
                text_sum = parent_text if closing in NON_CONTENT_TAGS else parent_text + text_sum
                anchor_sum += parent_anchor
                size += parent_size + 1
                if closing == tag:
                    break
        if j == n:
            break

    if size == 1:  # the base frame holds the root alone
        return PageDigest("", "input does not look like an HTML document (no tags found)", None, ())
    first, last, depth = best
    content = " ".join([c for c, f in zip(chunks[first:last], fences[first:last]) if f <= depth])
    dates = filter(None, map(_parse_iso_date, _date_values(metas, times, payloads)))
    return PageDigest(content, None, next(dates, None), tuple(links))


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


def _date_values(metas, times, payloads):
    """A page's metadata date values, in the priority order that dates it:
    from the attributes of its meta tags, the datetime of each time tag
    marked as the publication time and the raw text of each JSON-LD
    script. Each payload is decoded only when reached."""
    for wanted in _META_PROPERTY_FIELDS:
        yield from (m.get("content", "") for m in metas if m.get("property", "").lower() == wanted)
    yield from (m.get("content", "") for m in metas if m.get("itemprop", "").lower() == "datepublished")
    yield from times
    for raw in payloads:
        try:
            payload = json.loads(raw)
        except (ValueError, RecursionError):
            # Malformed, too deep, or an integer too long to convert: no date.
            continue
        yield _jsonld_published(payload)
    for wanted in _META_NAME_FIELDS:
        yield from (m.get("content", "") for m in metas if m.get("name", "").lower() == wanted)
