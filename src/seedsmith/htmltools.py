"""Small lenient HTML layer on top of html.parser.

Builds a minimal element tree that tolerates unclosed and stray tags,
and lists its elements in document order while parsing: enough for
anchor/meta extraction and main-content text recovery. Not a
general DOM: no entity-reference table beyond the stdlib's, no CSS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

# Tags that never contribute readable content.
NON_CONTENT_TAGS = frozenset(
    "script style noscript template nav header footer aside svg iframe form".split()
)

_CHARSET_META_RE = re.compile(
    rb"""<meta[^>]+charset\s*=\s*["']?\s*([a-zA-Z0-9_.:-]+)""", re.IGNORECASE
)
_XML_DECL_RE = re.compile(rb"""<\?xml[^>]*encoding\s*=\s*["']([a-zA-Z0-9_.:-]+)["']""")


class HtmlDecodingError(ValueError):
    """Input bytes could not be decoded; the message names the encoding."""


@dataclass(slots=True, eq=False, repr=False)
class Element:
    """One element of a parsed page. Elements compare by identity, and
    ``repr`` shows one level only, so neither recurses into a deep tree."""

    tag: str
    attrs: dict[str, str]
    children: list = field(default_factory=list)  # Element | str

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tag!r}, {self.attrs!r}, children={len(self.children)})"

    def iter(self):
        """Yield this element and all descendants, depth-first in document
        order. A stack of child iterators stands in for recursion, so
        nesting depth is not bounded by the recursion limit."""
        yield self
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def iter_tag(self, tag: str):
        for el in self.iter():
            if el.tag == tag:
                yield el

    def text(self, exclude=NON_CONTENT_TAGS) -> str:
        """Whitespace-collapsed text of the subtree, skipping ``exclude`` tags."""
        parts: list[str] = []
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, str):
                    parts.append(child)
                elif child.tag not in exclude:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return " ".join(" ".join(parts).split())


@dataclass(slots=True, eq=False, repr=False)
class Document(Element):
    """Root of a parsed page, with every element below it listed once.

    ``elements`` is in document order, the pre-order ``iter`` yields
    after the root itself; ``parents[i]`` is the index in ``elements``
    of ``elements[i]``'s parent, -1 for a child of the root. The root is
    kept out of its own list, so a tree holds no reference cycle and is
    freed as soon as it is dropped.
    """

    elements: list = field(default_factory=list)  # Element
    parents: list = field(default_factory=list)  # int


class _TreeBuilder(HTMLParser):
    """Builds the tree and records each element as its start tag arrives:
    an element is only ever added under an open element, and a closed
    one never reopens, so start-tag order is document pre-order."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document("[document]", {})
        self.elements = self.root.elements
        self.parents = self.root.parents
        self.stack = [self.root]
        self.open_indices = [-1]  # index in elements of each stack entry

    def updatepos(self, i, j):
        # Line and column numbers are never read; skip counting newlines.
        return j

    def handle_starttag(self, tag, attrs):
        element = Element(tag, {k: (v if v is not None else "") for k, v in attrs})
        self.stack[-1].children.append(element)
        self.parents.append(self.open_indices[-1])
        self.elements.append(element)
        if tag not in VOID_TAGS:
            self.open_indices.append(len(self.elements) - 1)
            self.stack.append(element)

    def handle_startendtag(self, tag, attrs):
        # <tag/> opens and closes at once.
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            self.stack.pop()
            self.open_indices.pop()

    def handle_endtag(self, tag):
        # Pop back to the nearest matching open tag; ignore stray closers.
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                del self.open_indices[i:]
                return

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html(text: str) -> Document:
    """Parse HTML text into an element tree, tolerating malformed markup."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def detect_encoding(body: bytes) -> str | None:
    """Declared charset from a meta tag or XML declaration, if any."""
    head = body[:4096]
    m = _CHARSET_META_RE.search(head) or _XML_DECL_RE.search(head)
    if m:
        return m.group(1).decode("ascii", "replace").lower()
    return None


def decode_html(body: bytes) -> str:
    """Decode HTML bytes using the declared charset, defaulting to UTF-8."""
    if isinstance(body, str):
        return body
    encoding = detect_encoding(body) or "utf-8"
    try:
        return body.decode(encoding)
    except (UnicodeDecodeError, LookupError) as exc:
        raise HtmlDecodingError(f"cannot decode document as {encoding}: {exc}") from exc


def absolute_http_links(root: Document) -> list[str]:
    """hrefs of a document's anchors that are absolute http(s) URIs, in
    document order."""
    out = []
    for el in root.elements:
        if el.tag == "a" and el.attrs.get("href"):
            href = el.attrs["href"].strip()
            if href.lower().startswith(("http://", "https://")):
                out.append(href)
    return out


def find_meta(root: Document) -> list[dict[str, str]]:
    """Attribute dicts of every meta tag of a document, keys lowercased."""
    return [
        {k.lower(): v for k, v in el.attrs.items()} for el in root.elements if el.tag == "meta"
    ]
