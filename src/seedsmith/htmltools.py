"""Small lenient HTML layer: one purpose-built lexer and a minimal tree.

The lexer reads a page in one regex-driven pass. Its tokens are those of
the standard library's ``HTMLParser`` with ``convert_charrefs=True``,
with one exception: a ``<![`` marked section with no name, or one that
parser does not know, is a bogus comment up to the next ">" instead of
an ``AssertionError``. ``pages.digest_page`` runs the lexer over every
fetched page and builds no tree. ``parse_html`` builds a minimal element
tree that tolerates unclosed and stray tags, listing its elements in
document order as it goes: enough for the reference-list pages that
``goldstandard.extract_references`` searches, one per topic. Not a
general DOM: no entity-reference table beyond the stdlib's, no CSS.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html import unescape

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


@dataclass(slots=True, eq=False, repr=False)
class Document(Element):
    """Root of a parsed page, with every element below it listed once.

    ``elements`` is in document order, the pre-order ``iter`` yields
    after the root itself. The root is kept out of its own list, so a
    tree holds no reference cycle and is freed as soon as it is dropped.
    """

    elements: list = field(default_factory=list)  # Element


# The lexer reads what the standard library's HTMLParser (Python 3.11)
# reads when fed the whole text at once with convert_charrefs=True:
# ``_markup_token`` is a step-for-step port of HTMLParser's rules, whose
# patterns follow unchanged. ``pages.digest_page`` reads a plain start or
# end tag, which is most of any page, by one pattern before it falls back
# to the port; ``parse_html`` reads every tag by the port. Where
# _PLAIN_TAG matches, the port reads the same tag: its separators, names
# and values are narrower than the port's, each stops only where the
# port's stops or where the pattern then fails, and the tag name is
# taken whole, never shortened by backtracking.
_PLAIN_TAG = re.compile(
    r"""<(?:
      ([a-zA-Z][^\t\n\r\f />\x00]*)(?![^\t\n\r\f />\x00])  # start tag name
      ((?:\s+[a-zA-Z_:][-a-zA-Z0-9_:.]*                # attributes
          (?:\s*=\s*(?:"[^"]*"|'[^']*'|[^\s"'=<>`]+))?)*)
      \s*(/?)>                                         # "/" of <tag/>
    | /([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>                  # end tag name
    )""",
    re.VERBOSE,
)
_PLAIN_ATTR = re.compile(
    r"""\s+([a-zA-Z_:][-a-zA-Z0-9_:.]*)(?:\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s"'=<>`]+)))?"""
)

_STARTTAG_OPEN = re.compile("<[a-zA-Z]")
_TAGFIND = re.compile(r"([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*")
_ATTRFIND = re.compile(
    r"((?<=[\'\"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"
    r"(\'[^\']*\'|\"[^\"]*\"|(?![\'\"])[^>\s]*))?(?:\s|/(?!>))*"
)
_STARTTAG_END = re.compile(
    r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""",
    re.VERBOSE,
)
_ENDTAGFIND = re.compile(r"</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>")
_COMMENT_CLOSE = re.compile(r"--\s*>")
_DECLNAME = re.compile(r"[a-zA-Z][-_.a-zA-Z0-9]*\s*")
# Marked sections HTMLParser knows, and the pattern that ends each.
_SECTION_CLOSE = {
    **dict.fromkeys(("temp", "cdata", "ignore", "include", "rcdata"), re.compile(r"]\s*]\s*>")),
    **dict.fromkeys(("if", "else", "endif"), re.compile(r"]\s*>")),  # MS Office
}

# Raw-text elements: their content is text up to their own end tag.
_RAW_TEXT_END = {tag: re.compile(r"</\s*%s\s*>" % tag, re.I) for tag in ("script", "style")}
_NAME_OR_SLASH = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ=/")


def parse_html(text: str) -> Document:
    """Parse HTML text into an element tree, tolerating malformed markup.

    One pass over the text: text between two tags becomes one child
    string, with character references converted; a start tag adds an
    element under the innermost open one; an end tag closes back to the
    nearest open element of its name and is ignored when none is open.
    Void elements and ``<tag/>`` never stay open. ``script`` and
    ``style`` hold their raw text, dropped if their end tag never comes.
    """
    root = Document("[document]", {})
    elements = root.elements
    stack = [root]  # open elements, innermost last
    open_count = {}  # open elements per tag name
    kids = root.children  # children of the innermost open element
    find = text.find
    n = len(text)
    i = 0
    while i < n:
        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            data = text[i:j]
            if "&" in data:
                data = unescape(data)
            if data:
                kids.append(data)
            if j == n:
                break
        i, token = _markup_token(text, j)
        if token is None:
            continue
        if type(token) is str:
            if token:
                kids.append(token)
            continue
        tag, attrs, closed = token
        if attrs is None:
            # End tag: pop back to the nearest open element of its name.
            if open_count.get(tag):
                while True:
                    el = stack.pop()
                    open_count[el.tag] -= 1
                    if el.tag == tag:
                        break
                kids = stack[-1].children
            continue
        element = Element(tag, attrs)
        kids.append(element)
        elements.append(element)
        if closed or tag in VOID_TAGS:
            continue
        raw_end = _RAW_TEXT_END.get(tag)
        if raw_end is not None:
            # Only its raw text goes inside, so it is never pushed.
            m = raw_end.search(text, i)
            if m is None:
                break
            if m.start() > i:
                element.children.append(text[i : m.start()])
            i = m.end()
            continue
        stack.append(element)
        open_count[tag] = open_count.get(tag, 0) + 1
        kids = element.children
    return root


def _markup_token(text: str, i: int):
    """Read the markup starting ``text[i] == "<"`` that ``_PLAIN_TAG``
    does not match. Returns ``(end, token)``: token is None for markup
    that adds nothing (comments, declarations, processing instructions),
    a string for text, or ``(tag, attrs, closed)`` for a tag, where
    attrs is None for an end tag and closed is true for ``<tag/>``.

    Markup the input ends inside becomes text: through the next ">" if
    there is one, else up to the next "<", else the "<" alone.
    """
    token = None
    if _STARTTAG_OPEN.match(text, i):
        end, token = _start_tag(text, i)
    elif text.startswith("</", i):
        end, token = _end_tag(text, i)
    elif text.startswith("<!--", i):
        m = _COMMENT_CLOSE.search(text, i + 4)
        end = m.end() if m else -1
    elif text.startswith("<?", i):
        end = _bogus_comment_end(text, i)
    elif text.startswith("<!", i):
        end = _declaration_end(text, i)
    else:
        return i + 1, "<"
    if end >= 0:
        return end, token
    end = text.find(">", i + 1)
    if end >= 0:
        end += 1
    else:
        end = text.find("<", i + 1)
        if end < 0:
            end = i + 1
    return end, unescape(text[i:end])


def _start_tag(text: str, i: int):
    end = _start_tag_end(text, i)
    if end < 0:
        return end, None
    m = _TAGFIND.match(text, i + 1)
    tag = m.group(1).lower()
    k = m.end()
    attrs = {}
    while k < end:
        m = _ATTRFIND.match(text, k)
        if not m:
            break
        key, rest, value = m.group(1, 2, 3)
        if not rest:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        attrs[key.lower()] = unescape(value) if "&" in value else value
        k = m.end()
    rest = text[k:end].strip()
    if rest not in (">", "/>"):
        return end, text[i:end]
    return end, (tag, attrs, rest == "/>")


def _start_tag_end(text: str, i: int) -> int:
    """End of the start tag at ``i``, or -1 where it runs to the end of
    the input."""
    j = _STARTTAG_END.match(text, i).end()
    after = text[j : j + 1]
    if after == ">":
        return j + 1
    if after == "/":
        return j + 2 if text.startswith("/>", j) else -1
    if not after or after in _NAME_OR_SLASH:
        return -1
    return j if j > i else i + 1


def _end_tag(text: str, i: int):
    gt = text.find(">", i + 1)
    if gt < 0:
        return -1, None
    m = _ENDTAGFIND.match(text, i)
    if m:
        return gt + 1, (m.group(1).lower(), None, False)
    m = _TAGFIND.match(text, i + 2)
    if not m:
        if text.startswith("</>", i):
            return i + 3, None
        return _bogus_comment_end(text, i), None
    # Anything between the name and the ">" is ignored.
    return text.find(">", m.end()) + 1, (m.group(1).lower(), None, False)


def _declaration_end(text: str, i: int) -> int:
    if text.startswith("<![", i):
        return _marked_section_end(text, i)
    if text[i : i + 9].lower() == "<!doctype":
        gt = text.find(">", i + 9)
        return gt + 1 if gt >= 0 else -1
    return _bogus_comment_end(text, i)


def _marked_section_end(text: str, i: int) -> int:
    """End of ``<![name ...]]>`` (or ``]>`` for Office's if/else/endif).
    A section with no name or a name outside those is a bogus comment,
    as the HTML5 tokenizer reads it."""
    m = _DECLNAME.match(text, i + 3)
    if m is None:
        return -1 if i + 3 == len(text) else _bogus_comment_end(text, i)
    if m.end() == len(text):
        return -1
    close = _SECTION_CLOSE.get(m.group().strip().lower())
    if close is None:
        return _bogus_comment_end(text, i)
    m = close.search(text, i + 3)
    return m.end() if m else -1


def _bogus_comment_end(text: str, i: int) -> int:
    """End of ``<!...>``, ``</...>`` or ``<?...>`` taken up to the next ">"."""
    gt = text.find(">", i + 2)
    return gt + 1 if gt >= 0 else -1


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
