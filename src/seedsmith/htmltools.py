"""Small lenient HTML layer: charset decoding and one purpose-built lexer.

The lexer reads a page in one regex-driven pass. Its tokens are those of
the standard library's ``HTMLParser`` with ``convert_charrefs=True``,
with one exception: a ``<![`` marked section with no name, or one that
parser does not know, is a bogus comment up to the next ">" instead of
an ``AssertionError``. ``pages.digest_page`` runs the lexer over every
fetched page, and ``goldstandard.extract_references`` over each
reference-list page; neither builds an element tree. Not a general DOM:
no entity-reference table beyond the stdlib's, no CSS.
"""

from __future__ import annotations

import re
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


# The lexer reads what the standard library's HTMLParser (Python 3.11)
# reads when fed the whole text at once with convert_charrefs=True:
# ``_markup_token`` is a step-for-step port of HTMLParser's rules, whose
# patterns follow unchanged. ``pages.digest_page`` reads a plain start or
# end tag, which is most of any page, by one pattern before it falls back
# to the port; ``goldstandard.extract_references`` reads every tag by
# the port. Where _PLAIN_TAG matches, the port reads the same tag: its
# separators, names and values are narrower than the port's, each stops
# only where the port's stops or where the pattern then fails, and the
# tag name is taken whole, never shortened by backtracking.
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


def _markup_token(text: str, i: int):
    """Read the markup starting ``text[i] == "<"``, by the port of
    HTMLParser's rules (``digest_page`` calls it only where
    ``_PLAIN_TAG`` does not match). Returns ``(end, token)``: token is None for markup
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
