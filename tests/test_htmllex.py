"""The package's lexer against the tree builder it replaced.

``oracles.reference_parse_html`` drives the standard library's
``html.parser`` with the old tree builder; ``oracles.lexer_tree`` feeds
the same builder the tokens of ``htmltools._markup_token``, the lexer
every page is read by. Both must build the same ``Document``: the same
elements with the same attributes in order, and the same children (text
split into the same chunks). The one deliberate difference is a ``<![``
marked section with no name or an unknown one: ``html.parser`` raises
``AssertionError``, the lexer reads it as a bogus comment up to the next
">". Where the oracle raises, the expected tree is the oracle's with
exactly that rule put in.

``digest_page`` runs the lexer without building a tree; on the same
inputs it must read what ``oracles.reference_digest`` reads from the
``lexer_tree`` tree.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _TreeBuilder, lexer_tree, reference_digest, reference_parse_html
from seedsmith.htmltools import decode_html
from seedsmith.pages import PageDigest, digest_page
from test_pages import EDGE_PAGES, fixture_bodies
from test_pipebench_view import PIPEBENCH, load


class _BogusSectionTreeBuilder(_TreeBuilder):
    """The oracle with the documented rule: a marked section that
    ``html.parser`` rejects is a bogus comment."""

    def parse_marked_section(self, i, report=1):
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i)


def shape(doc):
    """Everything a Document holds, with elements named by index."""
    index = {id(el): i for i, el in enumerate(doc.elements)}

    def children(el):
        return [c if isinstance(c, str) else index[id(c)] for c in el.children]

    return children(doc), [(el.tag, list(el.attrs.items()), children(el)) for el in doc.elements]


def expected_shape(text):
    try:
        return shape(reference_parse_html(text))
    except AssertionError:
        assert "<![" in text
        builder = _BogusSectionTreeBuilder()
        builder.feed(text)
        builder.close()
        return shape(builder.root)


def assert_same_tree(text):
    assert shape(lexer_tree(text)) == expected_shape(text), repr(text)


@pytest.mark.parametrize("body", fixture_bodies() + EDGE_PAGES)
def test_fixture_and_edge_pages(body):
    try:
        text = decode_html(body)
    except ValueError:
        return
    assert_same_tree(text)


# ROADMAP item 1's list of what must match, one group per bullet.
MUST_MATCH = {
    "raw-text": [
        "<script>a</div>b<p>c</script>d",
        "<script>if (a<b && c>d) x = '</p>' + \"&amp;\"</script>after",
        "<SCRIPT type=x>one</sCrIpT >two",
        "<style>p{}</script></STYLE\n>x",
        "<script>x</script\t><style></style>",
        "<script>never closed <p>text</p>",
        "<style>never closed",
        "<script/>not raw<p>x</p>",
        "<script></scriptx></script>y",
    ],
    "comments-and-declarations": [
        "a<!-- c -->b", "a<!---->b", "a<!-- x --!>b-->c", "a<!-- unterminated <p>x",
        "<!doctype html><p>x", "<!DOCTYPE html PUBLIC \"-//W3C\">x", "<!doctype",
        "a<![CDATA[x<p>y]]>b", "a<![CDATA[unterminated<p>", "<![if !IE]>x<![endif]>y",
        "a<?xml version='1.0'?>b", "<?php echo '<p>'; ?>x", "a<? unterminated",
        "a<!x>b", "a<!>b", "a<!-->b", "a<!--->b",
    ],
    "lone-lt-and-end-junk": [
        "a < b", "a <1 b", "a<", "<", "<<p>x", "a<\nb", "a</ p>b", "a</1>b", "a</>b", "a</",
        "a</p", "a</ >b", "<p>a</p foo=\"x>\">b", "a</-x>b", "</ \n>",
    ],
    "attributes": [
        "<a HREF=x.html Title='t' data-X=\"1\" checked checked=yes href=y>z</a>",
        "<a b=c d e = f g='h' i=\"j\">",
        "<a b='x\"y' c=\"x'y\" d=x'y>",
        "<a b==c =d>", "<a b='c'd=e>", "<a b=`c`>", "<a b=c<d>", "<a \"b\" 'c'>",
        "<a b=\"x>y\">z", "<a b= >x", "<input value=\"\" disabled=''>",
        "<p\xa0class=x>", "<p\xa0class=x/y>", "<a\vb=c/d>", "<a href=x\xa0title=y>", "<a\vb>", "<p\x00>x", "<x:y z:w=1 _a=2 .b=3>",
        "<a b=c / d>", "<a / b>", "<a/b>", "<a b=\"c\"/d>",
    ],
    "self-closing": [
        "<br/>x", "<br />x", "<div/>x<p>y", "<a b=c/>x", "<a b='c'/>x", "<p / >x", "<img src=x/>",
        "<p>a</p foo>b",
    ],
    "unterminated-at-eof": [
        "x<a href=\"y", "x<a href=y", "x<div class='y' ", "x<p", "x<p ", "x<a b", "x<a b=",
        "x<a b/", "<p>x<a href=\"y\n<p>z</p>",
    ],
    "charrefs": [
        "&amp; &amp &#65; &#x41 &#65x", "&#0;&#1;&#xD800;&#1114112;&#x110000;", "&notin; &notit; &bogus;",
        "& x", "&", "a&", "&#", "&#x", "&lt;p&gt;", "<a title=\"&lt;&gt&#65x&amp\">", "<p>&#1;</p>",
        "x&nbsp;&NotANamedRef;y", "&ampx &amp;x",
    ],
    "rejected-marked-sections": [
        "a<![foo]>b", "a<![ x", "a<![ x>b", "<p>a<![1]>b</p>", "a<![foo", "a<![", "a<![>b",
    ],
}


@pytest.mark.parametrize(
    "text", [pytest.param(t, id=f"{group}-{i}") for group, cases in MUST_MATCH.items()
             for i, t in enumerate(cases)]
)
def test_must_match_list(text):
    assert_same_tree(text)
    assert digest_page(text) == reference_digest(text)


def test_split_and_dropped_text():
    # "a<" is two chunks, and a digest joins chunks with spaces.
    assert lexer_tree("a<").children == ["a", "<"]
    # The raw text of a script left open at the end is dropped.
    doc = lexer_tree("<p>x</p><script>var y;")
    assert [el.children for el in doc.elements][1:] == [[]]
    # Between two tags, text is one chunk with its references converted.
    assert lexer_tree("<p>a &amp; b&lt;c</p>").elements[0].children == ["a & b<c"]


@pytest.mark.parametrize(
    "text, children",
    [("a<![foo]>b", ["a", "b"]), ("a<![ x", ["a", "<", "![ x"]), ("a<![ x>b<p>", ["a", "b"])],
)
def test_rejected_marked_section_is_a_bogus_comment(text, children):
    with pytest.raises(AssertionError):
        reference_parse_html(text)
    assert lexer_tree(text).children[: len(children)] == children


_SOUP_ATOMS = [t for cases in MUST_MATCH.values() for t in cases] + [
    "<div>", "</div>", "<p>", "</p>", "<span>", "</span>", "<td>", "<nav>", "<a href='x'>", "</a>",
    "<script>", "</script>", "<style>", "</style>", "words ", " ", "\n", "&amp;", "<", ">", "/",
    "\"", "'", "=", "<![", "]]>", "-->",
]


@given(st.lists(st.sampled_from(_SOUP_ATOMS), max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
def test_tag_soup(text):
    assert_same_tree(text)
    assert digest_page(text) == reference_digest(text)


@pytest.mark.parametrize("workload", ["news-pages", "threads"])
def test_benchmark_world_pages(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    worlds = load("worlds", monkeypatch)
    world = worlds.make_world(workload, 1, tmp_path)
    pages = 0
    for path in sorted(world.fixtures.iterdir()):
        head, _, body = path.read_bytes().partition(b"\r\n\r\n")
        if b"text/html" in head.lower():
            assert_same_tree(decode_html(body))
            assert digest_page(body) == reference_digest(body)
            pages += 1
    assert pages == world.html_pages


def test_stray_end_tags_cost_constant_time():
    # Every closer matches no open element; each used to scan the whole
    # open stack, so this page took about 23 s.
    depth = 20_000
    body = b"<html><body>" + b"<div>" * depth + b"<p>deep</p>" + b"</span>" * depth + b"</body></html>"
    start = time.perf_counter()
    digest = digest_page(body)
    assert time.perf_counter() - start < 2
    assert digest == PageDigest("deep", None, None, ())
    small = b"<div>" * 3 + b"<p>x</p>" + b"</span>" * 3 + b"</div>"
    assert_same_tree(small.decode())
