"""Page digests: one lexer pass per fetched page, same results as parsing
per use and as reading an element tree."""

import codecs
import json
import re
import sys
from datetime import date, datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import RETRIEVED, make_corpus, make_post
from oracles import (
    Document,
    Element,
    lexer_tree,
    reference_digest,
    reference_iter,
    reference_main_text_bottom_up,
    reference_metadata_date,
    reference_publication_date,
    reference_strip_boilerplate,
    reference_target_links,
)
from seedsmith import goldstandard
from seedsmith.analytics import estimate_publication_date, judge_relevance
from seedsmith.cli import main as cli_main
from seedsmith.corpus import fetch as fetch_module
from seedsmith.corpus.fetch import Fetcher, FetchResult, FixtureTransport, write_fixture
from seedsmith.corpus.jsonl import write_corpus
from seedsmith.extraction import HTML_KIND, SeedCollection, SeedUri
from seedsmith.goldstandard import GoldStandard, build_term_vector
from seedsmith.htmltools import HtmlDecodingError, decode_html
from seedsmith.pages import PageDigest, _jsonld_published, digest_page
from seedsmith.reports import judge_seeds

DATA = Path(__file__).parent / "data"
RESPONSES = DATA / "responses"


def fixture_bodies():
    return [
        pytest.param(path.read_bytes().split(b"\r\n\r\n", 1)[1], id=path.stem[:12])
        for path in sorted(RESPONSES.glob("*.response"))
    ]


# A JSON-LD date past the decoder's integer-conversion limit, then a meta date.
HUGE_JSONLD_INT = (
    b'<html><head><script type="application/ld+json">{"datePublished": ' + b"9" * 5000
    + b'}</script><meta name="date" content="2014-03-04"></head><body><p>flood water rises</p></body></html>'
)

EDGE_PAGES = [
    pytest.param(b'<html><head><meta charset="utf-8"></head><body>\xff\xfe\xfa</body></html>',
                 id="undecodable"),
    pytest.param(b'<html><head><meta charset="no-such-codec"></head><body><p>x</p></body></html>',
                 id="unknown-charset"),
    # A known codec that raises a bare UnicodeError on every input.
    pytest.param(b'<html><head><meta charset="undefined"></head><body><p>x</p></body></html>',
                 id="undefined-charset"),
    pytest.param(b"just some plain text, no markup at all https://a.example/x", id="tagless"),
    pytest.param(b"", id="empty"),
    pytest.param(
        b'<script type="application/ld+json">{"@graph":[{"datePublished":"2015-02-03T10:00:00Z"}]}'
        b"</script>",
        id="jsonld-only",
    ),
    pytest.param(b'<script type="application/ld+json">{not json</script>', id="bad-jsonld"),
    pytest.param(b"<html><body><script>var x=1;</script></body></html>", id="script-only"),
    pytest.param(
        b'<html><head><meta name="dc.date" content="2011-05-06"></head><body>'
        b'<time pubdate datetime="2012-01-02">then</time>'
        b'<div><a href=" HTTPS://b.example/y ">b</a> <a href="/rel">r</a> '
        b'<a href="mailto:x@y">m</a> <a href="http://c.example">c</a> text</div></body></html>',
        id="time-and-links",
    ),
    pytest.param(b"<div><p>one<p>two<a href='https://a.example/x'>x</div></span>", id="unclosed"),
    pytest.param(HUGE_JSONLD_INT, id="huge-jsonld-int"),
]


JUDGING_GOLD = GoldStandard("t1", build_term_vector(["river flood eclipse transit strike levee solar"]),
                            (), (), RETRIEVED)


def _one_seed_cell(*uris, topic="t1"):
    """One cell of ``topic`` whose post ``p1`` links ``uris`` as HTML seeds."""
    seeds = tuple(SeedUri(uri, uri.split("/")[2], HTML_KIND, "p1", RETRIEVED) for uri in uris)
    return {(topic, "reddit", "top", "P1A1"): SeedCollection(seeds, seeds)}


def _outcome(fn, body):
    try:
        return ("ok", fn(body))
    except ValueError as exc:
        return ("error", str(exc))


class TestDigestMatchesPerUseParsing:
    @pytest.mark.parametrize("body", fixture_bodies() + EDGE_PAGES)
    def test_text_date_and_links(self, body):
        digest = digest_page(body)
        want_text = _outcome(reference_strip_boilerplate, body)
        if digest.text_error is None:
            got_text = ("ok", digest.text)
        else:
            assert digest.text == ""
            got_text = ("error", digest.text_error)
        assert got_text == want_text
        assert digest.published == reference_metadata_date(body)
        assert list(digest.links) == reference_target_links(body)

    @pytest.mark.parametrize("body", fixture_bodies() + EDGE_PAGES)
    def test_thin_wrappers(self, body, tmp_path):
        """Judging is a thin wrapper over the fetcher's digest: a seed
        page is judged on the text per-use parsing finds, or on "" with a
        warning when that raises."""
        uri = "https://a.example/story"
        write_fixture(tmp_path, uri, 200, {"Content-Type": "text/html"}, body)
        warnings = []
        judgments, _dates = judge_seeds(make_corpus([make_post(id="p1", serp_visible=True)]), _one_seed_cell(uri),
                                        {"t1": JUDGING_GOLD}, Fetcher(FixtureTransport(tmp_path)), warnings)
        outcome, want = _outcome(reference_strip_boilerplate, body)
        text = want if outcome == "ok" else ""
        assert judgments == {("t1", HTML_KIND, uri): judge_relevance(build_term_vector([text]), JUDGING_GOLD)}
        assert warnings == ([] if outcome == "ok" else [f"seed {uri} unusable as HTML: {want}"])

    def test_edge_pages_cover_each_outcome(self):
        digests = {p.id: digest_page(p.values[0]) for p in EDGE_PAGES}
        assert digests["undecodable"].text_error.startswith("cannot decode document as utf-8")
        assert digests["unknown-charset"].text_error.startswith("cannot decode document as no-such-codec")
        assert digests["undefined-charset"].text_error.startswith("cannot decode document as undefined")
        assert digests["tagless"].text_error.endswith("(no tags found)")
        assert digests["jsonld-only"].published is not None
        assert digests["huge-jsonld-int"].published == date(2014, 3, 4)
        assert digests["time-and-links"].links == ("HTTPS://b.example/y", "http://c.example")


class TestFetcherDigests:
    def test_one_digest_per_final_uri(self, tmp_path, monkeypatch):
        write_fixture(tmp_path, "https://a.example/old", 301,
                      {"Location": "https://a.example/page"}, b"")
        write_fixture(tmp_path, "https://a.example/page", 200,
                      {"Content-Type": "text/html"}, b"<p>hello <a href='https://b.example/'>b</a></p>")
        calls = []
        monkeypatch.setattr(fetch_module, "digest_page", lambda body: calls.append(body) or digest_page(body))
        fetcher = Fetcher(FixtureTransport(tmp_path))
        first = fetcher.digest(fetcher.dereference("https://a.example/old"))
        second = fetcher.digest(fetcher.dereference("https://a.example/page"))
        assert first is second
        assert first.links == ("https://b.example/",)
        assert len(calls) == 1

    @pytest.mark.parametrize("body", fixture_bodies() + EDGE_PAGES)
    def test_digest_chain_matches_default_chain(self, body):
        """Dating a page from the fetcher's digest gives what the chain
        of per-use steps (metadata from a fresh parse, then URI path,
        then Last-Modified) gives."""
        fetcher = Fetcher(FixtureTransport(RESPONSES))
        for uri in ("https://x.example/story", "https://x.example/2016/01/05/story"):
            for headers in ({}, {"last-modified": "Fri, 08 Aug 2014 12:00:00 GMT"}):
                result = FetchResult(uri, uri, 200, "text/html", headers, body,
                                     datetime(2018, 11, 6, tzinfo=timezone.utc))
                assert estimate_publication_date(result, fetcher.digest(result)) == (
                    reference_publication_date(result)
                )


class TestSeedTextProvider:
    """``judge_seeds`` as the provider of each seed page's text."""

    def test_warns_on_each_read_of_an_unusable_page(self, tmp_path):
        # Each page is read once, however many cells and topics hold it,
        # and warned about at that read, in the order pages are first
        # judged.
        write_fixture(tmp_path, "https://a.example/plain", 200, {"Content-Type": "text/html"}, b"no tags")
        requested = []
        transport = FixtureTransport(tmp_path)
        request = transport.request
        transport.request = lambda uri: requested.append(uri) or request(uri)
        uris = ("https://a.example/plain", "https://a.example/missing") * 2
        collections = {**_one_seed_cell(*uris), **_one_seed_cell(*reversed(uris), topic="t2")}
        warnings = []
        judgments, dates = judge_seeds(make_corpus([make_post(id="p1", serp_visible=True)]), collections,
                                       {"t1": JUDGING_GOLD, "t2": JUDGING_GOLD}, Fetcher(transport), warnings)
        assert requested == list(uris[:2])
        assert len(warnings) == 2
        assert warnings[0].startswith("seed https://a.example/plain unusable as HTML: ")
        assert warnings[1].startswith("seed https://a.example/missing not fetchable (missing-fixture)")
        empty = judge_relevance(build_term_vector([""]), JUDGING_GOLD)
        assert judgments == {(topic, HTML_KIND, uri): empty for topic in ("t1", "t2") for uri in uris}
        assert dates == {}


def _count_calls(monkeypatch, original):
    """Record the first argument of every call to ``original`` wherever a
    seedsmith module binds it."""
    calls = []

    def counting(arg):
        calls.append(arg)
        return original(arg)

    for name, module in list(sys.modules.items()):
        if module is None or not (name == "seedsmith" or name.startswith("seedsmith.")):
            continue
        for binding, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, binding, counting)
    return calls


def _record_html_pages(monkeypatch):
    """Body of each URI answered 200 with an HTML media type by the
    fixture transport."""
    original = FixtureTransport.request
    pages = {}

    def recording(self, uri):
        status, headers, body = original(self, uri)
        if status == 200 and headers.get("content-type", "").startswith("text/html"):
            pages[uri] = body
        return status, headers, body

    monkeypatch.setattr(FixtureTransport, "request", recording)
    return pages


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_fixture_run_parses_each_html_page_once(tmp_path, monkeypatch, live_mode, jobs):
    """Each HTML page is read once, by exactly one of the two readers: a
    page the measures read gets one ``digest_page`` pass, and a
    reference-list page one ``extract_references`` pass. At --jobs 2 the
    run is live, the mode that judges with workers."""
    digested = _count_calls(monkeypatch, digest_page)
    searched = _count_calls(monkeypatch, goldstandard.extract_references)
    pages = _record_html_pages(monkeypatch)
    code = cli_main(
        ["run", "--corpus", str(DATA / "corpus.jsonl"), "--out", str(tmp_path / "out"),
         "--fixtures", str(RESPONSES), "--refs", str(DATA / "refs.json"), "--jobs", jobs,
         *(live_mode if jobs == "2" else ())]
    )
    assert code == 0
    uri_of = {body: uri for uri, body in pages.items()}
    assert len(uri_of) == len(pages)
    digested_uris = [uri_of[body] for body in digested]
    assert len(set(digested_uris)) == len(digested_uris)
    refs = json.loads((DATA / "refs.json").read_text())
    reference_pages = {entry for entry in refs.values() if isinstance(entry, str)}
    assert reference_pages
    assert sorted(page.body for page in searched) == sorted(pages[uri] for uri in reference_pages)
    assert set(digested_uris) == set(pages) - reference_pages


# ---------------------------------------------------------------------------
# Element-tree walks and hostile pages
# ---------------------------------------------------------------------------


def _assert_walks_match_reference(root):
    got = list(root.iter())
    want = list(reference_iter(root))
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def _fixture_markup():
    """Decoded text of every fixture page that decodes."""
    pages = []
    for param in fixture_bodies():
        try:
            pages.append(decode_html(param.values[0]))
        except ValueError:
            continue
    return pages


def test_walks_match_recursive_reference_on_fixture_pages():
    pages = _fixture_markup()
    assert pages
    for markup in pages:
        _assert_walks_match_reference(lexer_tree(markup))


_TAGS = ("div", "p", "a", "span", "script", "nav", "article")
_TREES = st.recursive(
    st.text(alphabet="ab <&", max_size=4),
    lambda kids: st.builds(
        lambda tag, children: Element(tag, {}, children),
        st.sampled_from(_TAGS),
        st.lists(kids, max_size=4),
    ),
    max_leaves=40,
)
_DOCUMENTS = st.builds(lambda children: Element("[document]", {}, children), st.lists(_TREES, max_size=4))
# Tag soup: unclosed, stray and interleaved tags.
_MARKUP = st.lists(
    st.sampled_from(
        ["<div>", "</div>", "<p>", "</p>", "<a href='https://x.example/'>", "</a>", "<nav>",
         "</nav>", "<script>", "</script>", "</span>", "<br>", "<td>", "words ", "more ", "&amp; "]
    ),
    max_size=80,
).map("".join)


@given(_DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_walks_match_recursive_reference_on_generated_trees(root):
    _assert_walks_match_reference(root)


@given(_MARKUP)
@settings(max_examples=200, deadline=None)
def test_walks_match_recursive_reference_on_tag_soup(markup):
    _assert_walks_match_reference(lexer_tree(markup))


_JSONLD = st.recursive(
    st.one_of(st.none(), st.integers(0, 2), st.sampled_from(["", "x", "2010-01-02", "2011-02-03T04:05"])),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.sampled_from(["datePublished", "dateCreated", "@graph", "a"]), kids,
                        max_size=3),
    ),
    max_leaves=20,
)


@given(_JSONLD)
@settings(max_examples=300, deadline=None)
def test_jsonld_search_matches_recursive_reference(payload):
    # The reference hands back a falsy top-level field value; both mean
    # "no date" to the caller.
    assert _jsonld_published(payload) == (oracles._jsonld_published(payload) or None)


def test_jsonld_search_deeper_than_recursion_limit():
    node = {"datePublished": "2010-01-02"}
    for _ in range(sys.getrecursionlimit() * 5):
        node = [{"a": None}, node]
    assert _jsonld_published(node) == "2010-01-02"


# Any header value a fixture can hold: latin-1, one line.
_HEADER_TEXT = st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=20)
_CHARSETS = st.one_of(_HEADER_TEXT, st.sampled_from(
    ["utf-8", "UTF-8", "latin-1", "utf-16", "utf-32-le", "ascii", "cp1252", "shift_jis", "utf-7", "idna",
     "rot13", "base64", "zlib", "undefined", "no-such-codec", ""]
))
# Markup with words outside ASCII, encoded in the charset its <meta> declares.
_ENCODED = st.builds(
    lambda charset, markup: f'<html><head><meta charset="{charset}"></head><body>{markup}</body></html>'.encode(
        charset, "xmlcharrefreplace"),
    st.sampled_from(["latin-1", "cp1252", "shift_jis", "euc-jp", "koi8-r", "utf-16"]),
    st.lists(st.one_of(_MARKUP, st.sampled_from(["café ", "naïve “quoted” ", "洪水の記事 ", "наводнение ", "€ "])),
             max_size=6).map("".join),
)
# The bodies of fetched pages: markup, declared charsets, JSON-LD
# payloads, edge pages and raw bytes.
BODIES = st.one_of(
    _MARKUP.map(str.encode),
    st.builds(lambda charset, markup: f'<html><head><meta charset="{charset}"></head><body>{markup}'
              "</body></html>".encode(), _CHARSETS, _MARKUP),
    _ENCODED,
    _JSONLD.map(lambda payload: b'<script type="application/ld+json">' + json.dumps(payload).encode()
                + b"</script><p>river flood</p>"),
    st.sampled_from([param.values[0] for param in EDGE_PAGES]),
    st.binary(max_size=40),
)


@given(BODIES)
@settings(max_examples=300, deadline=None)
def test_digest_matches_reference_on_any_body(body):
    assert digest_page(body) == reference_digest(body)


# ``oracles.reference_digest`` decodes through ``decode_html``, so the
# property above cannot see a decoding fault; the one below can.
_BYTE_ORDER_MARKS = {codecs.BOM_UTF8: "utf-8", codecs.BOM_UTF16_LE: "utf-16-le", codecs.BOM_UTF16_BE: "utf-16-be"}
_META_CHARSET = re.compile(rb"""<meta[^>]+charset\s*=\s*["']?\s*([a-zA-Z0-9_.:-]+)""", re.IGNORECASE)
_XML_ENCODING = re.compile(rb"""<\?xml[^>]*encoding\s*=\s*["']([a-zA-Z0-9_.:-]+)["']""")


def reference_decode(body):
    """A body's text, or the package's error text if it does not decode:
    by its byte-order mark (which it drops), else by the charset that a
    <meta> tag, else an XML declaration, names in its first 4 KB, else
    as UTF-8."""
    mark = next((mark for mark in _BYTE_ORDER_MARKS if body.startswith(mark)), None)
    if mark:
        encoding, body = _BYTE_ORDER_MARKS[mark], body[len(mark):]
    else:
        head = body[:4096]
        declared = _META_CHARSET.search(head) or _XML_ENCODING.search(head)
        encoding = declared.group(1).decode("ascii", "replace").lower() if declared else "utf-8"
    try:
        return body.decode(encoding)
    except (UnicodeError, LookupError) as exc:
        return f"cannot decode document as {encoding}: {exc}"


@given(BODIES)
@example(codecs.BOM_UTF16_LE + b"<p>")  # a mark, then bytes that do not decode
@settings(max_examples=300, deadline=None)
def test_decode_matches_reference_on_any_body(body):
    try:
        got = decode_html(body)
    except HtmlDecodingError as exc:
        got = str(exc)
    assert got == reference_decode(body)


_BOM_PAGE = '<html><head><meta charset="{}"></head><body><p>Hello café flood world</p></body></html>'


@pytest.mark.parametrize(
    "body",
    [
        # The mark wins over a declaration that names another charset.
        pytest.param(codecs.BOM_UTF8 + _BOM_PAGE.format("latin-1").encode("utf-8"), id="utf-8"),
        pytest.param(codecs.BOM_UTF16_LE + _BOM_PAGE.format("utf-16").encode("utf-16-le"), id="utf-16-le"),
        pytest.param(codecs.BOM_UTF16_BE + _BOM_PAGE.format("utf-16").encode("utf-16-be"), id="utf-16-be"),
    ],
)
def test_byte_order_mark_decides_the_encoding(body):
    want = PageDigest("Hello café flood world", None, None, ())
    assert digest_page(body) == want


DEEP_NESTING = (
    b"<html><body>" + b"<div>" * 2000 + b"<p>deep text</p>" + b"</div>" * 2000 + b"</body></html>"
)
# A JSON-LD array nested past the decoder's depth limit, then a meta date.
DEEP_JSONLD = (
    b'<html><head><script type="application/ld+json">' + b"[" * 5000 + b"]" * 5000
    + b'</script><meta name="date" content="2014-03-04"></head><body><p>shallow text</p></body></html>'
)
VERY_DEEP = (b"<html><body>" + b"<div>" * 20_000 + b"<p>deep <a href='https://a.example/'>text</a></p>"
             + b"</div>" * 20_000 + b"<nav>menu</nav></body></html>")


def test_deep_nesting_digest():
    assert digest_page(DEEP_NESTING) == PageDigest("deep text", None, None, ())


def test_too_deep_jsonld_carries_no_date():
    digest = digest_page(DEEP_JSONLD)
    assert digest.published == date(2014, 3, 4)
    assert digest.text == "shallow text"


@pytest.mark.parametrize(
    "body",
    [
        pytest.param(DEEP_NESTING, id="deep-nesting"),
        pytest.param(DEEP_JSONLD, id="deep-jsonld"),
        pytest.param(HUGE_JSONLD_INT, id="huge-jsonld-int"),
        # Marked sections html.parser rejects with an AssertionError.
        pytest.param(b"<html><body><![foo]><p>flood water rises</p></body></html>", id="unknown-section"),
        pytest.param(b"<html><body><p>flood water rises<![ x</p></body></html>", id="nameless-section"),
    ],
)
def test_lenient_run_over_hostile_page_exits_0(tmp_path, body):
    uri = "https://hostile.example/page"
    fixtures = tmp_path / "responses"
    fixtures.mkdir()
    write_fixture(fixtures, uri, 200, {"Content-Type": "text/html"}, body)
    write_corpus(make_corpus([make_post(id="p1", serp_visible=True, text=f"see {uri}")]),
                 tmp_path / "corpus.jsonl")
    (tmp_path / "refs.json").write_text(f'{{"t1": ["{uri}"]}}')
    out = tmp_path / "out"
    code = cli_main(
        ["run", "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(out),
         "--fixtures", str(fixtures), "--refs", str(tmp_path / "refs.json"), "--jobs", "2"]
    )
    assert code == 0
    assert uri in (out / "seeds.csv").read_text()
    precision = (out / "precision_html.csv").read_text().splitlines()
    assert "t1,reddit,top,P1A1,1.0000,1,html" in precision


def test_too_deep_page_reprs_and_compares_shallowly():
    first = lexer_tree(DEEP_NESTING.decode())
    second = lexer_tree(DEEP_NESTING.decode())
    assert first == first
    assert first != second
    assert first.elements[0] != second.elements[0]
    assert repr(first) == "Document('[document]', {}, children=1)"
    assert repr(first.elements[2]) == "Element('div', {}, children=1)"
    assert all(repr(el) for el in first.elements)


def test_very_deep_page_digests_to_its_text():
    assert digest_page(VERY_DEEP) == PageDigest("deep text", None, None, ("https://a.example/",))


@pytest.mark.parametrize(
    "body", [pytest.param(DEEP_NESTING, id="deep-nesting"), pytest.param(VERY_DEEP, id="very-deep")]
)
def test_deep_page_digest_matches_tree_path(body):
    # Too deep for the reference that walks every candidate again.
    assert digest_page(body) == reference_digest(body, reference_main_text_bottom_up)


# ---------------------------------------------------------------------------
# The one-pass digest against the element-tree path
# ---------------------------------------------------------------------------


def _assert_document_order(root):
    """``elements`` is the pre-order walk after the root."""
    assert isinstance(root, Document)
    walk = list(root.iter())
    assert len(root.elements) == len(walk) - 1
    assert all(a is b for a, b in zip(root.elements, walk[1:]))


def _assert_scorer_matches_reference(markup):
    """``digest_page`` reads what the reference walks read from the
    ``lexer_tree`` tree, and the bottom-up reference agrees with the one that walks each
    candidate again."""
    _assert_document_order(lexer_tree(decode_html(markup)))
    want = reference_digest(markup)
    assert digest_page(markup) == want
    assert reference_digest(markup, reference_main_text_bottom_up) == want


def test_scorer_matches_reference_on_fixture_pages():
    pages = _fixture_markup()
    assert pages
    for markup in pages:
        _assert_scorer_matches_reference(markup)


@pytest.mark.parametrize("body", EDGE_PAGES + [pytest.param(DEEP_JSONLD, id="deep-jsonld")])
def test_scorer_matches_reference_on_edge_pages(body):
    try:
        decode_html(body)
    except ValueError:
        assert digest_page(body) == reference_digest(body)
        return
    _assert_scorer_matches_reference(body)


# Nested anchors, empty anchors, anchors under nav and other excluded
# tags (script and style hold raw text, so their "anchors" are text),
# whitespace-only and non-breaking-space text.
_SCORER_TOKENS = st.sampled_from(
    ["<div>", "</div>", "<td>", "</td>", "<section>", "</section>", "<article>", "</article>",
     "<main>", "<body>", "<p>", "</p>", "<span>", "</span>", "<br>", "<img/>",
     "<a href='https://x.example/'>", "<a>", "</a>", "<a></a>", "<a> </a>",
     "<nav>", "</nav>", "<form>", "</form>", "<noscript>", "</noscript>", "<header>", "</header>",
     "<script>", "</script>", "<style>", "</style>",
     "words ", "more text ", "x", "  \n\t ", " ", "\u00a0", "&nbsp;", "&amp; "]
)
_SCORER_SOUP = st.lists(_SCORER_TOKENS, max_size=60).map("".join)
# The same block repeated side by side ties on score and element count.
_TIED_BLOCKS = st.tuples(
    _SCORER_SOUP, st.lists(_SCORER_TOKENS, min_size=1, max_size=12).map("".join),
    st.integers(2, 4), _SCORER_SOUP,
).map(lambda t: t[0] + t[1] * t[2] + t[3])


@given(st.one_of(_SCORER_SOUP, _TIED_BLOCKS, _MARKUP))
@settings(max_examples=400, deadline=None)
def test_scorer_matches_reference_on_tag_soup(markup):
    _assert_scorer_matches_reference(markup)


def test_scorer_breaks_ties_on_element_count_then_order():
    tied = "<div>same <b>x</b></div><div>same <i>x</i></div>"
    _assert_scorer_matches_reference(tied)
    root = lexer_tree(tied)
    assert oracles.reference_main_container(root) is root.elements[0]
    # The same blocks with texts told apart: the earlier one wins a tie,
    # and the one with fewer elements wins an equal score.
    assert digest_page("<div>same <b>x</b></div><div>same <i>y</i></div>").text == "same x"
    fewer = "<div>same <b><i>x</i></b></div><div>same <b>x</b></div>"
    _assert_scorer_matches_reference(fewer)
    root = lexer_tree(fewer)
    assert oracles.reference_main_container(root) is root.elements[3]
    assert digest_page("<div>same <b><i>x</i></b></div><div>same <b>y</b></div>").text == "same y"


def test_scorer_subtracts_anchors_under_excluded_tags():
    # The navigation text is not content, but its anchor text still
    # counts against the container holding it.
    markup = "<div><nav><a href='https://x.example/'>a long link text</a></nav>abc</div><div>ab</div>"
    _assert_scorer_matches_reference(markup)
    assert digest_page(markup).text == "ab"
