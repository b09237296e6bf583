import json
import time
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_topic
from oracles import reference_digest, reference_extract_references, reference_gold_json
from seedsmith.corpus.fetch import Fetcher, FixtureTransport, write_fixture
from seedsmith.goldstandard import (
    GoldStandard,
    GoldStandardError,
    build_gold_standard,
    build_term_vector,
    extract_references,
)
from seedsmith.pages import digest_page
from seedsmith.stopwords import STOPWORDS
from test_pages import fixture_bodies
from test_pipebench_view import PIPEBENCH, load


def page_result(body, uri="https://encyclo.example/wiki/Flood", tmp_path=None):
    from seedsmith.corpus.fetch import FetchResult

    return FetchResult(
        request_uri=uri,
        final_uri=uri,
        status=200,
        media_type="text/html",
        headers={"content-type": "text/html"},
        body=body if isinstance(body, bytes) else body.encode("utf-8"),
        fetched_at=datetime(2018, 11, 6, tzinfo=timezone.utc),
    )


class TestHtmlTools:
    def test_lenient_parse_recovers_from_unclosed_tags(self):
        body = b"<div><p>one<p>two<a href='https://a.example/x'>x</div>"
        digest = digest_page(body)
        assert digest.links == ("https://a.example/x",)
        assert digest == reference_digest(body)

    def test_stray_end_tags_ignored(self):
        body = b"</div><p>ok</p></span>"
        assert digest_page(body).text == "ok"
        assert digest_page(body) == reference_digest(body)


class TestStripBoilerplate:
    """Boilerplate stripping as the pipeline reads it: a page digest's
    ``text``, or its ``text_error`` when the page has none."""

    def test_simple_body(self):
        assert digest_page(b"<html><body><p>hello world</p></body></html>").text == "hello world"

    def test_nav_article_footer(self):
        page = b"""
        <html><body>
          <nav><a href="/">Home</a> <a href="/news">News</a> menu menu menu</nav>
          <article><h1>Flood report</h1><p>Water levels rose in Riverbend today.</p></article>
          <footer>Copyright footer text that is quite long as footers are.</footer>
        </body></html>
        """
        assert digest_page(page).text == "Flood report Water levels rose in Riverbend today."

    def test_all_script_page_is_empty_with_warning(self):
        digest = digest_page(b"<html><body><script>var x=1;</script></body></html>")
        assert (digest.text, digest.text_error) == ("", None)

    def test_undecodable_bytes_error_names_encoding(self):
        bad = b'<html><head><meta charset="utf-8"></head><body>\xff\xfe\xfa</body></html>'
        digest = digest_page(bad)
        assert digest.text == ""
        assert digest.text_error.startswith("cannot decode document as utf-8")

    def test_declared_charset_honored(self):
        page = b'<html><head><meta charset="iso-8859-1"></head><body><p>caf\xe9 flood</p></body></html>'
        assert digest_page(page).text == "café flood"

    def test_non_html_input_rejected(self):
        digest = digest_page(b"just some plain text, no markup at all")
        assert digest.text == ""
        assert "HTML" in digest.text_error

    def test_whitespace_collapsed(self):
        page = b"<html><body><p>a\n\n   b\tc</p></body></html>"
        assert digest_page(page).text == "a b c"


REF_PAGE = """
<html><body>
  <p>Intro with <a href="/wiki/Internal">an internal link</a>.</p>
  <div id="references">
    <ol>
      <li><a href="https://ref1.example/a" class="external">Ref 1</a></li>
      <li><a href="https://ref2.example/b">Ref 2</a></li>
      <li><a href="/wiki/Another">internal</a></li>
      <li><a href="https://encyclo.example/wiki/SamePage">same-site</a></li>
      <li><a href="https://ref3.example/c">Ref 3</a></li>
    </ol>
  </div>
</body></html>
"""


class TestExtractReferences:
    def test_external_citations_in_order(self):
        got = extract_references(page_result(REF_PAGE))
        assert got == ["https://ref1.example/a", "https://ref2.example/b", "https://ref3.example/c"]

    def test_internal_only_page_is_empty(self):
        page = '<html><body><p><a href="/wiki/One">1</a></p></body></html>'
        assert extract_references(page_result(page)) == []

    def test_malformed_html_recovers_anchor(self):
        page = "<html><body><div class='references'><ol><li><a href='https://r.example/x'>x</a></body>"
        assert extract_references(page_result(page)) == ["https://r.example/x"]

    @pytest.mark.parametrize("section", ["<![foo]>", "<![ x"])
    def test_marked_section_html_parser_rejects_is_skipped(self, section):
        page = REF_PAGE.replace("<ol>", "<ol>" + section)
        got = extract_references(page_result(page))
        assert got == ["https://ref1.example/a", "https://ref2.example/b", "https://ref3.example/c"]

    def test_plain_ordered_list_fallback(self):
        page = """
        <html><body><ol>
          <li><a href="https://r1.example/a">a</a></li>
          <li><a href="https://r2.example/b">b</a></li>
        </ol></body></html>
        """
        assert extract_references(page_result(page)) == [
            "https://r1.example/a",
            "https://r2.example/b",
        ]


def assert_references_match_tree(body, uri="https://encyclo.example/wiki/Flood"):
    body = body if isinstance(body, bytes) else body.encode("utf-8")
    got = extract_references(page_result(body, uri))
    assert got == reference_extract_references(body, uri), body


class TestReferencesMatchTree:
    """The one-pass reference reader against today's tree search
    (``oracles.reference_extract_references``): the same URIs."""

    # Nested and sibling containers, nested ols and <ol/>, marked anchors
    # and void tags; same-host, relative, repeated and padded hrefs;
    # unclosed tags, stray closers, raw text and a script never closed.
    _ATOMS = [
        "<div>", "</div>", "<ol>", "</ol>", "<ol/>", "<ul>", "</ul>", "<li>", "</li>", "<p>", "</p>",
        "</span>", "</li></ol>", "<td>", "</td>",
        "<div class='references'>", "<section id='Sources'>", "</section>",
        "<ul role='doc-bibliography'>", "<span class='footnotes'>", "</span>",
        "<br class='sources'>", "<img class='reflist' src=x>", "<ol class='citations'>",
        "<a href='https://r1.example/a'>", "<a href=' https://r2.example/b '>",
        "<a href='HTTP://R3.example/c'>", "<a href='https://encyclo.example/wiki/Same'>",
        "<a href='/wiki/Relative'>", "<a href='mailto:x@y.example'>", "<a href=''>", "<a>",
        "<a class='references' href='https://r4.example/d'>", "<a href='https://r1.example/a'/>",
        "</a>", "<script>", "<script>var a = '<a href=https://r5.example/e>';</script>", "</script>",
        "<style>a{}</style>", "<![foo]>", "<!-- <ol> -->", "words ", "<", "&amp;",
    ]
    _SOUP = st.lists(st.sampled_from(_ATOMS), max_size=40).map("".join)

    @given(_SOUP, st.sampled_from(["https://encyclo.example/wiki/Flood", "https://r1.example/"]))
    @settings(max_examples=600, deadline=None)
    def test_tag_soup(self, markup, uri):
        assert_references_match_tree(markup, uri)

    @pytest.mark.parametrize("body", fixture_bodies())
    def test_fixture_pages(self, body):
        for uri in ("https://encyclo.example/wiki/Flood", "https://refdocs.example/"):
            assert_references_match_tree(body, uri)

    def test_benchmark_world_reference_pages(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PIPEBENCH))
        world = load("worlds", monkeypatch).make_world("news-pages", 1, tmp_path)
        fetcher = Fetcher(FixtureTransport(world.fixtures))
        pages = [fetcher.dereference(entry)
                 for entry in json.loads(world.refs.read_text()).values() if isinstance(entry, str)]
        assert pages
        for page in pages:
            assert extract_references(page)
            assert_references_match_tree(page.body, page.final_uri)

    def test_marked_container_without_citations_is_empty_without_warning(self):
        page = "<ol><li><a href='https://r1.example/a'>a</a></li></ol><br class='sources'>"
        assert extract_references(page_result(page)) == []
        assert_references_match_tree(page)

    def test_stray_closers_and_deep_nesting_cost_linear_time(self):
        depth = 20_000
        anchor = "<a href='https://r.example/x'>x</a>"
        stray = "<div class='references'>" + "<div>" * depth + anchor + "</span>" * depth
        deep = "<ol><li>" * depth + anchor + "</li></ol>" * depth
        for page in (stray, deep):
            start = time.perf_counter()
            uris = extract_references(page_result(page))
            assert time.perf_counter() - start < 2
            assert uris == ["https://r.example/x"]


class TestTermVector:
    def test_hand_counted_normalized(self):
        vector = build_term_vector(["cat cat dog"])
        assert vector == pytest.approx({"cat": 2 / 3, "dog": 1 / 3})

    def test_empty_input(self):
        assert build_term_vector([]) == {}

    def test_all_stopwords(self):
        assert build_term_vector(["the the the"]) == {}

    def test_unnormalized_counts(self):
        # Each weight is the term's count over the total count, exactly.
        vector = build_term_vector(["cat cat dog eel"])
        assert vector == {"cat": 2 / 4, "dog": 1 / 4, "eel": 1 / 4}

    def test_terms_keep_first_seen_order(self):
        vector = build_term_vector(["cat dog", "eel cat", "dog fox"])
        assert list(vector.items()) == [
            ("cat", 2 / 6), ("dog", 2 / 6), ("eel", 1 / 6), ("fox", 1 / 6)
        ]

    def test_concatenation_order_invariant(self):
        texts = ["flood river", "levee breach flood", "riverbend"]
        assert build_term_vector(texts) == build_term_vector(list(reversed(texts)))

    _words = st.lists(
        st.sampled_from("flood river levee rain the and of storm water crest".split()),
        max_size=40,
    )

    @given(_words)
    @settings(max_examples=100, deadline=None)
    def test_normalization_sums_to_one(self, words):
        vector = build_term_vector([" ".join(words)])
        if vector:
            assert sum(vector.values()) == pytest.approx(1.0, abs=1e-9)

    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_stopword_closure(self, text):
        vector = build_term_vector([text])
        assert not (set(vector) & STOPWORDS)
        assert all(len(t) >= 2 for t in vector)


def ref_doc(text):
    return f"<html><body><article><p>{text}</p></article></body></html>".encode()


class TestBuildGoldStandard:
    DATE = {"Date": "Tue, 06 Nov 2018 00:00:00 GMT", "Content-Type": "text/html"}

    def fetcher(self, tmp_path):
        return Fetcher(FixtureTransport(tmp_path))

    def test_hand_computed_vector_over_concatenation(self, tmp_path):
        write_fixture(tmp_path, "https://ref1.example/a", 200, self.DATE, ref_doc("flood river flood"))
        write_fixture(tmp_path, "https://ref2.example/b", 200, self.DATE, ref_doc("river levee"))
        gold = build_gold_standard(
            make_topic(), ["https://ref1.example/a", "https://ref2.example/b"], self.fetcher(tmp_path)
        )
        assert gold.vector == pytest.approx({"flood": 0.4, "river": 0.4, "levee": 0.2})
        assert gold.failures == ()
        assert gold.post_class == "P1An"

    def test_partial_failure_recorded(self, tmp_path):
        write_fixture(tmp_path, "https://ref1.example/a", 200, self.DATE, ref_doc("flood"))
        write_fixture(tmp_path, "https://ref2.example/b", 404, self.DATE, b"gone")
        gold = build_gold_standard(
            make_topic(),
            ["https://ref1.example/a", "https://ref2.example/b", "https://ref3.example/c"],
            self.fetcher(tmp_path),
        )
        assert gold.vector == {"flood": 1.0}
        assert len(gold.failures) == 2
        assert gold.failures[0] == ("https://ref2.example/b", "404")

    def test_unusable_documents_recorded(self, tmp_path):
        write_fixture(tmp_path, "https://ref1.example/a", 200, self.DATE, ref_doc("flood"))
        write_fixture(tmp_path, "https://ref2.example/b", 200, self.DATE, b"no markup here")
        write_fixture(tmp_path, "https://ref3.example/c", 200, self.DATE,
                      b'<meta charset="utf-8"><p>\xff\xfe</p>')
        gold = build_gold_standard(
            make_topic(),
            ["https://ref1.example/a", "https://ref2.example/b", "https://ref3.example/c"],
            self.fetcher(tmp_path),
        )
        assert gold.vector == {"flood": 1.0}
        reasons = dict(gold.failures)
        assert reasons["https://ref2.example/b"] == (
            "unusable document: input does not look like an HTML document (no tags found)"
        )
        assert reasons["https://ref3.example/c"].startswith(
            "unusable document: cannot decode document as utf-8: "
        )

    def test_all_failures_error(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        with pytest.raises(GoldStandardError, match="every reference failed"):
            build_gold_standard(make_topic(), ["https://ref1.example/a"], self.fetcher(tmp_path))

    def test_no_refs_error(self, tmp_path):
        with pytest.raises(GoldStandardError, match="no reference"):
            build_gold_standard(make_topic(), [], self.fetcher(tmp_path))

    def test_serialization_deterministic(self, tmp_path):
        write_fixture(tmp_path, "https://ref1.example/a", 200, self.DATE, ref_doc("flood river"))
        uris = ["https://ref1.example/a"]
        first = build_gold_standard(make_topic(), uris, self.fetcher(tmp_path)).to_json()
        second = build_gold_standard(make_topic(), uris, self.fetcher(tmp_path)).to_json()
        assert first == second
        restored = GoldStandard.from_json(first)
        assert restored.topic_id == "t1"
        assert restored.vector == pytest.approx({"flood": 0.5, "river": 0.5})


_NOT_WEIGHTS = "malformed gold standard: field 'weights' is not a map of finite numbers"
_NOT_FAILURES = "malformed gold standard: field 'failures' is not a list of {uri, reason} strings"


# Gold file strings: any text, and keys or values that need an escape or
# are not ASCII.
_GOLD_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(
    ["", '"', "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "é", "\u00e9t\u00e9", "日本", "\U0001f30a", '{"a": [1]}']
))


class TestGoldFile:
    """``GoldStandard.from_json`` reads what ``to_json`` writes and raises
    GoldStandardError for anything of another shape."""

    GOLD = GoldStandard(
        topic_id="t1",
        vector={"flood": 0.75, "river": 0.25},
        reference_uris=("https://ref1.example/a", "https://ref2.example/b"),
        failures=(("https://ref2.example/b", "404"),),
        built_at=datetime(2018, 11, 6, tzinfo=timezone.utc),
    )

    def test_round_trip(self):
        assert GoldStandard.from_json(self.GOLD.to_json()) == self.GOLD

    @given(
        topic_id=_GOLD_TEXT,
        uris=st.lists(_GOLD_TEXT, max_size=4),
        failures=st.lists(st.tuples(_GOLD_TEXT, _GOLD_TEXT), max_size=3),
        weights=st.dictionaries(_GOLD_TEXT, st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, -2.2250738585072e-308, 1.7976931348623157e308, 0.1, -0.0]),
            st.integers(-10 ** 6, 10 ** 6),
        ), max_size=6),
        post_class=_GOLD_TEXT,
        built_at=st.datetimes(timezones=st.just(timezone.utc)),
    )
    @settings(max_examples=300, deadline=None)
    def test_to_json_writes_the_bytes_of_an_indented_dump(self, topic_id, uris, failures, weights, post_class,
                                                          built_at):
        gold = GoldStandard(topic_id, weights, tuple(uris), tuple(failures), built_at, post_class)
        assert gold.to_json().encode("utf-8") == reference_gold_json(gold).encode("utf-8")

    # Each case is named after its field, its value and what is wrong
    # with that value.
    @pytest.mark.parametrize("field, value, message", [
        ("weights", {"flood": "x"}, _NOT_WEIGHTS),
        ("weights", {"flood": None}, _NOT_WEIGHTS),
        ("weights", {"flood": float("nan")}, _NOT_WEIGHTS),
        ("weights", {"flood": float("-inf")}, _NOT_WEIGHTS),
        ("weights", {"flood": True}, _NOT_WEIGHTS),
        ("weights", {"flood": 10 ** 400}, _NOT_WEIGHTS),
        ("weights", [["flood", 1.0]], _NOT_WEIGHTS),
        ("weights", {"flood": 1e-200, "river": 1e-200}, "weights do not have a positive finite norm"),
        ("weights", {"flood": 1e308, "river": 1e308}, "weights do not have a positive finite norm"),
        ("weights", {"flood": 10 ** 200}, "weights do not have a positive finite norm"),
        ("weights", {"flood": 0, "river": 0.0}, "weights do not have a positive finite norm"),
        ("topic_id", 5, "malformed gold standard: field 'topic_id' is not a string"),
        ("post_class", ["P1An"], "malformed gold standard: field 'post_class' is not a string"),
        ("built_at", 20181106, "malformed gold standard: field 'built_at' is not a valid timestamp"),
        ("built_at", "yesterday", "malformed gold standard: field 'built_at' is not a valid timestamp: "),
        ("built_at", "0001-01-01T00:00:00+01:00",
         "malformed gold standard: field 'built_at' is not a valid timestamp: "),
        ("reference_uris", "abc", "malformed gold standard: field 'reference_uris' is not a list of strings"),
        ("reference_uris", ["https://ref1.example/a", 7],
         "malformed gold standard: field 'reference_uris' is not a list of strings"),
        ("failures", [["https://ref2.example/b", "404"]], _NOT_FAILURES),
        ("failures", [{"uri": "https://ref2.example/b"}], _NOT_FAILURES),
    ], ids=[
        *(f"weights-value{i}-weights is not an object of finite numbers" for i in range(7)),
        *(f"weights-value{i}-weights do not have a positive finite norm" for i in range(7, 11)),
        "topic_id-5-topic_id is not a string",
        "post_class-value12-post_class is not a string",
        "built_at-20181106-built_at is not a string",
        "built_at-yesterday-built_at is not a timestamp: ",
        "built_at-0001-01-01T00:00:00+01:00-built_at is not a timestamp: ",
        "reference_uris-abc-reference_uris is not a list of strings",
        "reference_uris-value17-reference_uris is not a list of strings",
        "failures-value18-failures is not a list of {uri, reason} strings",
        "failures-value19-failures is not a list of {uri, reason} strings",
    ])
    def test_wrong_type_is_rejected(self, field, value, message):
        payload = json.loads(self.GOLD.to_json())
        payload[field] = value
        with pytest.raises(GoldStandardError) as caught:
            GoldStandard.from_json(json.dumps(payload))
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("text, message", [
        ("[]", "malformed gold standard: not a JSON object"),
        ('{"topic_id": "t1"}', "malformed gold standard: missing field 'weights'"),
        ('{"topic_id": "\\ud800"}', "malformed gold standard: a string holds a lone surrogate"),
        ("[" * 100_000, "malformed gold standard: "),
    ], ids=["list", "missing-key", "lone-surrogate", "deep-nesting"])
    def test_not_a_gold_document_is_rejected(self, text, message):
        with pytest.raises(GoldStandardError) as caught:
            GoldStandard.from_json(text)
        assert str(caught.value).startswith(message)
