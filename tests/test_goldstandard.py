import logging
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_topic
from seedsmith.corpus.fetch import Fetcher, FixtureTransport, write_fixture
from seedsmith.goldstandard import (
    GoldStandard,
    GoldStandardError,
    build_gold_standard,
    build_term_vector,
    extract_references,
)
from seedsmith.htmltools import absolute_http_links, parse_html
from seedsmith.pages import digest_page
from seedsmith.stopwords import STOPWORDS


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
        root = parse_html("<div><p>one<p>two<a href='https://a.example/x'>x</div>")
        assert absolute_http_links(root) == ["https://a.example/x"]

    def test_stray_end_tags_ignored(self):
        root = parse_html("</div><p>ok</p></span>")
        assert root.text() == "ok"


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

    def test_all_script_page_is_empty_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            digest = digest_page(b"<html><body><script>var x=1;</script></body></html>")
        assert (digest.text, digest.text_error) == ("", None)
        assert any("no main-content" in r.message for r in caplog.records)

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

    def test_internal_only_page_is_empty(self, caplog):
        page = '<html><body><p><a href="/wiki/One">1</a></p></body></html>'
        with caplog.at_level(logging.WARNING):
            assert extract_references(page_result(page)) == []
        assert any("no references" in r.message for r in caplog.records)

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
