import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_post, make_topic
from seedsmith.corpus.jsonl import (
    POST_FIELDS,
    REQUIRED,
    TOPIC_FIELDS,
    CorpusFormatError,
    load_corpus,
    read_json,
    write_corpus,
)
from seedsmith.corpus.model import CorpusIntegrityError, CorpusValidationError, Post, TopicSpec


def write_lines(path, *records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


TOPICS_LINE = {
    "kind": "topics",
    "topics": [{"topic_id": "t1", "text_query": "river flood"}],
}


def post_record(**overrides):
    record = {
        "kind": "post",
        "id": "p1",
        "source": "reddit",
        "vertical": "top",
        "query": "river flood",
        "query_kind": "text",
        "topic_id": "t1",
        "author": "alice",
        "serp_visible": True,
        "retrieved_at": "2018-11-06T00:00:00Z",
        "text": "hello",
        "raw_links": [],
    }
    record.update(overrides)
    return record


class TestLoad:
    def test_two_valid_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            TOPICS_LINE,
            post_record(),
            post_record(id="p2", serp_visible=False, parent_id="p1"),
        )
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert corpus.posts["p2"].parent_id == "p1"
        assert corpus.posts["p1"].retrieved_at == datetime(2018, 11, 6, tzinfo=timezone.utc)

    def test_dangling_parent_names_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, TOPICS_LINE, post_record(serp_visible=False, parent_id="ghost"))
        with pytest.raises(CorpusIntegrityError, match="p1"):
            load_corpus(path)

    def test_serp_visible_with_parent_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, TOPICS_LINE, post_record(), post_record(id="p2", parent_id="p1"))
        with pytest.raises(CorpusFormatError, match="serp_visible"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, TOPICS_LINE, post_record(), post_record())
        with pytest.raises(CorpusIntegrityError, match="duplicate post id: p1"):
            load_corpus(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(TOPICS_LINE) + "\n{nope\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = post_record()
        del record["retrieved_at"]
        write_lines(path, TOPICS_LINE, record)
        with pytest.raises(CorpusFormatError, match="retrieved_at"):
            load_corpus(path)

    def test_missing_topics_header(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, post_record())
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_unknown_topic_reference(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, TOPICS_LINE, post_record(topic_id="t9"))
        with pytest.raises(CorpusIntegrityError, match="t9"):
            load_corpus(path)

    def test_parent_in_other_source_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            TOPICS_LINE,
            post_record(),
            post_record(id="p2", source="twitter", serp_visible=False, parent_id="p1"),
        )
        with pytest.raises(CorpusIntegrityError, match="different"):
            load_corpus(path)


class TestWrite:
    def test_empty_corpus_is_topics_line_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_corpus(make_corpus([], topics=[make_topic()]), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "topics"

    def test_three_posts_three_lines_stable_order(self, tmp_path):
        posts = [
            make_post(id="b", serp_visible=True),
            make_post(id="a", serp_visible=True),
            make_post(id="c", serp_visible=True),
        ]
        path = tmp_path / "c.jsonl"
        write_corpus(make_corpus(posts), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(l)["id"] for l in lines[1:]] == ["a", "b", "c"]
        write_corpus(make_corpus(list(reversed(posts))), tmp_path / "d.jsonl")
        assert (tmp_path / "d.jsonl").read_bytes() == path.read_bytes()

    def test_round_trip_two_posts(self, tmp_path):
        corpus = make_corpus(
            [
                make_post(id="p1", serp_visible=True, text="naïve café ☕"),
                make_post(
                    id="p2",
                    parent_id="p1",
                    author="bob",
                    created_at=datetime(2018, 11, 1, 12, 30, tzinfo=timezone.utc),
                    raw_links=("https://a.example/x",),
                    platform_uri="https://reddit.com/r/x/comments/p2",
                ),
            ]
        )
        path = tmp_path / "c.jsonl"
        write_corpus(corpus, path)
        assert load_corpus(path) == corpus


# Text strategy covers non-ASCII and JSON-hostile characters.
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60
)


@given(_texts, _texts)
@settings(max_examples=50, deadline=None)
def test_round_trip_random_unicode(tmp_path_factory, text, author):
    corpus = make_corpus(
        [make_post(id="p1", serp_visible=True, text=text, author=author or "anon")]
    )
    path = tmp_path_factory.mktemp("rt") / "c.jsonl"
    write_corpus(corpus, path)
    assert load_corpus(path) == corpus
    assert load_corpus(path).posts["p1"].text == text


def test_post_validation_rejects_bad_query_kind():
    with pytest.raises(CorpusValidationError, match="query_kind"):
        make_post(query_kind="voice")


README = Path(__file__).parents[1] / "README.md"


def test_readme_corpus_format_names_every_field():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Corpus format"):]
    section = section[:section.index("\n## ")]
    assert [name for name in [*POST_FIELDS, *TOPIC_FIELDS] if f"`{name}`" not in section] == []


@pytest.mark.parametrize("cls, table", [(Post, POST_FIELDS), (TopicSpec, TOPIC_FIELDS)])
def test_table_defaults_are_the_record_defaults(cls, table):
    defaults = {name: cls._field_defaults.get(name, REQUIRED) for name in cls._fields}
    assert defaults == {name: default for name, (_kind, default) in table.items() if name != "kind"}
    # Building a record checks its fields in its own ``__new__``, whose
    # defaults must be the declared ones.
    sample = make_post() if cls is Post else make_topic()
    built = cls(**{name: getattr(sample, name) for name in cls._fields if name not in cls._field_defaults})
    assert built._asdict() == {**sample._asdict(), **cls._field_defaults}


def test_nesting_at_the_decoders_limit_is_one_error():
    # Nesting that decodes just within the recursion limit can be one
    # level too deep for the check for lone surrogates.
    limit = sys.getrecursionlimit()
    for depth in range(limit - 300, limit + 1):
        try:
            read_json("[" * depth + '"\\u0041"' + "]" * depth, CorpusFormatError, "here", member="topic")
        except CorpusFormatError as exc:
            assert str(exc).startswith("here: invalid JSON: maximum recursion depth exceeded")
