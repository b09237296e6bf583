"""JSONL persistence for corpora.

File layout: line 1 is a topics record ``{"kind": "topics", "topics":
[...]}``; every following line is one post record ``{"kind": "post",
...}``. Timestamps are ISO-8601 UTC strings ("2018-11-06T00:00:00Z").
"""

from __future__ import annotations

import json
from pathlib import Path

from .model import (
    Corpus,
    CorpusError,
    CorpusIntegrityError,
    CorpusValidationError,
    Post,
    TopicSpec,
    format_timestamp,
    parse_timestamp,
)

_POST_FIELDS = (
    "id",
    "source",
    "vertical",
    "query",
    "query_kind",
    "topic_id",
    "author",
    "parent_id",
    "serp_visible",
    "created_at",
    "retrieved_at",
    "text",
    "raw_links",
    "platform_uri",
)
_TOPIC_FIELDS = (
    "topic_id",
    "text_query",
    "hashtag_query",
    "expectation",
    "recurrence",
    "regularity",
    "start_definition",
    "end_definition",
)


class CorpusFormatError(CorpusError):
    """A line in the corpus file is malformed; the message names the file
    and the line."""


def check_encodable(value) -> None:
    """Raise ValueError if a decoded JSON value holds a lone surrogate,
    which a \\u escape can name but no UTF-8 text can hold."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError("a string holds a lone surrogate, which is not UTF-8 text") from exc


def _post_to_record(post: Post) -> dict:
    record = {"kind": "post"}
    for name in _POST_FIELDS:
        value = getattr(post, name)
        if value is None:
            continue
        if name in ("created_at", "retrieved_at"):
            value = format_timestamp(value)
        elif name == "raw_links":
            value = list(value)
        record[name] = value
    return record


def _topic_to_record(topic: TopicSpec) -> dict:
    return {
        name: getattr(topic, name)
        for name in _TOPIC_FIELDS
        if getattr(topic, name) is not None
    }


def _record_to_post(record: dict, where: str) -> Post:
    def require(name):
        if name not in record:
            raise CorpusFormatError(f"{where}: missing field '{name}'")
        return record[name]

    def timestamp(name, required):
        value = record.get(name)
        if value is None:
            if required:
                raise CorpusFormatError(f"{where}: missing field '{name}'")
            return None
        try:
            return parse_timestamp(value)
        except (ValueError, TypeError) as exc:
            raise CorpusFormatError(
                f"{where}: field '{name}' is not a valid timestamp: {exc}"
            ) from exc

    raw_links = record.get("raw_links", [])
    if not isinstance(raw_links, list):
        raise CorpusFormatError(f"{where}: field 'raw_links' must be a list")
    try:
        return Post(
            id=require("id"),
            source=require("source"),
            vertical=require("vertical"),
            query=require("query"),
            query_kind=require("query_kind"),
            topic_id=require("topic_id"),
            author=require("author"),
            retrieved_at=timestamp("retrieved_at", required=True),
            text=record.get("text", ""),
            raw_links=tuple(raw_links),
            parent_id=record.get("parent_id"),
            serp_visible=bool(record.get("serp_visible", False)),
            created_at=timestamp("created_at", required=False),
            platform_uri=record.get("platform_uri"),
        )
    except CorpusValidationError as exc:
        raise CorpusFormatError(f"{where}: {exc}") from exc


def _record_to_topic(record: dict, where: str) -> TopicSpec:
    try:
        return TopicSpec(**{k: record.get(k) for k in _TOPIC_FIELDS if k in record})
    except (CorpusError, TypeError) as exc:
        raise CorpusFormatError(f"{where}: bad topic record: {exc}") from exc


def load_corpus(path) -> Corpus:
    """Load and validate a corpus from a JSONL file.

    Raises CorpusFormatError (naming the file, the offending line and the
    field) on lines that are not UTF-8 or not JSON and on malformed
    records, and CorpusIntegrityError (naming the file) on broken
    references.
    """
    path = Path(path)
    corpus = Corpus()
    # Bytes that are not UTF-8 are read as lone surrogates, which do not
    # encode back, so each line is checked on its own and named.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            try:
                line.encode("utf-8")
                record = json.loads(line)
                if "\\u" in line:  # only an escape can name a lone surrogate
                    check_encodable(record)
            except UnicodeEncodeError as exc:
                raise CorpusFormatError(f"{where}: not UTF-8 text") from exc
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{where}: invalid JSON: {exc}") from exc
            except ValueError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{where}: record must be a JSON object")
            kind = record.get("kind")
            if line_no == 1:
                if kind != "topics":
                    raise CorpusFormatError(
                        f"{where}: corpus files must start with a topics record"
                    )
                for topic_rec in record.get("topics", []):
                    topic = _record_to_topic(topic_rec, where)
                    if topic.topic_id in corpus.topics:
                        raise CorpusFormatError(
                            f"{where}: duplicate topic id: {topic.topic_id}"
                        )
                    corpus.topics[topic.topic_id] = topic
                continue
            if kind != "post":
                raise CorpusFormatError(
                    f"{where}: unexpected record kind {kind!r}"
                )
            post = _record_to_post(record, where)
            if post.id in corpus.posts:
                raise CorpusIntegrityError(
                    f"{where}: duplicate post id: {post.id}"
                )
            corpus.posts[post.id] = post
    try:
        corpus.validate()
    except CorpusIntegrityError as exc:
        raise CorpusIntegrityError(f"{path}: {exc}") from exc
    return corpus


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus so that load_corpus() round-trips it exactly.

    Topics are sorted by id and posts by post id, so identical corpora
    serialize to identical bytes.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        topics = [
            _topic_to_record(corpus.topics[tid]) for tid in sorted(corpus.topics)
        ]
        fh.write(json.dumps({"kind": "topics", "topics": topics}, ensure_ascii=False))
        fh.write("\n")
        for post_id in sorted(corpus.posts):
            fh.write(json.dumps(_post_to_record(corpus.posts[post_id]), ensure_ascii=False))
            fh.write("\n")
