"""JSONL persistence for corpora, and the reader of every JSON input.

File layout: line 1 is a topics record ``{"kind": "topics", "topics":
[...]}``; every following line is one post record ``{"kind": "post",
...}``. Timestamps are ISO-8601 UTC strings ("2018-11-06T00:00:00Z").
Corpus lines, ``--topics``, ``--refs`` and gold files are each decoded by
``read_json``, and their records checked by ``read_fields``.
"""

from __future__ import annotations

import json
import sys
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

REQUIRED = object()  # the default of a field that a record must hold


def _is_strings(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# The kinds of field, each as the words that an error ("field 'x' is not a
# string") and README's corpus format use for it, and its test.
STRING = ("a string", lambda value: type(value) is str)
BOOLEAN = ("a boolean", lambda value: type(value) is bool)
STRINGS = ("a list of strings", _is_strings)
WEIGHTS = ("a map of finite numbers",
           lambda value: type(value) is dict and all(map(_is_finite_number, value.values())))
FAILURES = ("a list of {uri, reason} strings", lambda value: type(value) is list and all(
    type(item) is dict and type(item.get("uri")) is str and type(item.get("reason")) is str for item in value))
TIMESTAMP = ("a valid timestamp", lambda value: type(value) is str)  # then parsed
TOPIC_RECORDS = ("a list of topic records", lambda value: type(value) is list)  # each read by read_topics
URIS = ("a URI or a list of URIs", lambda value: type(value) is str or _is_strings(value))

# Every key a post record may hold, in the order write_corpus writes them.
POST_FIELDS = {
    "kind": (STRING, REQUIRED),
    "id": (STRING, REQUIRED),
    "source": (STRING, REQUIRED),
    "vertical": (STRING, REQUIRED),
    "query": (STRING, REQUIRED),
    "query_kind": (STRING, REQUIRED),
    "topic_id": (STRING, REQUIRED),
    "author": (STRING, REQUIRED),
    "parent_id": (STRING, None),
    "serp_visible": (BOOLEAN, False),
    "created_at": (TIMESTAMP, None),
    "retrieved_at": (TIMESTAMP, REQUIRED),
    "text": (STRING, ""),
    "raw_links": (STRINGS, ()),
    "platform_uri": (STRING, None),
}
# Every key a topic record may hold, in the order write_corpus writes them.
TOPIC_FIELDS = {
    "topic_id": (STRING, REQUIRED),
    "text_query": (STRING, REQUIRED),
    "hashtag_query": (STRING, None),
    "expectation": (STRING, "unexpected"),
    "recurrence": (STRING, "non_recurring"),
    "regularity": (STRING, None),
    "start_definition": (STRING, None),
    "end_definition": (STRING, None),
}
_TOPICS_RECORD = {"kind": (STRING, REQUIRED), "topics": (TOPIC_RECORDS, [])}


class CorpusFormatError(CorpusError):
    """A line in the corpus file is malformed; the message names the file
    and the line."""


def _check_encodable(value, error, where) -> None:
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(f"{where}: a string holds a lone surrogate, which is not UTF-8 text") from exc
    except RecursionError as exc:  # decoded just within the limit, nested one deeper here
        raise error(f"{where}: invalid JSON: {exc}") from exc


def read_input(path: Path) -> str:
    """A JSON input file's text, in which each byte that is not UTF-8 is
    read as a lone surrogate, for ``read_json`` to name."""
    return path.read_text(encoding="utf-8", errors="surrogateescape")


def read_json(text: str, error, where: str, member: str | None = None):
    """The JSON document in ``text`` (as ``read_input`` reads a file).
    Text that is not UTF-8, is not JSON (or nests too deep to decode) or
    escapes a lone surrogate, which no UTF-8 text can hold, raises
    ``error`` naming ``where``; given ``member`` (such as "topic"), a lone
    surrogate in a JSON object is named by its key, too."""
    try:
        text.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate
        value = json.loads(text)
    except UnicodeEncodeError as exc:
        raise error(f"{where}: not UTF-8 text") from exc
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON: {exc}") from exc
    if "\\u" in text:  # only an escape can name a lone surrogate
        if member is not None and type(value) is dict:
            for key, item in value.items():
                _check_encodable([key, item], error, f"{where}: {member} {key!r}")
        _check_encodable(value, error, where)
    return value


def read_fields(record, table: dict, error, where: str) -> dict:
    """The fields of one decoded JSON record, checked against ``table``
    ({field: (kind, default)}). The record must be a JSON object that
    holds no key outside the table and every REQUIRED one. An absent
    field takes its default, a field whose default is None may also be
    null, and every other value must be of its field's kind. Timestamps
    come back parsed. Anything else raises ``error`` naming ``where`` and
    the field."""
    if type(record) is not dict:
        raise error(f"{where}: not a JSON object")
    if not table.keys() >= record.keys():
        unknown = next(name for name in record if name not in table)
        raise error(f"{where}: unknown field {unknown!r}")
    fields = {}
    for name, (kind, default) in table.items():
        value = record.get(name, REQUIRED)  # REQUIRED here: absent
        if value is REQUIRED:
            if default is REQUIRED:
                raise error(f"{where}: missing field {name!r}")
            value = default
        elif value is None and default is None:
            pass
        elif type(value) is not str if kind is STRING else not kind[1](value):
            raise error(f"{where}: field {name!r} is not {kind[0]}")
        elif kind is TIMESTAMP:
            try:
                value = parse_timestamp(value)
            except (ValueError, OverflowError) as exc:
                raise error(f"{where}: field {name!r} is not {kind[0]}: {exc}") from exc
        fields[name] = value
    return fields


def read_topics(records, error, where: str) -> dict[str, TopicSpec]:
    """Topic records (a corpus's topics record holds a list of them, and
    so does a ``--topics`` file) by topic id. A value that is not such a
    list, a record that ``TOPIC_FIELDS`` or ``TopicSpec`` rejects, and a
    duplicate topic id raise ``error`` naming ``where``."""
    if type(records) is not list:
        raise error(f"{where}: not {TOPIC_RECORDS[0]}")
    topics = {}
    for record in records:
        try:
            topic = TopicSpec(**read_fields(record, TOPIC_FIELDS, error, where))
        except CorpusValidationError as exc:
            raise error(f"{where}: {exc}") from exc
        if topic.topic_id in topics:
            raise error(f"{where}: duplicate topic id: {topic.topic_id}")
        topics[topic.topic_id] = topic
    return topics


def load_corpus(path) -> Corpus:
    """Load and validate a corpus from a JSONL file.

    Raises CorpusFormatError (naming the file, the offending line and the
    field) on lines that are not UTF-8 or not JSON and on malformed
    records, and CorpusIntegrityError (naming the file) on broken
    references.
    """
    path = Path(path)
    corpus = Corpus()
    # Each line is read and checked on its own, so that the one that is
    # not UTF-8 text is named.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {line_no}"
            record = read_json(line, CorpusFormatError, where)
            if line_no == 1:
                if type(record) is not dict or record.get("kind") != "topics":
                    raise CorpusFormatError(f"{where}: corpus files must start with a topics record")
                topics = read_fields(record, _TOPICS_RECORD, CorpusFormatError, where)["topics"]
                corpus.topics = read_topics(topics, CorpusFormatError, f"{where}: bad topic record")
                continue
            fields = read_fields(record, POST_FIELDS, CorpusFormatError, where)
            kind = fields.pop("kind")
            if kind != "post":
                raise CorpusFormatError(f"{where}: unexpected record kind {kind!r}")
            try:
                post = Post(**fields)
            except CorpusValidationError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from exc
            if post.id in corpus.posts:
                raise CorpusIntegrityError(f"{where}: duplicate post id: {post.id}")
            corpus.posts[post.id] = post
    try:
        corpus.validate()
    except CorpusIntegrityError as exc:
        raise CorpusIntegrityError(f"{path}: {exc}") from exc
    return corpus


def _to_record(obj, table: dict, **record) -> dict:
    """``record`` followed by ``obj``'s fields in ``table``'s order, less
    those that are None."""
    for name, (kind, _default) in table.items():
        if name in record:
            continue
        value = getattr(obj, name)
        if value is not None:
            record[name] = format_timestamp(value) if kind is TIMESTAMP else value
    return record


def write_corpus(corpus: Corpus, path) -> None:
    """Write a corpus so that load_corpus() round-trips it exactly.

    Topics are sorted by id and posts by post id, so identical corpora
    serialize to identical bytes.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        topics = [_to_record(corpus.topics[tid], TOPIC_FIELDS) for tid in sorted(corpus.topics)]
        fh.write(json.dumps({"kind": "topics", "topics": topics}, ensure_ascii=False) + "\n")
        for post_id in sorted(corpus.posts):
            record = _to_record(corpus.posts[post_id], POST_FIELDS, kind="post")
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
