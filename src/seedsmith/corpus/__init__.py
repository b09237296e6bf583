"""Corpus data model, JSONL persistence, and the polite fetch layer."""

from .fetch import (
    FetchError,
    FetchPolicy,
    FetchResult,
    Fetcher,
    FixtureTransport,
    HttpTransport,
    TransportError,
    fixture_filename,
    write_fixture,
)
from .jsonl import CorpusFormatError, load_corpus, write_corpus
from .model import (
    Corpus,
    CorpusError,
    CorpusIntegrityError,
    CorpusValidationError,
    Post,
    TopicSpec,
    build_corpus,
    format_timestamp,
    parse_timestamp,
)
from .threads import FixtureThreadAdapter, ThreadAdapterError, expand_thread

__all__ = [
    "Corpus",
    "CorpusError",
    "CorpusFormatError",
    "CorpusIntegrityError",
    "CorpusValidationError",
    "FetchError",
    "FetchPolicy",
    "FetchResult",
    "Fetcher",
    "FixtureThreadAdapter",
    "FixtureTransport",
    "HttpTransport",
    "Post",
    "ThreadAdapterError",
    "TopicSpec",
    "TransportError",
    "build_corpus",
    "expand_thread",
    "fixture_filename",
    "format_timestamp",
    "load_corpus",
    "parse_timestamp",
    "write_corpus",
    "write_fixture",
]
