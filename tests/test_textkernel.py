import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_token_counts
from seedsmith import textkernel
from seedsmith.stopwords import STOPWORDS
from seedsmith.textkernel import IMPLEMENTATION, _pykernel


# The kernel module, as a parameter so that each test's name records the
# implementation it ran on.
@pytest.fixture(params=[_pykernel], ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def kernel(request):
    return request.param


def test_token_counts_basic(kernel):
    assert kernel.token_counts("The cat, the CAT!") == {"the": 2, "cat": 2}


def test_token_counts_drops_short_and_stopwords(kernel):
    counts = kernel.token_counts("a cat on the mat", frozenset({"the", "on"}))
    assert counts == {"cat": 1, "mat": 1}


def test_token_counts_splits_on_underscore_and_punctuation(kernel):
    assert kernel.token_counts("snake_case-kebab") == {"snake": 1, "case": 1, "kebab": 1}


def test_token_counts_unicode(kernel):
    assert kernel.token_counts("Čaj čaj ČAJ") == {"čaj": 3}


def test_token_counts_digits(kernel):
    assert kernel.token_counts("win 2018 draw 2018") == {"win": 1, "2018": 2, "draw": 1}


@given(
    st.text(alphabet="aAbB1_ -.\n\u00e9\u0130\u00df\u4e00", max_size=60),
    st.sets(st.sampled_from(["ab", "a", "the", "b1", "\u00e9a"]), max_size=3),
    st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_token_counts_matches_token_by_token_reference(text, stopwords, min_len):
    got = _pykernel.token_counts(text, frozenset(stopwords), min_len)
    want = reference_token_counts(text, frozenset(stopwords), min_len)
    assert list(got.items()) == list(want.items())


def test_token_counts_order_on_real_text():
    text = "The river flood rose; the RIVER crest, flood-plain and the_levee: 2018 2018 a b"
    got = _pykernel.token_counts(text, STOPWORDS)
    assert list(got.items()) == list(reference_token_counts(text, STOPWORDS).items())


def test_merge_counts(kernel):
    dst = {"cat": 1}
    out = kernel.merge_counts(dst, {"cat": 2, "dog": 1})
    assert out is dst
    assert dst == {"cat": 3, "dog": 1}


def test_sparse_cosine_identical(kernel):
    v = {"a": 0.2, "b": 0.8}
    assert kernel.sparse_cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_sparse_cosine_disjoint_and_empty(kernel):
    assert kernel.sparse_cosine({"a": 1.0}, {"b": 1.0}) == 0.0
    assert kernel.sparse_cosine({}, {"b": 1.0}) == 0.0
    assert kernel.sparse_cosine({}, {}) == 0.0


def test_sparse_cosine_hand_value(kernel):
    got = kernel.sparse_cosine({"a": 0.5, "b": 0.5}, {"a": 1.0})
    assert got == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_selected_implementation_is_reported():
    assert IMPLEMENTATION == "python"
    for name in ("token_counts", "merge_counts", "sparse_cosine"):
        assert getattr(textkernel, name) is getattr(_pykernel, name)
