import math

import pytest

from seedsmith import textkernel
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
