"""The text kernels: token counting, count merging and sparse cosine."""

import math
import re
from collections import Counter

# One token = a maximal run of Unicode alphanumerics: \w minus underscore
# matches exactly the characters str.isalnum() accepts. With a minimum
# length the greedy match still takes whole runs only: a run too short
# at its start is too short from any later position.
_TOKEN_PATTERN = r"[^\W_]{%d,}"


def token_counts(text, stopwords=frozenset(), min_len=2):
    """Count tokens in ``text`` after lowercasing, dropping short tokens
    and stopwords. Returns a term -> count dict, in first-seen order."""
    counts = Counter(re.findall(_TOKEN_PATTERN % max(min_len, 1), text.lower()))
    for term in stopwords.intersection(counts):
        del counts[term]
    return counts


def merge_counts(dst, src):
    """Add ``src`` counts into ``dst`` in place and return ``dst``."""
    for term, n in src.items():
        dst[term] = dst.get(term, 0) + n
    return dst


def sparse_cosine(a, b):
    """Cosine similarity of two sparse term->weight mappings.

    Either mapping empty yields 0.0. Iterates the smaller mapping for the
    dot product; the result is invariant under positive rescaling of
    either vector.
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = 0.0
    for term, wa in a.items():
        wb = b.get(term)
        if wb is not None:
            dot += wa * wb
    if dot == 0.0:
        return 0.0
    norm_a = 0.0
    for wa in a.values():
        norm_a += wa * wa
    norm_b = 0.0
    for wb in b.values():
        norm_b += wb * wb
    return dot / (math.sqrt(norm_a) * math.sqrt(norm_b))
