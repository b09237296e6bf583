"""Hot text kernels: token counting and sparse cosine, in pure Python.

``IMPLEMENTATION`` names the kernel in every run's manifest.
"""

import math
import re
from collections import Counter

IMPLEMENTATION = "python"

# One token = a maximal run of Unicode alphanumerics: \w is exactly
# str.isalnum() plus "_", so once every "_" is a space, \w runs are the
# alphanumeric runs ([^\W_] runs), and \w is the faster class to match.
# With a minimum length the greedy match still takes whole runs only: a
# run too short at its start is too short from any later position.
_TOKEN_PATTERN = r"\w{%d,}"


def token_counts(text, stopwords=frozenset(), min_len=2):
    """Count tokens in ``text`` after lowercasing, dropping short tokens
    and stopwords. Returns a term -> count dict, in first-seen order."""
    counts = Counter(re.findall(_TOKEN_PATTERN % max(min_len, 1), text.lower().replace("_", " ")))
    for term in stopwords.intersection(counts):
        del counts[term]
    return counts


def sparse_cosine(a, b, b_norm=None):
    """Cosine similarity of two sparse term->weight mappings.

    Either mapping empty yields 0.0. Iterates the smaller mapping for the
    dot product; the result is invariant under positive rescaling of
    either vector. ``b_norm`` is ``norm(b)``, when already known.
    """
    if not a or not b:
        return 0.0
    small, large = (b, a) if len(b) < len(a) else (a, b)
    dot = 0.0
    for term, ws in small.items():
        wl = large.get(term)
        if wl is not None:
            dot += ws * wl
    if dot == 0.0:
        return 0.0
    return dot / (norm(a) * (norm(b) if b_norm is None else b_norm))


def norm(vector) -> float:
    """Euclidean norm of a term->weight mapping, squares summed in order."""
    total = 0.0
    for weight in vector.values():
        total += weight * weight
    return math.sqrt(total)
