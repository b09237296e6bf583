#!/usr/bin/env python3
"""Benchmark the text kernels.

Times the two hot operations on synthetic news-like documents: token
counting (tokenize + filter + count) and sparse cosine between term
vectors. One leaf function each, so not evidence for end-to-end time.
Run after an editable install:

    python benchmarks/bench_textkernel.py [--docs 200] [--words 800] [--repeat 5]
"""

import argparse
import random
import time

from seedsmith.stopwords import STOPWORDS
from seedsmith.textkernel import sparse_cosine, token_counts

VOCAB = (
    "flood river levee water rainfall evacuation crest rescue damage bridge "
    "eclipse solar corona totality shadow moon viewing astronomy telescope "
    "strike rail union workers trains negotiation walkout commuters service "
    "the of and to in a is that for on with as by at from it this are was "
    "2018 2014 report update coverage photos story analysis details numbers"
).split()


def make_docs(n_docs, words_per_doc, seed=7):
    rng = random.Random(seed)
    return [
        " ".join(rng.choice(VOCAB) for _ in range(words_per_doc))
        for _ in range(n_docs)
    ]


def bench(label, fn, repeat):
    best = min(_timed(fn) for _ in range(repeat))
    print(f"{label:<52} {best * 1000:9.2f} ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--docs", type=int, default=200)
    parser.add_argument("--words", type=int, default=800)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    docs = make_docs(args.docs, args.words)
    print(f"corpus: {args.docs} docs x {args.words} words, best of {args.repeat}")

    bench("token_counts (tokenize + stopword filter + count)",
          lambda: [token_counts(d, STOPWORDS) for d in docs], args.repeat)
    vectors = [token_counts(d, STOPWORDS) for d in docs]
    gold = token_counts(" ".join(docs[: args.docs // 4]), STOPWORDS)
    bench("sparse_cosine (every doc vs one large vector)",
          lambda: [sparse_cosine(v, gold) for v in vectors], args.repeat)


if __name__ == "__main__":
    main()
