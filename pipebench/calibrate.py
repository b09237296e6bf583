"""A fixed piece of pure-Python work that measures how fast the machine is now.

    python3 pipebench/calibrate.py

On a shared virtual machine the same run can take from 1.4 to 2.5 s
within a few minutes, because neighbours on the host slow the core down
for seconds to minutes at a time. ``measure`` times this script as a
fresh process, from spawn to exit: work of the same kind as the
program's (start-up and imports, then ``html.parser``, regular
expressions, dicts and sorting over 1.3 MB of generated pages;
the standard library only, nothing of seedsmith, so that no change to
the program moves it). The benchmark runs it on the same core as the
program, just before and just after each run, and scales the run's times
by ``REFERENCE_S`` over the calibration's time: what the run would have
taken on a core on which the calibration takes ``REFERENCE_S``.
"""

from __future__ import annotations

import subprocess
import sys
import time

REFERENCE_S = 0.18  # the calibration's time on a quiet 2.1 GHz Xeon core, Python 3.11


def work() -> int:
    import random
    import re
    from collections import Counter
    from html.parser import HTMLParser

    class Text(HTMLParser):
        def __init__(self):
            super().__init__()
            self.text: list[str] = []
            self.tags = 0

        def handle_starttag(self, tag, attrs):
            self.tags += 1

        def handle_data(self, data):
            self.text.append(data)

    rng = random.Random(20181105)
    words = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 10)))
             for _ in range(8000)]
    token = re.compile(r"[a-z]+")
    vocabulary: dict[str, int] = {}
    tags = 0
    for page in range(14):
        doc = "<html><body>" + "".join(
            f"<div class='c{i % 7}'><p>{' '.join(rng.choices(words, k=60))}</p>"
            f"<a href='/p/{page}/{i}'>more</a></div>"
            for i in range(200)
        ) + "</body></html>"
        parser = Text()
        parser.feed(doc)
        parser.close()
        tags += parser.tags
        for word, n in Counter(token.findall(" ".join(parser.text).lower())).items():
            vocabulary[word] = vocabulary.get(word, 0) + n
    top = sorted(vocabulary.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    return tags + len(top)


def measure() -> float:
    """Seconds from spawning this script to its exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    work()
