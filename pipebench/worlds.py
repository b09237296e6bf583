"""Seeded synthetic fixture worlds for the pipeline benchmark.

A world is a directory the program reads and nothing else:

- ``corpus.jsonl``: every post (for ``threads`` it is the recorded
  replies file, which also holds the SERP roots);
- ``serp.jsonl`` (``threads`` only): the SERP-visible roots the run
  starts from before ``--replies`` grows them;
- ``responses/``: one offline fixture per fetched URI;
- ``refs.json``: the reference entry of every topic.

Corpora are written through ``write_corpus`` and fixtures through
``write_fixture``, so the files have exactly the form the program reads.
The same (workload, seed) always gives the same bytes. Sizes are fixed per
workload; the seed changes the words, the links and the tree shapes.

Worlds stay inside what ``tools/regen_golden.py`` recomputes: non-HTML
links end in ``.pdf``, ``.xlsx`` or ``.mp4``; no fixture redirects; every
HTML URI a post can reach has a 200 fixture; ids and URIs hold no commas
or quotes; ``retrieved_at`` is midnight UTC (the recompute counts ages in
whole days); permalink pages hold only absolute ``<a href>`` links.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

from seedsmith.corpus.fetch import write_fixture
from seedsmith.corpus.jsonl import write_corpus
from seedsmith.corpus.model import Post, TopicSpec, build_corpus
from seedsmith.extraction import canonicalize
from seedsmith.stopwords import STOPWORDS

DATE_HEADER = "Thu, 08 Nov 2018 12:00:00 GMT"
RETRIEVAL_DAYS = (date(2018, 11, 5), date(2018, 11, 6), date(2018, 11, 7))
FIRST_CREATED = datetime(2018, 10, 1, tzinfo=timezone.utc)
NON_HTML_EXTENSIONS = (".pdf", ".xlsx", ".mp4")
DATE_STYLES = ("meta", "jsonld", "path", "last-modified")
SECTIONS = ("news", "world", "local", "politics", "science", "business", "weather")
FILLER = "the of and to in a is that for on with as by at from it this are was".split()

# Chain depth of the deep-chain probe: one author, one SERP root and its
# replies, each answering the previous post.
PROBE_CHAIN_POSTS = 1200


@dataclass(frozen=True)
class World:
    """Paths of a generated world and the generator's own counts."""

    root: Path
    corpus: Path  # --corpus
    replies: Path | None  # --replies
    fixtures: Path
    refs: Path
    posts: int  # posts the run holds after thread expansion
    topics: int
    html_pages: int  # HTML fixtures written


class Lexicon:
    """Synthetic words: a shared general vocabulary and one per topic.

    Words are drawn with Zipf-like weights so term frequencies look like
    text; topic words make on-topic pages clear the relevance threshold.
    """

    def __init__(self, rng: random.Random, topics: int, topic_words: int = 40,
                 general_words: int = 500):
        taken: set[str] = set(STOPWORDS)
        self.general = _words(rng, general_words, taken)
        self.topic = [_words(rng, topic_words, taken) for _ in range(topics)]
        self._gw = [1.0 / (i + 1) for i in range(general_words)]
        self._tw = [1.0 / (i + 1) ** 0.8 for i in range(topic_words)]

    def text(self, rng: random.Random, n: int, topic: int | None, share: float = 0.6) -> str:
        """``n`` words; ``share`` of them from ``topic`` when one is given."""
        n_topic = round(n * share) if topic is not None else 0
        words = rng.choices(self.general, self._gw, k=n - n_topic)
        if n_topic:
            words += rng.choices(self.topic[topic], self._tw, k=n_topic)
        rng.shuffle(words)
        for i in range(0, len(words), 7):
            words[i] = f"{words[i]} {rng.choice(FILLER)}"
        return " ".join(words)

    def title(self, rng: random.Random, topic: int | None) -> str:
        return self.text(rng, 6, topic, 0.5).title()


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    onsets = "b c d f g h j k l m n p r s t v w z br cr dr gr pl st tr".split()
    vowels = "a e i o u ai ea io".split()
    out = []
    while len(out) < n:
        word = "".join(
            rng.choice(onsets) + rng.choice(vowels) for _ in range(rng.randint(2, 3))
        ) + rng.choice(("", "n", "r", "s", "l"))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


# -- pages ------------------------------------------------------------------


def news_page(rng: random.Random, lex: Lexicon, host: str, topic: int | None,
              paragraphs: int, date_style: str, published: date) -> tuple[bytes, dict]:
    """A news article with header, nav, aside, footer and script boilerplate.

    The publication date sits where ``date_style`` says: a meta tag,
    JSON-LD, the URI path (nothing in the page), or only Last-Modified.
    """
    title = lex.title(rng, topic)
    head_date = ""
    headers = {}
    stamp = f"{published.isoformat()}T08:{rng.randint(10, 59)}:00Z"
    if date_style == "meta":
        head_date = f'<meta property="article:published_time" content="{stamp}">'
    elif date_style == "jsonld":
        head_date = (
            '<script type="application/ld+json">{"@context": "https://schema.org", '
            f'"@type": "NewsArticle", "headline": "{title}", "datePublished": "{stamp}"}}'
            "</script>"
        )
    if date_style == "last-modified":
        headers["Last-Modified"] = _http_date(published)
    nav = "".join(
        f'<li><a href="https://{host}/{s}">{s.title()}</a></li>' for s in SECTIONS
    )
    aside = "".join(
        f'<li><a href="https://{host}/{rng.choice(SECTIONS)}/{rng.randint(1000, 99999)}">'
        f"{lex.title(rng, None)}</a></li>"
        for _ in range(6)
    )
    body = "".join(
        f"<p>{lex.text(rng, rng.randint(55, 85), topic)}</p>\n" for _ in range(paragraphs)
    )
    html = f"""<!doctype html>
<html lang="en"><head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{title} | {host}</title>
{head_date}
<link rel="stylesheet" href="https://static.{host}/css/site.css">
<style>.layout{{display:flex}} .sidebar{{width:30%}} .byline{{color:#555}}</style>
<script>window.dataLayer=window.dataLayer||[];function gtag(){{dataLayer.push(arguments);}}
gtag("js",new Date());gtag("config","UA-{rng.randint(100000, 999999)}-1");</script>
</head>
<body>
<header class="site-header"><a href="https://{host}/">{host}</a> <span>Subscribe</span> <span>Sign in</span></header>
<nav class="main-nav"><ul>{nav}</ul></nav>
<div class="layout">
<main><article>
<h1>{title}</h1>
<p class="byline">By {lex.title(rng, None)[:24]}</p>
{body}</article></main>
<aside class="sidebar"><h3>Most read</h3><ul>{aside}</ul><div class="ad">Advertisement</div></aside>
</div>
<footer class="site-footer"><p>Copyright 2018 {host}. All rights reserved.</p>
<a href="https://{host}/privacy">Privacy</a> <a href="https://{host}/terms">Terms</a> <a href="https://{host}/contact">Contact</a></footer>
<script>(function(){{var s=document.createElement("script");s.async=true;s.src="https://cdn.{host}/track.js";document.body.appendChild(s);}})();</script>
</body></html>
"""
    return html.encode("utf-8"), headers


def small_page(rng: random.Random, lex: Lexicon, host: str, topic: int | None,
               published: date) -> tuple[bytes, dict]:
    """A short page: one paragraph, a nav bar and a footer; dated by Last-Modified."""
    html = f"""<!doctype html>
<html><head><meta charset="utf-8"><title>{lex.title(rng, topic)}</title></head>
<body><nav><a href="https://{host}/">Home</a> <a href="https://{host}/about">About</a></nav>
<div class="post"><p>{lex.text(rng, rng.randint(40, 70), topic)}</p></div>
<footer>{host}</footer></body></html>
"""
    return html.encode("utf-8"), {"Last-Modified": _http_date(published)}


def permalink_page(rng: random.Random, lex: Lexicon, topic: int, links: list[str]) -> bytes:
    """A platform post page whose only anchors are the links it holds."""
    anchors = " ".join(f'<a href="{link}">{link}</a>' for link in links)
    return (
        '<!doctype html><html><head><meta charset="utf-8"><title>Post</title></head>'
        f"<body><div class=\"tweet\"><p>{lex.text(rng, 25, topic)}</p><p>{anchors}</p></div>"
        "</body></html>\n"
    ).encode("utf-8")


def reference_page(host: str, title: str, body: str, external: list[str]) -> bytes:
    """An encyclopedia-style page with one ``references`` list."""
    items = "".join(f'<li><a href="{uri}" class="external">{uri}</a></li>' for uri in external)
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title></head>
<body>
<nav><a href="https://{host}/">Main page</a> <a href="https://{host}/wiki/Random">Random</a></nav>
<div class="content"><p>{body} <a href="/wiki/Context">context</a>
<a href="https://{host}/wiki/Timeline">timeline</a></p></div>
<h2>References</h2>
<div class="references">
<ol>
{items}
<li><a href="/wiki/Note">note</a></li>
</ol>
</div>
</body></html>
""".encode("utf-8")


def _http_date(day: date) -> str:
    return datetime(day.year, day.month, day.day, 8, 0, tzinfo=timezone.utc).strftime(
        "%a, %d %b %Y %H:%M:%S GMT"
    )


# -- world assembly -----------------------------------------------------------


class Deck:
    """Draws indices of ``weights`` in exact proportions.

    Every block of ``sum(weights)`` draws holds index i exactly
    ``weights[i]`` times, shuffled. Totals over a world therefore hardly
    move with the seed, so every seed asks the program for the same work.
    """

    def __init__(self, rng: random.Random, weights: tuple[int, ...]):
        self.rng = rng
        self.block = [i for i, w in enumerate(weights) for _ in range(w)]
        self.left: list[int] = []

    def draw(self) -> int:
        if not self.left:
            self.left = self.block[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


class _Builder:
    """Accumulates posts and fixtures, then writes them out."""

    def __init__(self, workload: str, seed: int, root: Path, topics: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.root = root
        self.fixtures = root / "responses"
        self.lex = Lexicon(self.rng, topics)
        self.topics = [
            TopicSpec(
                topic_id=f"t{i:03d}",
                text_query=" ".join(self.lex.topic[i][:2]),
                hashtag_query="#" + self.lex.topic[i][0],
                expectation=("expected", "unexpected")[i % 2],
                recurrence=("recurring", "non_recurring")[(i // 2) % 2],
                start_definition="2018-09-01",
                end_definition="undefined",
            )
            for i in range(topics)
        ]
        self.posts: list[Post] = []
        self.html_pages = 0
        self._clock = FIRST_CREATED
        self._ids = 0
        self._decks: dict[str, Deck] = {}
        self.hosts = [f"{w}-{kind}.example" for w, kind in zip(
            self.lex.general[:60], ("news", "times", "daily", "post", "herald", "wire") * 10
        )]

    def pick(self, name: str, weights: tuple[int, ...]) -> int:
        """Index drawn from the named Deck of ``weights``."""
        deck = self._decks.get(name)
        if deck is None:
            deck = self._decks[name] = Deck(self.rng, weights)
        return deck.draw()

    def write_html(self, uri: str, body: bytes, headers: dict) -> str:
        canonical = canonicalize(uri)
        all_headers = {"Content-Type": "text/html; charset=utf-8", "Date": DATE_HEADER}
        all_headers.update(headers)
        write_fixture(self.fixtures, canonical, 200, all_headers, body)
        self.html_pages += 1
        return canonical

    def news(self, topic: int | None, paragraphs: int) -> str:
        """Write one news page and return the URI posts link it by."""
        rng = self.rng
        host = rng.choice(self.hosts)
        style = DATE_STYLES[self.pick("date-style", (7, 5, 5, 3))]
        if self.pick("postdated", (1, 32)) == 0:
            # An estimate that postdates retrieval; the program flags and drops it.
            age_days = -rng.randint(1, 60)
        else:
            age_days = rng.randint(0, rng.choice((30, 400, 2000)))
        published = RETRIEVAL_DAYS[0] - timedelta(days=age_days)
        slug = "-".join(self.lex.title(rng, topic).lower().split()[:4])
        if style == "path":
            path = f"/{published:%Y/%m/%d}/{slug}"
        else:
            path = f"/{rng.choice(SECTIONS)}/{slug}-{rng.randint(10000, 999999)}"
        body, headers = news_page(rng, self.lex, host, topic, paragraphs, style, published)
        return self.write_html(f"https://{host}{path}", body, headers)

    def small(self, topic: int | None) -> str:
        rng = self.rng
        host = rng.choice(self.hosts)
        published = RETRIEVAL_DAYS[0] - timedelta(days=rng.randint(0, 900))
        body, headers = small_page(rng, self.lex, host, topic, published)
        return self.write_html(f"https://{host}/p/{rng.randint(10**6, 10**7)}", body, headers)

    def non_html(self) -> str:
        rng = self.rng
        ext = rng.choice(NON_HTML_EXTENSIONS)
        return f"https://{rng.choice(self.hosts)}/files/{rng.choice(self.lex.general)}-{rng.randint(1, 99999)}{ext}"

    def post(self, topic: int, source: str, vertical: str, author: str, links: list[str],
             parent: Post | None = None, retrieved: date | None = None) -> Post:
        rng = self.rng
        self._ids += 1
        self._clock += timedelta(seconds=rng.randint(1, 90))
        if parent is not None:
            retrieved_at = parent.retrieved_at
        else:
            day = retrieved or rng.choice(RETRIEVAL_DAYS)
            retrieved_at = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
        text = self.lex.text(rng, rng.randint(8, 24), topic, 0.4)
        # Some links carry the tracking parameters canonicalization strips.
        links = [f"{u}?utm_source=social&utm_medium=post" if rng.random() < 0.2 else u
                 for u in links]
        raw_links: tuple[str, ...] = ()
        if source == "twitter":
            # Tweets carry their links in the text.
            text = " ".join([text] + links) + rng.choice(("", ".", " #" + self.lex.topic[topic][0]))
        else:
            raw_links = tuple(links)
        pid = f"p{self._ids:06d}"
        kind = "hashtag" if rng.random() < 0.3 else "text"
        spec = self.topics[topic]
        post = Post(
            id=pid,
            source=source,
            vertical=vertical if parent is None else parent.vertical,
            query=spec.hashtag_query if kind == "hashtag" else spec.text_query,
            query_kind=kind,
            topic_id=spec.topic_id,
            author=author,
            retrieved_at=retrieved_at,
            text=text,
            raw_links=raw_links,
            parent_id=parent.id if parent is not None else None,
            serp_visible=parent is None,
            created_at=self._clock,
            platform_uri=f"https://{source}.example/{pid}",
        )
        self.posts.append(post)
        return post

    def finish(self, refs: dict, serp_only: bool = False) -> World:
        self.root.mkdir(parents=True, exist_ok=True)
        self.fixtures.mkdir(parents=True, exist_ok=True)
        full = build_corpus(self.posts, self.topics)
        corpus_path = self.root / "corpus.jsonl"
        write_corpus(full, corpus_path)
        replies = None
        if serp_only:
            replies = corpus_path
            corpus_path = self.root / "serp.jsonl"
            roots = build_corpus([p for p in self.posts if p.serp_visible], self.topics)
            write_corpus(roots, corpus_path)
        refs_path = self.root / "refs.json"
        refs_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return World(self.root, corpus_path, replies, self.fixtures, refs_path,
                     len(self.posts), len(self.topics), self.html_pages)


def _encyclopedia_refs(b: _Builder, per_topic: int) -> dict:
    """One reference-list page per topic, citing on-topic articles."""
    refs = {}
    host = "encyclo.example"
    for i, spec in enumerate(b.topics):
        cited = [b.news(i, 5) for _ in range(per_topic)]
        uri = f"https://{host}/wiki/{spec.topic_id}"
        page = reference_page(host, spec.text_query.title(), b.lex.text(b.rng, 60, i), cited)
        b.write_html(uri, page, {})
        refs[spec.topic_id] = uri
    return refs


# Sizes of each workload's world. A run of the program over one world takes
# 2-3 s on 2 cores, so one benchmark run holds several complete runs.
NEWS_POSTS = 650
MANY_TOPICS = 200
MANY_POSTS_PER_TOPIC = 11
THREAD_DEEP_CHAINS = (300, 375, 450)  # self-reply chain depths, in posts
THREAD_WIDE = tuple(range(70, 161, 5))  # conversation sizes, in replies
THREAD_SMALL = 60
THREAD_SERP_REFERENCE = 16


def news_pages(seed: int, root: Path) -> World:
    """3 topics, short threads, 1-5 mostly distinct large HTML pages per post."""
    b = _Builder("news-pages", seed, root, 3)
    rng = b.rng
    refs = _encyclopedia_refs(b, 6)
    pools: list[list[str]] = [[], [], []]
    cells = (("reddit", ("relevance", "top", "new")), ("twitter", ("top", "latest")),
             ("scoopit", ("scoops",)))
    authors = [f"u{i:04d}" for i in range(600)]

    def links_for(topic: int, k: int) -> list[str]:
        out = []
        for _ in range(k):
            target = b.pick("target", (1, 3, 16))  # non-HTML, seen page, new page
            if target == 0:
                out.append(b.non_html())
            elif target == 1 and pools[topic]:
                out.append(rng.choice(pools[topic]))
            else:
                on_topic = b.pick("on-topic", (13, 7)) == 0
                uri = b.news(topic if on_topic else None, rng.randint(4, 7))
                pools[topic].append(uri)
                out.append(uri)
        return out

    def link_count() -> int:
        return 1 + b.pick("k", (9, 5, 3, 1, 2))

    while len(b.posts) < NEWS_POSTS:
        topic = rng.randrange(3)
        if b.pick("serp", (3, 22)) == 0:
            # Web SERP results: the overlap reference.
            pick = rng.choice(pools[topic]) if pools[topic] and rng.random() < 0.6 \
                else links_for(topic, 1)[0]
            b.post(topic, "google", "web", f"g{rng.randint(1, 99)}", [pick])
            continue
        source, verticals = cells[b.pick("cell", (2, 2, 1))]
        author = rng.choice(authors)
        root_links = links_for(topic, link_count()) if b.pick("root-linked", (4, 1)) == 0 else []
        node = b.post(topic, source, rng.choice(verticals), author, root_links)
        thread = [node]
        for _ in range(min(b.pick("replies", (8, 4, 3, 3, 2)), NEWS_POSTS - len(b.posts))):
            parent = rng.choice(thread)
            who = author if rng.random() < 0.4 else rng.choice(authors)
            links = links_for(topic, link_count()) if b.pick("reply-linked", (3, 2)) == 0 else []
            thread.append(b.post(topic, source, "", who, links, parent=parent))
    return b.finish(refs)


def many_topics(seed: int, root: Path) -> World:
    """200 topics, few links per post, small shared pages, ~40% non-HTML links."""
    b = _Builder("many-topics", seed, root, MANY_TOPICS)
    rng = b.rng
    own = [[b.small(i) for _ in range(2)] for i in range(MANY_TOPICS)]
    generic = [b.small(None) for _ in range(60)]
    refs = {spec.topic_id: own[i] + [b.small(i)] for i, spec in enumerate(b.topics)}
    cells = (("reddit", ("top", "new")), ("twitter", ("top", "latest")), ("scoopit", ("scoops",)))
    authors = [f"u{i:04d}" for i in range(900)]

    def links_for(topic: int) -> list[str]:
        out = []
        for _ in range(1 + b.pick("k", (7, 3))):
            target = b.pick("target", (4, 3, 3))  # non-HTML, own-topic page, shared page
            if target == 0:
                out.append(b.non_html())
            elif target == 1:
                out.append(rng.choice(own[topic]))
            else:
                out.append(rng.choice(generic))
        return list(dict.fromkeys(out))

    for topic in range(MANY_TOPICS):
        start = len(b.posts)
        b.post(topic, "google", "web", f"g{rng.randint(1, 99)}", [rng.choice(own[topic])])
        while len(b.posts) - start < MANY_POSTS_PER_TOPIC:
            source, verticals = cells[b.pick("cell", (2, 2, 1))]
            author = rng.choice(authors)
            linked = b.pick("linked", (3, 2)) == 0
            node = b.post(topic, source, rng.choice(verticals), author,
                          links_for(topic) if linked else [])
            thread = [node]
            replies = b.pick("replies", (11, 6, 3))
            for _ in range(min(replies, MANY_POSTS_PER_TOPIC - (len(b.posts) - start))):
                who = author if rng.random() < 0.35 else rng.choice(authors)
                linked = b.pick("linked", (3, 2)) == 0
                thread.append(b.post(topic, source, "", who,
                                     links_for(topic) if linked else [],
                                     parent=rng.choice(thread)))
    return b.finish(refs)


def threads(seed: int, root: Path) -> World:
    """SERP roots grown into deep self-reply chains and wide conversations.

    Half of the links are twitter status permalinks whose pages hold
    further links, nested so that substitution reaches depth 3.
    """
    b = _Builder("threads", seed, root, 3)
    rng = b.rng
    refs = {spec.topic_id: [b.news(i, 5) for _ in range(5)] for i, spec in enumerate(b.topics)}
    pages = [[b.news(t if b.pick("on-topic", (3, 2)) == 0 else None, rng.randint(3, 5))
              for _ in range(90)] for t in range(3)]
    authors = [f"u{i:04d}" for i in range(300)]

    def status_uri() -> str:
        return f"https://twitter.com/{rng.choice(authors)}/status/{rng.randint(10**15, 10**16)}"

    # Permalink pages by nesting level. Level-0 pages link level-1 pages,
    # which link level-2 pages; a few level-2 pages link a level-0 page,
    # which substitution keeps as a seed at the depth limit.
    statuses: list[list[list[str]]] = [[[], [], []] for _ in range(3)]
    for level in (2, 1, 0):
        for topic in range(3):
            for i in range((40, 20, 10)[level]):
                links = [rng.choice(pages[topic]) for _ in range(1 + b.pick("page-links", (1, 1, 1)))]
                if level < 2 and i % 2 == 0:
                    links.append(rng.choice(statuses[topic][level + 1]))
                uri = status_uri()
                statuses[topic][level].append(uri)
                if level == 2 and i < 3:
                    continue  # written below, once level 0 exists
                b.write_html(uri, permalink_page(rng, b.lex, topic, links), {})
    for topic in range(3):
        for uri in statuses[topic][2][:3]:
            links = [rng.choice(pages[topic]), rng.choice(statuses[topic][0])]
            b.write_html(uri, permalink_page(rng, b.lex, topic, links), {})

    def links_for(topic: int) -> list[str]:
        if b.pick("linked", (9, 11)) != 0:
            return []
        out = []
        for _ in range(1 + b.pick("k", (12, 5, 3))):
            target = b.pick("target", (10, 9, 1))  # permalink, page, non-HTML
            if target == 0:
                out.append(rng.choice(statuses[topic][0]))
            elif target == 1:
                out.append(rng.choice(pages[topic]))
            else:
                out.append(b.non_html())
        return list(dict.fromkeys(out))

    shapes = ([("deep", n) for n in THREAD_DEEP_CHAINS] + [("wide", n) for n in THREAD_WIDE]
              + [("small", i % 7) for i in range(THREAD_SMALL)]
              + [("serp", 0)] * THREAD_SERP_REFERENCE)
    rng.shuffle(shapes)
    for shape, size in shapes:
        topic = rng.randrange(3)
        if shape == "serp":
            b.post(topic, "google", "web", f"g{rng.randint(1, 99)}", [rng.choice(pages[topic])])
            continue
        source, vertical = rng.choice((("twitter", "top"), ("twitter", "latest"),
                                       ("reddit", "comments")))
        author = rng.choice(authors)
        root = b.post(topic, source, vertical, author, links_for(topic))
        thread = [root]
        if shape == "deep":
            tip = root
            for step in range(size):
                tip = b.post(topic, source, "", author, links_for(topic), parent=tip)
                thread.append(tip)
                if step % 12 == 5:
                    thread.append(b.post(topic, source, "", rng.choice(authors),
                                         links_for(topic), parent=tip))
            continue
        for _ in range(size):
            # Replies favour recent posts, so conversations nest a few levels.
            parent = thread[-1 - min(int(rng.expovariate(0.3)), len(thread) - 1)]
            who = author if rng.random() < 0.15 else rng.choice(authors)
            thread.append(b.post(topic, source, "", who, links_for(topic), parent=parent))
    return b.finish(refs, serp_only=True)


WORLDS = {"news-pages": news_pages, "many-topics": many_topics, "threads": threads}


def make_world(workload: str, seed: int, root: Path) -> World:
    return WORLDS[workload](seed, root)


def make_probe_chain(root: Path) -> World:
    """The deep-chain probe: one author, one SERP root, 1,199 chained replies."""
    b = _Builder("probe", 0, root, 1)
    tip = b.post(0, "twitter", "top", "chainer", [], retrieved=RETRIEVAL_DAYS[0])
    for _ in range(PROBE_CHAIN_POSTS - 1):
        tip = b.post(0, "twitter", "", "chainer", [], parent=tip)
    return b.finish({})
