#!/usr/bin/env python3
"""Generate the bundled offline fixture world under tests/data/.

Produces corpus.jsonl (3 topics, ~60 posts across reddit/twitter/scoopit
plus a google reference source), a directory of HTTP-message response
fixtures for every fetched URI, and refs.json for gold-standard builds.
Deterministic: rerunning writes identical bytes.

Post ids are chosen so that lexicographic order equals chronological
order within every thread; created_at increases in declaration order.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from seedsmith.corpus.fetch import write_fixture
from seedsmith.corpus.jsonl import write_corpus
from seedsmith.corpus.model import Post, TopicSpec, build_corpus

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"

RETRIEVED = datetime(2018, 11, 6, 0, 0, 0, tzinfo=timezone.utc)
BASE_CREATED = datetime(2018, 11, 1, 0, 0, 0, tzinfo=timezone.utc)
DATE_HEADER = "Tue, 06 Nov 2018 00:00:00 GMT"

TOPICS = [
    TopicSpec(
        topic_id="flood",
        text_query="riverbend flood",
        hashtag_query="#riverbendflood",
        expectation="unexpected",
        recurrence="non_recurring",
        start_definition="2018-09-10",
        end_definition="undefined",
    ),
    TopicSpec(
        topic_id="eclipse",
        text_query="total solar eclipse",
        hashtag_query="#eclipse2018",
        expectation="expected",
        recurrence="recurring",
        start_definition="2018-08-11",
        end_definition="2018-08-11",
    ),
    TopicSpec(
        topic_id="strike",
        text_query="national rail strike",
        hashtag_query="#railstrike",
        expectation="unexpected",
        recurrence="recurring",
        regularity="irregular",
        start_definition="2018-10-01",
        end_definition="undefined",
    ),
]

# ---------------------------------------------------------------------------
# Fixture pages
# ---------------------------------------------------------------------------

FLOOD_REF_1 = (
    "Flood waters rose rapidly across Riverbend as the river crested above the "
    "levee. Evacuation orders reached thousands of residents while rainfall "
    "continued through the night. Emergency crews used boats for rescue work as "
    "flood damage spread through low lying districts of Riverbend."
)
FLOOD_REF_2 = (
    "The Riverbend flood forced the levee district to open spillways after "
    "record rainfall. Officials measured the river crest at historic levels and "
    "coordinated evacuation shelters. Water damage assessments and rescue "
    "operations continued for days across the flood zone."
)
FLOOD_REF_3 = (
    "Engineers inspecting the levee warned that river water had weakened the "
    "embankment before the Riverbend flood. Rainfall totals broke records and "
    "the evacuation of riverside neighborhoods saved lives as the crest passed."
)

ECLIPSE_REF_1 = (
    "The total solar eclipse drew crowds along the path of totality. The moon "
    "covered the sun revealing the corona while astronomers recorded the shadow "
    "crossing. Viewing glasses protected spectators during the eclipse and "
    "telescopes tracked totality for science teams."
)
ECLIPSE_REF_2 = (
    "Astronomy groups organized eclipse viewing events under the path of "
    "totality. The solar corona appeared as the moon blocked the sun and the "
    "shadow raced across observers. Scientists measured the eclipse to study "
    "the corona and the solar atmosphere."
)

STRIKE_REF_1 = (
    "The national rail strike halted trains as union workers walked out over "
    "stalled negotiation sessions. Commuters faced canceled service while the "
    "railway and the union traded offers. The walkout spread to freight "
    "operations as the strike entered a second week."
)
STRIKE_REF_2 = (
    "Railway managers and union negotiators met as the rail strike disrupted "
    "commuter service nationwide. Workers on the picket line demanded a "
    "settlement and trains sat idle. The negotiation over pay and safety "
    "stretched on while the walkout continued."
)

CHESS = (
    "The quantum chess tournament opened with a surprise gambit as the "
    "grandmaster sacrificed a knight. Spectators studied the bracket while "
    "players debated openings and endgame theory late into the evening."
)
RECIPE = (
    "This souffle recipe needs careful folding of egg whites into the cheese "
    "base. Preheat the oven, butter the ramekins, and serve immediately while "
    "the souffle is still puffed and golden."
)
GARDEN = (
    "Autumn gardening tips: divide perennials, plant spring bulbs, and mulch "
    "beds before frost. Prune roses lightly and compost fallen leaves to feed "
    "next season's soil."
)


def page(title, body, date_meta="", host="news.example"):
    return f"""<!doctype html>
<html><head>
<meta charset="utf-8">
<title>{title}</title>
{date_meta}
</head>
<body>
<nav><a href="https://{host}/">Home</a> <a href="https://{host}/sections">Sections</a> navigation menu</nav>
<article>
<h1>{title}</h1>
<p>{body}</p>
</article>
<footer>Contact {host}. All rights reserved. Subscribe to the newsletter.</footer>
</body></html>
""".encode()


def meta_published(day):
    return f'<meta property="article:published_time" content="{day}T08:00:00Z">'


def jsonld_published(day):
    return (
        '<script type="application/ld+json">'
        f'{{"@type": "NewsArticle", "datePublished": "{day}T08:00:00Z"}}'
        "</script>"
    )


def tweet_page(text, *links):
    anchors = " ".join(f'<a href="{l}">{l}</a>' for l in links)
    return f'<html><head><meta charset="utf-8"></head><body><p>{text}</p>{anchors}</body></html>'.encode()


def ref_page(title, external, host="encyclo.example"):
    items = "".join(
        f'<li><a href="{uri}" class="external">{uri}</a></li>' for uri in external
    )
    return f"""<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title></head>
<body>
<nav><a href="https://{host}/">Main page</a></nav>
<p>{title} is an event with <a href="/wiki/Context">context</a> and
<a href="https://{host}/wiki/Timeline">timeline</a> coverage.</p>
<h2>References</h2>
<div class="references">
<ol>
{items}
<li><a href="/wiki/Internal_note">internal note</a></li>
</ol>
</div>
</body></html>
""".encode()


# (uri, body bytes, extra headers) for every fetched URI.
def build_pages():
    pages = []

    def add(uri, body, headers=None):
        all_headers = {"Content-Type": "text/html; charset=utf-8", "Date": DATE_HEADER}
        all_headers.update(headers or {})
        pages.append((uri, body, all_headers))

    flood_words = (
        "Flood waters in Riverbend kept rising as rainfall fed the river. "
        "Evacuation routes stayed open and crews patrolled the levee while "
        "residents moved to shelters. The crest is expected to bring more water "
        "damage before the flood recedes."
    )
    eclipse_words = (
        "Eclipse watchers followed the path of totality as the moon crossed the "
        "sun. The corona glowed during the total solar eclipse and the shadow "
        "swept past viewing parties organized by astronomy clubs."
    )
    strike_words = (
        "The rail strike stopped trains as union workers pressed negotiation "
        "demands. Commuters searched for alternate service while the railway "
        "walkout continued and pickets formed outside stations."
    )

    # Flood candidates.
    add("https://river-times.example/2018/09/12/flood-report",
        page("Flood report", flood_words, meta_published("2018-09-12"), "river-times.example"))
    add("https://river-times.example/2018/09/20/levee-update",
        page("Levee update", flood_words, meta_published("2018-09-20"), "river-times.example"))
    add("https://daily-herald.example/flood-photos",
        page("Flood photos", flood_words, meta_published("2018-09-15"), "daily-herald.example"))
    add("https://river-times.example/2018/10/01/crest",
        page("River crest", flood_words, "", "river-times.example"))
    add("https://daily-herald.example/rescue-efforts",
        page("Rescue efforts", flood_words, meta_published("2018-09-18"), "daily-herald.example"))
    add("https://river-times.example/2018/09/14/evacuations",
        page("Evacuations widen", flood_words, meta_published("2018-09-14"), "river-times.example"))
    add("https://daily-herald.example/rainfall-records",
        page("Rainfall records", flood_words, meta_published("2018-09-16"), "daily-herald.example"))
    add("https://news-a.example/flood-a",
        page("Riverbend flooding A", flood_words, meta_published("2018-09-21"), "news-a.example"))
    add("https://news-b.example/flood-b",
        page("Riverbend flooding B", flood_words, meta_published("2018-09-22"), "news-b.example"))
    add("https://news-c.example/flood-c",
        page("Riverbend flooding C", flood_words, meta_published("2018-09-23"), "news-c.example"))
    add("https://daily-herald.example/volunteers",
        page("Flood volunteers", flood_words, meta_published("2018-10-05"), "daily-herald.example"))
    add("https://river-times.example/2014/08/01/history-of-floods",
        page("A history of Riverbend floods", flood_words, meta_published("2014-08-01"),
             "river-times.example"))
    add("https://daily-herald.example/flood-donations",
        page("Flood donations", flood_words, meta_published("2018-10-02"), "daily-herald.example"))
    add("https://river-times.example/2018/10/03/cleanup",
        page("Cleanup begins", flood_words, meta_published("2018-10-03"), "river-times.example"))
    add("https://gov-info.example/flood-safety",
        page("Flood safety guidance", flood_words, meta_published("2018-09-05"), "gov-info.example"))

    # Eclipse candidates.
    add("https://sci-journal.example/eclipse-overview",
        page("Eclipse overview", eclipse_words, jsonld_published("2018-08-05"), "sci-journal.example"))
    add("https://sci-journal.example/totality-timeline",
        page("Totality timeline", eclipse_words, meta_published("2018-08-09"), "sci-journal.example"))
    add("https://sci-journal.example/2018/08/12/corona-watch",
        page("Corona watch", eclipse_words, "", "sci-journal.example"))
    add("https://sci-journal.example/viewing-guide",
        page("Viewing guide", eclipse_words, "", "sci-journal.example"),
        {"Last-Modified": "Wed, 01 Aug 2018 09:00:00 GMT"})
    add("https://news-a.example/eclipse-crowds",
        page("Eclipse crowds", eclipse_words, meta_published("2018-08-11"), "news-a.example"))
    add("https://obs-blog.example/eclipse-diary",
        page("Eclipse diary", eclipse_words, meta_published("2018-08-13"), "obs-blog.example"))

    # Strike candidates.
    add("https://transit-news.example/2018/10/11/strike-begins",
        page("Strike begins", strike_words, "", "transit-news.example"))
    add("https://transit-news.example/strike-negotiations",
        page("Strike negotiations", strike_words, meta_published("2018-10-20"), "transit-news.example"))
    add("https://transit-news.example/strike-outlook",
        page("Strike outlook", strike_words, meta_published("2019-01-01"), "transit-news.example"))
    add("https://transit-news.example/2018/10/15/walkout-grows",
        page("Walkout grows", strike_words, "", "transit-news.example"))
    add("https://gov-info.example/strike-rights",
        page("Commuter rights during the strike", strike_words, meta_published("2018-10-09"),
             "gov-info.example"))

    # Off-topic pages.
    add("https://badnews.example/quantum-chess", page("Quantum chess", CHESS, "", "badnews.example"))
    add("https://badnews.example/recipe-souffle", page("Souffle recipe", RECIPE, "", "badnews.example"))
    add("https://badnews.example/gardening-tips", page("Gardening tips", GARDEN, "", "badnews.example"))

    # Intra-platform substitution target.
    add("https://twitter.com/grace/status/900",
        tweet_page("crews heading out", "https://daily-herald.example/rescue-efforts"))

    # Reference-list pages and reference documents.
    add("https://encyclo.example/wiki/Riverbend_flood",
        ref_page("Riverbend flood",
                 ["https://refdocs.example/flood-src-1",
                  "https://refdocs.example/flood-src-2",
                  "https://refdocs.example/flood-src-3"]))
    add("https://encyclo.example/wiki/2018_solar_eclipse",
        ref_page("2018 solar eclipse",
                 ["https://refdocs.example/eclipse-src-1",
                  "https://refdocs.example/eclipse-src-2"]))
    add("https://refdocs.example/flood-src-1",
        page("Flood study one", FLOOD_REF_1, "", "refdocs.example"))
    add("https://refdocs.example/flood-src-2",
        page("Flood study two", FLOOD_REF_2, "", "refdocs.example"))
    add("https://refdocs.example/flood-src-3",
        page("Flood study three", FLOOD_REF_3, "", "refdocs.example"))
    add("https://refdocs.example/eclipse-src-1",
        page("Eclipse study one", ECLIPSE_REF_1, "", "refdocs.example"))
    add("https://refdocs.example/eclipse-src-2",
        page("Eclipse study two", ECLIPSE_REF_2, "", "refdocs.example"))
    add("https://refdocs.example/strike-src-1",
        page("Strike study one", STRIKE_REF_1, "", "refdocs.example"))
    add("https://refdocs.example/strike-src-2",
        page("Strike study two", STRIKE_REF_2, "", "refdocs.example"))
    return pages


# ---------------------------------------------------------------------------
# Posts
# ---------------------------------------------------------------------------

_counter = [0]


def post(id, topic, source, vertical, author, text="", links=(), parent=None,
         visible=False, query=None, hashtag=False):
    _counter[0] += 1
    created = BASE_CREATED + timedelta(minutes=_counter[0])
    spec = next(t for t in TOPICS if t.topic_id == topic)
    return Post(
        id=id,
        source=source,
        vertical=vertical,
        query=query if query is not None else (spec.hashtag_query if hashtag else spec.text_query),
        query_kind="hashtag" if hashtag else "text",
        topic_id=topic,
        author=author,
        retrieved_at=RETRIEVED,
        text=text,
        raw_links=tuple(links),
        parent_id=parent,
        serp_visible=visible,
        created_at=created,
        platform_uri=f"https://{source}.example/{id}",
    )


def build_posts():
    posts = []
    add = posts.append

    # --- flood / reddit relevance ------------------------------------
    add(post("fr1", "flood", "reddit", "relevance", "alice", visible=True,
             text="Flood report for Riverbend https://river-times.example/2018/09/12/flood-report"))
    add(post("fr1c1", "flood", "reddit", "relevance", "bob", parent="fr1",
             text="photos here https://daily-herald.example/flood-photos"))
    add(post("fr1c2", "flood", "reddit", "relevance", "alice", parent="fr1",
             text="levee update https://river-times.example/2018/09/20/levee-update"))
    add(post("fr1c3", "flood", "reddit", "relevance", "bob", parent="fr1c1",
             text="stay safe out there"))
    add(post("fr1c4", "flood", "reddit", "relevance", "erin", parent="fr1",
             text="thanks for collecting these"))
    add(post("fr2", "flood", "reddit", "relevance", "carol", visible=True,
             text="Riverbend flood emergency plan with levee evacuation maps and rainfall "
                  "data https://files.example/flood-plan.pdf"))
    add(post("fr3", "flood", "reddit", "relevance", "dave", visible=True,
             text="check this out https://badnews.example/quantum-chess"))
    add(post("fr4", "flood", "reddit", "relevance", "fred", visible=True,
             text="any news from the east bank?"))

    # --- flood / reddit top ------------------------------------------
    add(post("ft1", "flood", "reddit", "top", "erin", visible=True,
             text="two solid reports https://river-times.example/2018/09/14/evacuations and "
                  "https://daily-herald.example/rainfall-records"))
    add(post("ft2", "flood", "reddit", "top", "frank", visible=True,
             text="megathread of flood coverage: https://news-a.example/flood-a "
                  "https://news-b.example/flood-b https://news-c.example/flood-c "
                  "https://badnews.example/recipe-souffle https://badnews.example/gardening-tips"))
    add(post("ft2c1", "flood", "reddit", "top", "gail", parent="ft2",
             text="adding the volunteer signup https://daily-herald.example/volunteers"))
    add(post("ft2c2", "flood", "reddit", "top", "hank", parent="ft2",
             text="that last one is a souffle recipe... https://badnews.example/quantum-chess"))
    add(post("fr5", "flood", "reddit", "top", "iris", visible=True,
             text="roundup https://news-a.example/flood-a https://news-b.example/flood-b "
                  "https://badnews.example/recipe-souffle plus tables "
                  "https://files.example/flood-tables.xlsx"))

    # --- flood / reddit comments -------------------------------------
    add(post("cr1", "flood", "reddit", "comments", "gail", visible=True,
             text="coverage continues https://news-b.example/flood-b"))
    add(post("cr1a", "flood", "reddit", "comments", "hank", parent="cr1",
             text="volunteers needed https://daily-herald.example/volunteers"))
    add(post("cr1b", "flood", "reddit", "comments", "gail", parent="cr1",
             text="pinned, thanks"))
    add(post("cr1c", "flood", "reddit", "comments", "ivy", parent="cr1b",
             text="signed up this morning"))

    # --- flood / twitter top (text query) -----------------------------
    add(post("tw1", "flood", "twitter", "top", "grace", visible=True,
             text="crest arriving tonight https://river-times.example/2018/10/01/crest"))
    add(post("tw1c1", "flood", "twitter", "top", "hank", parent="tw1",
             links=("https://twitter.com/grace/status/900",),
             text="see this thread too"))
    add(post("tw2", "flood", "twitter", "top", "iris", visible=True,
             text="Drone footage of riverbend flood waters over the levee "
                  "https://video.example/flood-drone.mp4"))
    add(post("tw3", "flood", "twitter", "top", "jack", visible=True,
             text="more coverage https://news-c.example/flood-c"))
    add(post("tw3a", "flood", "twitter", "top", "kate", parent="tw3",
             text="terrifying pictures"))
    add(post("tw3b", "flood", "twitter", "top", "liam", parent="tw3a",
             text="evacuations widening https://river-times.example/2018/09/14/evacuations"))

    # --- flood / twitter latest (hashtag query) ------------------------
    add(post("tl1", "flood", "twitter", "latest", "jack", visible=True, hashtag=True,
             text="Trending now! https://badnews.example/quantum-chess #riverbendflood"))
    add(post("tl1c1", "flood", "twitter", "latest", "kate", parent="tl1", hashtag=True,
             text="context: the 2014 floods https://river-times.example/2014/08/01/history-of-floods"))

    # --- flood / scoopit ----------------------------------------------
    add(post("sc1", "flood", "scoopit", "scoops", "liam", visible=True,
             links=("https://daily-herald.example/flood-donations",),
             text="Donations for Riverbend flood relief"))
    add(post("sc2", "flood", "scoopit", "scoops", "mina", visible=True,
             links=("https://river-times.example/2018/10/03/cleanup",),
             text="Cleanup begins along the river"))
    add(post("sp1", "flood", "scoopit", "topics", "noah", visible=True,
             text="Riverbend flood watch, a curated page"))
    add(post("sp1a", "flood", "scoopit", "topics", "noah", parent="sp1",
             links=("https://river-times.example/2018/09/12/flood-report",),
             text="the first report"))
    add(post("sp1b", "flood", "scoopit", "topics", "noah", parent="sp1a",
             links=("https://daily-herald.example/flood-photos",),
             text="photo essay"))

    # --- flood / google reference SERP ---------------------------------
    add(post("g1", "flood", "google", "all", "serp", visible=True,
             links=("https://river-times.example/2018/09/12/flood-report",)))
    add(post("g2", "flood", "google", "all", "serp", visible=True,
             links=("https://daily-herald.example/flood-photos",)))
    add(post("g3", "flood", "google", "all", "serp", visible=True,
             links=("https://gov-info.example/flood-safety",)))

    # --- eclipse / reddit ----------------------------------------------
    add(post("er1", "eclipse", "reddit", "top", "oscar", visible=True,
             text="great overview https://sci-journal.example/eclipse-overview"))
    add(post("er1c1", "eclipse", "reddit", "top", "pia", parent="er1",
             text="Eclipse viewing map with the totality path and timings "
                  "https://files.example/eclipse-map.pdf"))
    add(post("er2", "eclipse", "reddit", "top", "quin", visible=True,
             text="reading list https://sci-journal.example/eclipse-overview "
                  "https://news-a.example/eclipse-crowds https://badnews.example/quantum-chess"))
    add(post("er3", "eclipse", "reddit", "top", "rosa", visible=True,
             text="who else drove to the path?"))
    add(post("er3a", "eclipse", "reddit", "top", "sven", parent="er3",
             text="timeline for the day https://sci-journal.example/totality-timeline"))

    # --- eclipse / twitter ----------------------------------------------
    add(post("et1", "eclipse", "twitter", "top", "quin", visible=True,
             text="timeline https://sci-journal.example/totality-timeline"))
    add(post("et2", "eclipse", "twitter", "top", "rosa", visible=True,
             text="corona watch https://sci-journal.example/2018/08/12/corona-watch"))
    add(post("et2a", "eclipse", "twitter", "top", "rosa", parent="et2",
             text="and the viewing guide https://sci-journal.example/viewing-guide"))
    add(post("el1", "eclipse", "twitter", "latest", "rita", visible=True, hashtag=True,
             text="#eclipse2018 corona shots https://sci-journal.example/2018/08/12/corona-watch"))
    add(post("el1a", "eclipse", "twitter", "latest", "sven", parent="el1", hashtag=True,
             text="celebrate with this https://badnews.example/recipe-souffle"))

    # --- eclipse / scoopit ------------------------------------------------
    add(post("es1", "eclipse", "scoopit", "scoops", "sam", visible=True,
             links=("https://sci-journal.example/eclipse-overview",),
             text="Overview of the total solar eclipse"))
    add(post("es2", "eclipse", "scoopit", "scoops", "tess", visible=True,
             links=("https://sci-journal.example/viewing-guide",),
             text="Viewing guide for totality"))
    add(post("ep1", "eclipse", "scoopit", "topics", "olive", visible=True,
             text="Eclipse 2018, a shared curation page"))
    add(post("ep1a", "eclipse", "scoopit", "topics", "pete", parent="ep1",
             links=("https://sci-journal.example/eclipse-overview",),
             text="the science overview"))
    add(post("ep1b", "eclipse", "scoopit", "topics", "quinn", parent="ep1a",
             links=("https://news-a.example/eclipse-crowds",),
             text="crowd reports"))

    # --- eclipse / google --------------------------------------------------
    add(post("eg1", "eclipse", "google", "all", "serp", visible=True,
             links=("https://sci-journal.example/totality-timeline",)))
    add(post("eg2", "eclipse", "google", "all", "serp", visible=True,
             links=("https://obs-blog.example/eclipse-diary",)))

    # --- strike / reddit new ------------------------------------------------
    add(post("sr1", "strike", "reddit", "new", "tess", visible=True,
             text="it begins https://transit-news.example/2018/10/11/strike-begins"))
    add(post("sr1c1", "strike", "reddit", "new", "umar", parent="sr1",
             text="meanwhile https://badnews.example/gardening-tips"))
    add(post("sr1c2", "strike", "reddit", "new", "vera", parent="sr1",
             text="negotiations stalled https://transit-news.example/strike-negotiations"))
    add(post("sr2", "strike", "reddit", "new", "xena", visible=True,
             text="two links https://transit-news.example/2018/10/11/strike-begins and "
                  "https://transit-news.example/strike-negotiations"))

    # --- strike / twitter latest ----------------------------------------------
    add(post("st1", "strike", "twitter", "latest", "wade", visible=True,
             text="walkout grows https://transit-news.example/2018/10/15/walkout-grows"))
    add(post("st1a", "strike", "twitter", "latest", "wade", parent="st1",
             text="outlook for next quarter https://transit-news.example/strike-outlook"))
    add(post("st2", "strike", "twitter", "latest", "yuri", visible=True,
             text="still no trains https://transit-news.example/2018/10/15/walkout-grows"))
    add(post("st2a", "strike", "twitter", "latest", "zane", parent="st2",
             text="week three begins"))

    # --- strike / google ---------------------------------------------------------
    add(post("sg1", "strike", "google", "all", "serp", visible=True,
             links=("https://transit-news.example/2018/10/11/strike-begins",)))
    add(post("sg2", "strike", "google", "all", "serp", visible=True,
             links=("https://gov-info.example/strike-rights",)))

    return posts


REFS = {
    "flood": "https://encyclo.example/wiki/Riverbend_flood",
    "eclipse": "https://encyclo.example/wiki/2018_solar_eclipse",
    "strike": ["https://refdocs.example/strike-src-1", "https://refdocs.example/strike-src-2"],
}


def main(data_dir=DATA):
    """Write corpus.jsonl, refs.json and responses/ under ``data_dir``."""
    responses = data_dir / "responses"
    data_dir.mkdir(parents=True, exist_ok=True)
    if responses.exists():
        for old in responses.glob("*.response"):
            old.unlink()
    pages = build_pages()
    for uri, body, headers in pages:
        write_fixture(responses, uri, 200, headers, body)
    posts = build_posts()
    corpus = build_corpus(posts, TOPICS)
    write_corpus(corpus, data_dir / "corpus.jsonl")
    (data_dir / "refs.json").write_text(
        json.dumps(REFS, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(posts)} posts, {len(pages)} fixtures")


if __name__ == "__main__":
    main()
