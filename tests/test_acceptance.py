"""Acceptance suite: one test per release criterion, each printing a
PASS line when it holds (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 7 replicates published headline numbers against an external
dataset; it needs SEEDSMITH_REPLICATION_DATA to point at a corpus
prepared from that dataset and is skipped in the offline suite.
"""

import csv
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distribution_column, make_corpus, make_post, make_topic
from oracles import brute_force_classify, classify_result_as_set, distinct_count, random_reply_tree
from seedsmith.analytics import (
    MODE_LITERAL,
    MODE_NORMALIZED,
    hostname_diversity,
    judge_relevance,
)
from seedsmith.cli import main as cli_main
from seedsmith.corpus.jsonl import load_corpus, write_corpus
from seedsmith.extraction import HTML_KIND, NON_HTML_KIND, SeedCollection, SeedUri
from seedsmith.goldstandard import GoldStandard, build_term_vector
from seedsmith.segmentation import build_forest, classify_groups
from seedsmith.textkernel import sparse_cosine
from test_pipebench_view import PIPEBENCH, load

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def report(line):
    print(f"\nACCEPTANCE {line}")


# ---------------------------------------------------------------------------
# 1. Segmentation oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_segmentation_oracle_equivalence():
    rng = random.Random(20181106)
    started = time.monotonic()
    for i in range(1000):
        posts = [make_post(**kw) for kw in random_reply_tree(rng, max_posts=20, max_authors=4)]
        forest = build_forest(make_corpus(posts))
        got = classify_result_as_set(g for t in forest for g in classify_groups(t))
        want = brute_force_classify(posts)
        assert got == want, f"forest {i}: {got ^ want}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(f"1 segmentation-oracle-equivalence (1000 forests, {elapsed:.2f}s): PASS")


# ---------------------------------------------------------------------------
# 2. Distribution correctness on random synthetic corpora
# ---------------------------------------------------------------------------


def _random_collections(rng):
    """Random per-(source, class, topic) post/URI-count data plus the
    ground-truth counts used by the brute-force checks."""
    collections = {}
    truth = []  # (source, post_class, topic, [k per post]) with k >= 1
    uid = [0]
    for source in ("s1", "s2"):
        for post_class in ("P1A1", "PnA1", "PnAn"):
            for topic in ("t1", "t2", "t3"):
                if rng.random() < 0.25:
                    continue
                key = (topic, source, "v", post_class)
                ks = []
                seeds = []
                for p in range(rng.randint(0, 6)):
                    k = rng.randint(0, 6)
                    post_id = f"{source}-{post_class}-{topic}-p{p}"
                    made = 0
                    for j in range(k):
                        uid[0] += 1
                        kind = HTML_KIND if rng.random() < 0.8 else NON_HTML_KIND
                        seeds.append(
                            SeedUri(
                                canonical=f"https://h{uid[0]}.example/x",
                                hostname=f"h{uid[0]}.example",
                                kind=kind,
                                post_id=post_id,
                                retrieved_at=make_post().retrieved_at,
                            )
                        )
                        if kind == HTML_KIND:
                            made += 1
                    if made:
                        ks.append(made)
                collections[key] = SeedCollection(seeds=tuple(seeds), post_seeds=tuple(seeds))
                truth.append((source, post_class, topic, ks))
    return collections, truth


def test_criterion_2_distribution_correctness():
    rng = random.Random(42)
    bins = ("1", "2", "3-4", "5+")

    def bin_of(k):
        return "1" if k == 1 else "2" if k == 2 else "3-4" if k <= 4 else "5+"

    for trial in range(200):
        collections, truth = _random_collections(rng)
        for source in ("s1", "s2"):
            for scope in ("P1A1", "PnA1", "PnAn", "MC", "All"):
                scope_classes = {
                    "MC": ("PnA1", "PnAn"),
                    "All": ("P1A1", "PnA1", "PnAn"),
                }.get(scope, (scope,))
                per_topic = {}
                for t_source, t_class, t_topic, ks in truth:
                    if t_source == source and t_class in scope_classes:
                        per_topic.setdefault(t_topic, []).extend(ks)
                per_topic = {t: ks for t, ks in per_topic.items() if ks}
                pooled = sum(len(ks) for ks in per_topic.values())

                normalized = distribution_column(
                    collections, source=source, scope=scope, kind="html",
                    mode=MODE_NORMALIZED,
                )
                literal = distribution_column(
                    collections, source=source, scope=scope, kind="html",
                    mode=MODE_LITERAL,
                )
                if pooled == 0:
                    assert normalized.is_na and literal.is_na
                    continue
                assert abs(sum(normalized.probabilities.values()) - 1.0) <= 1e-9
                for b in bins:
                    pooled_count = sum(
                        sum(1 for k in ks if bin_of(k) == b) for ks in per_topic.values()
                    )
                    assert normalized.probabilities[b] == pooled_count / pooled
                    term_by_term = sum(
                        sum(1 for k in ks if bin_of(k) == b) / len(ks)
                        for ks in per_topic.values()
                    )
                    assert abs(literal.probabilities[b] - term_by_term) <= 1e-12
                assert abs(
                    sum(literal.probabilities.values()) - len(per_topic)
                ) <= 1e-9
    report("2 distribution-correctness (200 corpora, both modes): PASS")


# ---------------------------------------------------------------------------
# 3. Relevance / precision fixtures
# ---------------------------------------------------------------------------


def test_criterion_3_relevance_fixtures():
    got = sparse_cosine({"a": 0.5, "b": 0.5}, {"a": 1.0})
    assert abs(got - 0.7071) <= 1e-4

    boundary_gold = GoldStandard(
        topic_id="t1",
        vector={f"term{i:02d}": 1 / 16 for i in range(16)},
        reference_uris=("https://ref.example/",),
        failures=(),
        built_at=make_post().retrieved_at,
    )
    judgment = judge_relevance(build_term_vector(["term00 term00"]), boundary_gold)
    assert judgment.cosine == 0.25
    assert not judgment.relevant

    rng = random.Random(7)
    flips = 0
    for _ in range(100):
        terms = [f"w{i}" for i in range(rng.randint(1, 15))]
        a = {t: rng.uniform(0.01, 3) for t in terms if rng.random() < 0.7} or {"w0": 1.0}
        b = {t: rng.uniform(0.01, 3) for t in terms if rng.random() < 0.7} or {"w1": 1.0}
        base = sparse_cosine(a, b)
        ka, kb = rng.uniform(0.2, 50), rng.uniform(0.2, 50)
        scaled = sparse_cosine(
            {t: w * ka for t, w in a.items()},
            {t: w * kb for t, w in b.items()},
        )
        assert abs(base - scaled) <= 1e-9
        if (base > 0.25) != (scaled > 0.25):
            flips += 1
    assert flips == 0
    report("3 relevance-precision-fixtures (cosine, boundary, rescaling): PASS")


# ---------------------------------------------------------------------------
# 4. Hostname diversity
# ---------------------------------------------------------------------------


def test_criterion_4_diversity():
    single = ["www.cnn.com", "www.cnn.com", "www.cnn.com"]
    distinct = ["www.cnn.com", "www.foxnews.com", "news.bbc.co.uk"]
    assert hostname_diversity(single) == 0.0
    assert hostname_diversity(distinct) == 1.0
    assert hostname_diversity([]) is None
    assert hostname_diversity(["only.example"]) is None

    rng = random.Random(99)
    for _ in range(500):
        hosts = [f"h{rng.randint(1, 12)}.example" for _ in range(rng.randint(2, 40))]
        want = (distinct_count(hosts) - 1) / (len(hosts) - 1)
        assert hostname_diversity(hosts) == pytest.approx(want, abs=1e-12)
    report("4 hostname-diversity (endpoints + 500 random collections): PASS")


# ---------------------------------------------------------------------------
# 5. End-to-end golden run
# ---------------------------------------------------------------------------


def test_criterion_5_golden_run(tmp_path):
    started = time.monotonic()
    out = tmp_path / "out"
    code = cli_main(
        ["run", "--corpus", str(DATA / "corpus.jsonl"), "--out", str(out),
         "--fixtures", str(DATA / "responses"), "--refs", str(DATA / "refs.json")]
    )
    assert code == 0
    golden_files = sorted(GOLDEN.glob("*.csv"))
    assert golden_files, "golden files missing; run tools/regen_golden.py"
    mismatched = [
        g.name for g in golden_files if (out / g.name).read_bytes() != g.read_bytes()
    ]
    assert not mismatched, f"report CSVs differ from goldens: {mismatched}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        f"5 end-to-end-golden ({len(golden_files)} CSVs byte-identical, {elapsed:.2f}s): PASS"
    )


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load_tool("regen_golden")
BUNDLED_POSTS = regen.load_corpus_raw()[1]


def test_golden_csvs_match_independent_recompute():
    """The goldens are what ``tools/regen_golden.py`` rebuilds from the raw
    fixtures; the benchmark loads that file the same way to check every
    bundle it writes."""
    topics, posts = regen.load_corpus_raw()
    refs = json.loads((DATA / "refs.json").read_text(encoding="utf-8"))
    golden = {g.name: g.read_bytes() for g in GOLDEN.glob("*.csv")}
    assert len(golden) == 16
    assert regen.csv_bytes(regen.build_tables(topics, posts, refs)) == golden


def test_fixture_generator_rewrites_bundled_data(tmp_path):
    """``tools/gen_fixture_corpus.py`` is the source of ``tests/data/``
    (all but the goldens): it rewrites every file byte for byte."""
    _load_tool("gen_fixture_corpus").main(tmp_path)
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    bundled = sorted(p.relative_to(DATA) for p in DATA.rglob("*")
                     if p.is_file() and GOLDEN not in p.parents)
    assert written == bundled
    for path in written:
        assert (tmp_path / path).read_bytes() == (DATA / path).read_bytes(), path


def test_recompute_without_the_oracles_is_one_error_line(tmp_path):
    """A copy of ``src/`` and ``tools/`` without ``tests/`` cannot
    recompute: ``tools/regen_golden.py`` exits with one line that names
    the missing ``tests/oracles.py``, not a traceback."""
    root = Path(__file__).parents[1]
    for part in ("src", "tools"):
        shutil.copytree(root / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, str(tmp_path / "tools" / "regen_golden.py")],
                          capture_output=True, text=True)
    oracles = tmp_path.resolve() / "tests" / "oracles.py"
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {oracles} not found: the recompute reads every page through its oracles\n"


def assert_run_matches_recompute(out, corpus, fixtures, refs, posts, replies=None, **flags):
    """``seedsmith run`` with ``flags`` writes the 16 CSVs that
    ``reference_tables`` computes with the same flags."""
    argv = ["run", "--corpus", str(corpus), "--fixtures", str(fixtures), "--out", str(out)]
    if refs is not None:
        argv += ["--refs", str(refs)]
    if replies is not None:  # a reply limit that cuts nothing, as the recompute models it
        argv += ["--replies", str(replies), "--reply-limit", "100000"]
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        if isinstance(value, (set, frozenset)):
            argv += [flag, ",".join(sorted(value))]
        elif value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    assert cli_main(argv) == 0
    mapping = json.loads(refs.read_text(encoding="utf-8")) if refs is not None else {}
    expected = regen.csv_bytes(regen.reference_tables(posts, mapping, fixtures, **flags))
    assert len(expected) == 16
    assert {name: (out / name).read_bytes() for name in expected} == expected


def _subsets(field):
    return st.sets(st.sampled_from(sorted({p[field] for p in BUNDLED_POSTS})), min_size=1)


@given(
    mc_exclude_root=st.booleans(),
    global_dedup=st.booleans(),
    dist_mode=st.sampled_from((MODE_NORMALIZED, MODE_LITERAL)),
    reference_source=st.sampled_from(sorted({p["source"] for p in BUNDLED_POSTS})),
    threshold=st.floats(min_value=0.01, max_value=0.99),
    only_topics=_subsets("topic_id"),
    only_sources=_subsets("source"),
    only_verticals=_subsets("vertical"),
)
@settings(max_examples=80, deadline=None)
def test_recompute_matches_run_under_every_output_flag(**flags):
    with tempfile.TemporaryDirectory() as tmp:
        assert_run_matches_recompute(Path(tmp), DATA / "corpus.jsonl", DATA / "responses",
                                     DATA / "refs.json", BUNDLED_POSTS, **flags)


@pytest.mark.parametrize("workload, flags", [
    ("threads", {"depth_limit": 1}),
    ("news-pages", {"threshold": 0.5}),
])
def test_recompute_matches_run_on_a_benchmark_world(workload, flags, tmp_path, monkeypatch):
    """The flags the bundled corpus cannot show: no permalink there nests,
    and no page scores near 0.5."""
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    world = load("worlds", monkeypatch).make_world(workload, 7, tmp_path / "world")
    posts = regen.read_corpus(world.replies or world.corpus)[1]
    assert_run_matches_recompute(tmp_path / "out", world.corpus, world.fixtures, world.refs,
                                 posts, world.replies, **flags)


def test_recompute_matches_run_on_the_deep_chain_probe(tmp_path, monkeypatch):
    """1,200 chained posts, recomputed through the entry the benchmark's
    checks call: set ``DATA`` and ``RESPONSES``, then ``load_corpus_raw``
    and ``build_tables``."""
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    probe = load("worlds", monkeypatch).make_probe_chain(tmp_path / "probe")
    monkeypatch.setattr(regen, "DATA", probe.root)
    monkeypatch.setattr(regen, "RESPONSES", probe.fixtures)
    topics, posts = regen.load_corpus_raw()
    expected = regen.csv_bytes(regen.build_tables(topics, posts, {}))
    out = tmp_path / "out"
    assert cli_main(["run", "--corpus", str(probe.corpus), "--fixtures", str(probe.fixtures),
                     "--out", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in expected} == expected


# ---------------------------------------------------------------------------
# 6. Round-trip and determinism
# ---------------------------------------------------------------------------


def _random_corpus(rng):
    topics = [make_topic(f"t{i}", hashtag_query=f"#t{i}") for i in range(rng.randint(1, 3))]
    posts = []
    alphabet = "abc δπ 漢字 🌊 'quote' \\ "
    for i in range(rng.randint(1, 30)):
        topic = rng.choice(topics).topic_id
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
        candidates = [p for p in posts if p.topic_id == topic and p.source == "reddit"]
        if candidates and rng.random() < 0.5:
            posts.append(
                make_post(id=f"p{i}", topic_id=topic, text=text,
                          author=rng.choice("abcd"),
                          parent_id=rng.choice(candidates).id,
                          raw_links=("https://x.example/a",) if rng.random() < 0.3 else ())
            )
        else:
            posts.append(
                make_post(id=f"p{i}", topic_id=topic, text=text,
                          author=rng.choice("abcd"), serp_visible=True)
            )
    return make_corpus(posts, topics)


def test_criterion_6_round_trip_and_determinism(tmp_path):
    rng = random.Random(60)
    for i in range(100):
        corpus = _random_corpus(rng)
        path = tmp_path / f"c{i}.jsonl"
        write_corpus(corpus, path)
        assert load_corpus(path) == corpus

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(
            ["run", "--corpus", str(DATA / "corpus.jsonl"), "--out", str(out),
             "--fixtures", str(DATA / "responses"), "--refs", str(DATA / "refs.json")]
        )
        assert code == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
    report(
        f"6 round-trip-and-determinism (100 corpora; {len(files_a)} files byte-identical): PASS"
    )


# ---------------------------------------------------------------------------
# 7. Optional replication against the published dataset
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    "SEEDSMITH_REPLICATION_DATA" not in os.environ,
    reason="replication dataset not available offline; "
    "set SEEDSMITH_REPLICATION_DATA to a directory with corpus.jsonl "
    "(+ optional responses/, refs.json) prepared from the published dataset",
)
def test_criterion_7_published_dataset_replication(tmp_path):
    root = Path(os.environ["SEEDSMITH_REPLICATION_DATA"])
    out = tmp_path / "out"
    args = ["run", "--corpus", str(root / "corpus.jsonl"), "--out", str(out)]
    if (root / "responses").is_dir():
        args += ["--fixtures", str(root / "responses")]
    else:
        args += ["--mode", "live"]
    if (root / "refs.json").exists():
        args += ["--refs", str(root / "refs.json")]
    assert cli_main(args) == 0

    def table_rows(name):
        with (out / f"{name}.csv").open(encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))[1:]

    rows = table_rows("distribution_html")

    def prob(source, scope, bin_label):
        for r in rows:
            if r[:3] == [bin_label, source, scope] and r[3] != "NA":
                return float(r[3])
        return None

    expectations = [
        ("reddit P1A1 k=1", prob("reddit", "P1A1", "1"), 0.63, 0.02),
        ("twitter P1A1 k=1", prob("twitter", "P1A1", "1"), 0.98, 0.01),
    ]
    # Median per-post relevance probability, P1A1 vs MC pooled.
    prec = table_rows("relevance_by_k_html")

    def median_relevance(scope):
        import statistics

        values = [float(r[3]) for r in prec if r[2] == scope and r[3] != "NA"]
        return statistics.median(values) if values else None

    expectations += [
        ("P1A1 median relevance", median_relevance("P1A1"), 0.63, 0.05),
        ("MC median relevance", median_relevance("MC"), 0.50, 0.05),
    ]
    # Deviations are reported, not hard failures: tokenizer/boilerplate
    # choices legitimately shift these numbers.
    for name, got, want, tol in expectations:
        if got is None:
            report(f"7 replication {name}: NO DATA (expected {want})")
        elif abs(got - want) <= tol:
            report(f"7 replication {name}: {got:.3f} vs {want} +/- {tol}: PASS")
        else:
            report(f"7 replication {name}: {got:.3f} vs {want} +/- {tol}: DEVIATION")
    report("7 published-dataset-replication: COMPLETED (see lines above)")
