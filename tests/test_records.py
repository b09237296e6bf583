"""The pipeline's records: immutable values are named tuples, the four
that hold state are plain classes, importing the CLI loads no stdlib
module it does not use (``dataclasses``, ``inspect``, ``email.utils``,
``socket``), and every module reads what it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seedsmith.analytics import AgeSummary, PrecisionSummary, RelevanceJudgment
from seedsmith.corpus.fetch import FetchResult
from seedsmith.corpus.model import Corpus, Post, TopicSpec
from seedsmith.extraction import SeedCollection, SeedUri
from seedsmith.reports import PostObservation, RowIndex
from seedsmith.segmentation import PostGroup, TreeNode

SRC = Path(__file__).resolve().parents[1] / "src"

VALUE_RECORDS = (Post, TopicSpec, FetchResult, SeedUri, SeedCollection, PostGroup, PostObservation,
                 RowIndex, RelevanceJudgment, PrecisionSummary, AgeSummary)


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_record_fields_cannot_be_assigned(cls):
    record = cls._make(f"value {i}" for i in range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
    with pytest.raises(AttributeError):
        record.added = "field"
    assert list(record) == [f"value {i}" for i in range(len(cls._fields))]


def test_corpora_and_tree_nodes_never_share_a_container():
    first, second = Corpus(), Corpus()
    first.posts["p1"] = first.topics["t1"] = "held"
    assert (second.posts, second.topics) == ({}, {})
    parent, other = TreeNode(None), TreeNode(None)
    parent.children.append(other)
    assert other.children == [] and TreeNode(None, detached_key="p0").children == []


def _modules_after(statement: str) -> set[str]:
    code = f"{statement}; import sys; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def test_importing_the_cli_loads_no_unused_stdlib_module():
    # Compared with a bare interpreter, so a site hook that imports one of
    # these modules does not count against the package. ``email.utils``
    # brings ``socket`` and the email encoders; the package reads only
    # its date parser, which ``corpus.fetch`` takes from ``email._parseaddr``.
    # ``textkernel`` builds its byte table from literals, not ``string``.
    added = _modules_after("import seedsmith.cli") - _modules_after("pass")
    assert "seedsmith.cli" in added
    assert added & {"dataclasses", "inspect", "email.utils", "socket", "string", "unicodedata"} == set()


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's top-level imports bind, less ``__future__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_every_module_reads_what_it_imports():
    unread = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(_imported_names(tree) - read)
        if unused:
            unread[path.relative_to(SRC).as_posix()] = unused
    assert unread == {}
