"""The end-to-end benchmark (``pipebench/``) reaches into the program from
outside: it imports helpers to build its worlds and traces the functions
listed in ``spans.LAYERS``. These tests keep that view resolving, so a
change to the program cannot silently turn a traced layer into an absent
one or break a benchmark import."""

import importlib
import importlib.util
import sys
from pathlib import Path

PIPEBENCH = Path(__file__).parents[1] / "pipebench"

# Layers whose function the program no longer has; their metrics read 0
# until the benchmark stops tracing them. ``strip_boilerplate`` went when
# every reader of a page moved to the fetcher's page digest, and
# ``parse_html`` when reference lists came to be read in one lexer pass.
KNOWN_ABSENT = {"goldstandard.strip", "htmltools.parse"}


def load(name, monkeypatch):
    """Execute ``pipebench/<name>.py`` as a module of its own name."""
    spec = importlib.util.spec_from_file_location(name, PIPEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def resolves(module_name, qualname):
    owner = importlib.import_module(module_name)
    for attr in qualname.split("."):
        owner = getattr(owner, attr, None)
        if owner is None:
            return False
    return callable(owner)


def test_every_traced_layer_resolves(monkeypatch):
    layers = load("spans", monkeypatch).LAYERS
    assert layers
    for name, module_name, qualname, _measure in layers:
        assert resolves(module_name, qualname) == (name not in KNOWN_ABSENT), name


def test_world_generator_and_kernel_name_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    worlds = load("worlds", monkeypatch)
    assert callable(worlds.make_world)
    assert callable(worlds.make_probe_chain)
    textkernel = importlib.import_module("seedsmith.textkernel")
    assert textkernel.IMPLEMENTATION == "python"
