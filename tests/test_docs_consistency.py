"""Documentation consistency: the docs reference things that exist.

Cheap structural checks that keep README/DESIGN/EXPERIMENTS/docs honest as
the code evolves: every bench/result/example file the documentation names
must exist, every `repro.<symbol>` the API reference table names must
import, and the deliverable entry points are present.
"""

from __future__ import annotations

import importlib
import itertools
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).parent.parent


class TestReferencedFilesExist:
    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_bench_files_exist(self, doc):
        text = (ROOT / doc).read_text()
        for match in re.findall(r"bench_[a-z0-9_]+\.py", text):
            assert (ROOT / "benchmarks" / match).exists(), (doc, match)

    def test_example_files_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"`([a-z_]+\.py)`", text):
            if match.startswith(("bench_", "test_")):
                continue  # covered by the bench/test existence checks
            if (ROOT / "examples" / match).exists():
                continue
            # non-example .py mentions (e.g. cli.py) must exist in src
            assert list(ROOT.glob(f"src/**/{match}")), match

    def test_docs_pages_exist(self):
        text = (ROOT / "README.md").read_text()
        for match in re.findall(r"`docs/([a-z_]+\.md)`", text):
            assert (ROOT / "docs" / match).exists(), match

    def test_experiments_result_files_are_produced_by_benches(self):
        """Every results/*.txt EXPERIMENTS.md names appears in a bench's
        emit() call."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("bench_*.py")
        )
        for match in re.findall(r"`([a-z0-9_]+)\.txt`", text):
            assert f'"{match}"' in bench_sources, match


class TestApiReferenceImports:
    def test_top_level_symbols_in_api_doc_exist(self):
        text = (ROOT / "docs" / "api.md").read_text()
        # first table column only: rows starting "| `name" without a module
        # path are claimed to be importable from the top-level package
        for match in re.findall(
            r"^\| `([A-Za-z_][A-Za-z0-9_]*)[(\` /]", text, flags=re.MULTILINE
        ):
            assert hasattr(repro, match), match

    def test_dotted_module_paths_import(self):
        """Every ``repro.…`` name resolves down to its attribute; brace
        groups (``write_series_{csv,json}``) expand, wildcards are skipped."""
        text = (ROOT / "docs" / "api.md").read_text()
        pattern = r"`(repro(?:\.(?:[A-Za-z0-9_*]|\{[^}`]*\})+)+)"
        for written in set(re.findall(pattern, text)):
            for name in _expand_braces(written):
                if "*" not in name:
                    _resolve(name)


def _expand_braces(name: str) -> list[str]:
    """``a.{b, c}_d`` -> ``["a.b_d", "a.c_d"]``."""
    pieces = re.split(r"\{([^}]*)\}", name)
    choices = [
        [o.strip() for o in piece.split(",")] if i % 2 else [piece]
        for i, piece in enumerate(pieces)
    ]
    return ["".join(combo) for combo in itertools.product(*choices)]


def _resolve(name: str) -> None:
    """Import the longest module prefix of ``name``, then walk attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    for attr in parts[cut:]:
        assert hasattr(obj, attr), f"{name}: no attribute {attr!r}"
        obj = getattr(obj, attr)


class TestDeliverableLayout:
    def test_required_top_level_files(self):
        for name in ("pyproject.toml", "README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (ROOT / name).exists(), name

    def test_at_least_three_examples(self):
        examples = list((ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
        assert (ROOT / "examples" / "quickstart.py").exists()

    def test_benches_cover_every_figure(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert "bench_fig1_sfc_length.py" in benches
        assert "bench_fig2_reliability.py" in benches
        assert "bench_fig3_capacity.py" in benches
