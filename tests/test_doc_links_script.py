"""Tests for the documentation link checker (`scripts/check_doc_links.py`)."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_links_script", REPO_ROOT / "scripts" / "check_doc_links.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_doc_links_script", module)
    spec.loader.exec_module(module)
    return module


checker = load_checker()


@pytest.mark.parametrize("heading, slug", [
    ("Sharing results between machines", "sharing-results-between-machines"),
    ("`POST /v1/sweep-point`", "post-v1sweep-point"),
    ("Export is a copy of the row table", "export-is-a-copy-of-the-row-table"),
    ("Vectorised, stream-preserving generation",
     "vectorised-stream-preserving-generation"),
    ("Cache key fields", "cache-key-fields"),
    ("See [the docs](other.md) now", "see-the-docs-now"),
    ("snake_case & more", "snake_case--more"),
])
def test_heading_slug_follows_github(heading, slug):
    assert checker.heading_slug(heading) == slug


@pytest.fixture
def docs(tmp_path, monkeypatch):
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    (tmp_path / "target.md").write_text(
        "# Target\n\n## Usage\n\n## Usage\n\n```bash\n# not a heading\n```\n")
    return tmp_path


def test_fragments_resolve_against_headings(docs):
    source = docs / "source.md"
    source.write_text("# Source\n[a](target.md#usage) [b](target.md#usage-1) "
                      "[c](#source) [d](target.md)\n")
    assert checker.dead_links(source) == []


@pytest.mark.parametrize("target", [
    "target.md#missing", "target.md#usage-2", "target.md#not-a-heading",
    "#nowhere"])
def test_unknown_fragment_is_reported(docs, target):
    source = docs / "source.md"
    source.write_text(f"# Source\n[x]({target})\n")
    [(reported, reason)] = checker.dead_links(source)
    assert reported == target
    assert "no heading" in reason


def test_missing_file_is_still_reported(docs):
    source = docs / "source.md"
    source.write_text("[x](gone.md#usage)\n")
    [(_, reason)] = checker.dead_links(source)
    assert "no such path" in reason


def test_repository_docs_have_no_dead_links():
    assert checker.main() == 0
