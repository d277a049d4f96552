#!/usr/bin/env python
"""Check intra-repository links in the markdown docs.

Scans ``docs/*.md`` plus the top-level markdown files for
``[text](target)`` links and verifies that every non-external target
(no scheme) resolves to an existing file or directory relative to the
linking document, and that a ``#fragment`` into a markdown file (or into
the linking document itself) names one of its headings, slugged the way
GitHub renders heading anchors.  Exits non-zero listing every dead link.
Run from anywhere::

    python scripts/check_doc_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from urllib.parse import unquote

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown files whose links are checked.
DOC_FILES = sorted(
    list((REPO_ROOT / "docs").glob("*.md")) + list(REPO_ROOT.glob("*.md"))
)

#: inline markdown links; deliberately simple — the docs do not use
#: reference-style links or angle-bracket targets.
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

EXTERNAL = ("http://", "https://", "mailto:")

#: an ATX heading line (``## Title``), closing hashes optional.
HEADING_RE = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$")

#: a fenced code block delimiter: headings inside fences are code.
FENCE_RE = re.compile(r"^ {0,3}(```|~~~)")


def heading_slug(heading: str) -> str:
    """GitHub's anchor for a heading: the rendered text (link targets
    and backticks dropped), lower-cased, every character other than a
    word character, hyphen or space removed, spaces turned to hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).replace("`", "")
    text = re.sub(r"[^\w\- ]", "", text.lower())
    return text.replace(" ", "-")


def anchors(path: Path) -> set:
    """Every heading anchor of ``path``; a repeated slug gets ``-1``,
    ``-2``, ... as on GitHub."""
    seen: dict = {}
    result = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        match = None if in_fence else HEADING_RE.match(line)
        if match is None:
            continue
        slug = heading_slug(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        result.add(slug if count == 0 else f"{slug}-{count}")
    return result


def dead_links(path: Path) -> list:
    """Return (target, reason) pairs for every unresolvable link in ``path``."""
    problems = []
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(EXTERNAL):
            continue
        plain, _, fragment = target.partition("#")
        resolved = (path.parent / plain).resolve() if plain else path
        if not resolved.exists():
            problems.append((target, f"no such path: {resolved}"))
        elif REPO_ROOT not in resolved.parents and resolved != REPO_ROOT:
            problems.append((target, "points outside the repository"))
        elif fragment and resolved.suffix == ".md" and \
                unquote(fragment) not in anchors(resolved):
            problems.append((target, f"no heading #{fragment} in "
                                     f"{resolved.name}"))
    return problems


def main() -> int:
    failures = 0
    for path in DOC_FILES:
        for target, reason in dead_links(path):
            print(f"{path.relative_to(REPO_ROOT)}: dead link {target!r} ({reason})")
            failures += 1
    checked = len(DOC_FILES)
    if failures:
        print(f"{failures} dead link(s) across {checked} files")
        return 1
    print(f"all intra-repo links resolve ({checked} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
