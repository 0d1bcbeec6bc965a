#!/usr/bin/env python
"""Check internal links and anchors in ``docs/**/*.md`` — stdlib only.

``mkdocs build --strict`` already fails on links to missing *pages*, but
only for pages in the nav, and it does not validate ``#anchor`` fragments
against the target page's actual headings.  This checker closes both
gaps without needing the docs toolchain installed: CI runs it as the
``docs-linkcheck`` step before the mkdocs build.

Checked:

- relative links resolve to an existing file under ``docs/`` (or to a
  declared generated page, see ``GENERATED_PAGES``),
- ``page.md#fragment`` (and same-page ``#fragment``) fragments match a
  heading slug in the target page,
- reference-style definitions (``[label]: target``) get the same
  treatment.

External links (``http://``, ``https://``, ``mailto:``) are skipped —
this gate must not flake on network weather.

Usage::

    python docs/check_links.py            # check docs/**/*.md
    python docs/check_links.py README.md  # extra files to include
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

DOCS_ROOT = Path(__file__).resolve().parent
REPO_ROOT = DOCS_ROOT.parent
#: Pages ``docs/gen_catalogue.py`` writes before the site is built.  They are
#: git-ignored, so on a clean checkout a link to one is not a broken link;
#: once generated, the page and its anchors are checked like any other.
GENERATED_PAGES = {DOCS_ROOT / "studies.md"}

FENCE_RE = re.compile(r"^(```|~~~)")
INLINE_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_DEF_RE = re.compile(r"^\s{0,3}\[[^\]]+\]:\s+(\S+)")
HEADING_RE = re.compile(r"^\s{0,3}(#{1,6})\s+(.*?)\s*#*\s*$")
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def strip_code(text: str) -> list[str]:
    """Markdown lines with fenced code blocks and inline code removed."""
    lines = []
    in_fence = False
    for line in text.splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            lines.append("")
            continue
        lines.append("" if in_fence else re.sub(r"`[^`]*`", "``", line))
    return lines


def slugify(heading: str) -> str:
    """Approximate the python-markdown ``toc`` slug for a heading."""
    text = re.sub(r"[*_`]", "", heading)          # inline emphasis markers
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"[\s]+", "-", text)


def anchors_of(path: Path, cache: dict[Path, set[str]]) -> set[str]:
    if path not in cache:
        slugs: set[str] = set()
        for line in strip_code(path.read_text(encoding="utf-8")):
            match = HEADING_RE.match(line)
            if match:
                base = slugify(match.group(2))
                slug, n = base, 1
                while slug in slugs:  # duplicate headings get _1, _2, ...
                    slug, n = f"{base}_{n}", n + 1
                slugs.add(slug)
        cache[path] = slugs
    return cache[path]


def iter_links(lines: list[str]):
    for lineno, line in enumerate(lines, start=1):
        for match in INLINE_LINK_RE.finditer(line):
            yield lineno, match.group(1)
        ref = REF_DEF_RE.match(line)
        if ref:
            yield lineno, ref.group(1)


def check_file(path: Path, cache: dict[Path, set[str]]) -> list[str]:
    errors = []
    lines = strip_code(path.read_text(encoding="utf-8"))
    for lineno, raw in iter_links(lines):
        target = raw.strip("<>")
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        target, _, fragment = target.partition("#")
        where = f"{path.relative_to(REPO_ROOT)}:{lineno}"
        if not target:  # same-page anchor
            resolved = path
        else:
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                if resolved not in GENERATED_PAGES:
                    errors.append(f"{where}: broken link -> {raw}")
                continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved, cache):
                errors.append(f"{where}: missing anchor -> {raw}")
    return errors


def main(argv: list[str]) -> int:
    files = sorted(DOCS_ROOT.rglob("*.md"))
    files += [REPO_ROOT / arg for arg in argv]
    cache: dict[Path, set[str]] = {}
    errors = []
    for path in files:
        if not path.exists():
            errors.append(f"{path}: no such file")
            continue
        errors.extend(check_file(path, cache))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(files)} files: "
          f"{'FAILED' if errors else 'ok'} ({len(errors)} broken link(s))")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
