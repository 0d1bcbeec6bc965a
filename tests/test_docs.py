"""Tests for the documentation site: catalogue generation and integrity.

``mkdocs build --strict`` runs in CI (the docs toolchain is not a runtime
dependency), so these tests check the properties that build relies on
locally: the catalogue generator covers the whole registry, every page the
nav references exists (or is generated), and every ``::: module``
identifier in the API pages is importable by mkdocstrings.
"""

from __future__ import annotations

import importlib
import re
import runpy
from pathlib import Path

import pytest
import yaml

from repro.experiments.studies import STUDIES

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: Pages produced at build time rather than committed.
GENERATED_PAGES = {"studies.md"}


def _generate_catalogue() -> str:
    module = runpy.run_path(str(DOCS_DIR / "gen_catalogue.py"), run_name="docs")
    return module["generate"]()


class TestCatalogueGenerator:
    def test_every_registered_study_appears(self):
        page = _generate_catalogue()
        for study in STUDIES:
            assert f"`{study.name}`" in page

    def test_study_flags_and_artefacts_appear(self):
        page = _generate_catalogue()
        assert "`--etas`" in page and "`--prox-rhos`" in page
        assert "Table III" in page and "Fig. 8" in page
        # The closed-form study is labelled as such, not given a sweep size.
        table1_row = next(
            line for line in page.splitlines() if line.startswith("| `table1`")
        )
        assert "closed form" in table1_row

    def test_sweep_point_counts_match_the_registry(self):
        from repro.experiments.registry import StudyRequest, expand

        page = _generate_catalogue()
        study = STUDIES.get("table3")
        request = StudyRequest()
        expected = len(expand(study, study.config(request), request))
        table3_row = next(
            line for line in page.splitlines() if line.startswith("| `table3`")
        )
        assert f"| {expected} |" in table3_row

    def test_main_writes_the_page(self, tmp_path, capsys):
        module = runpy.run_path(str(DOCS_DIR / "gen_catalogue.py"), run_name="docs")
        target = tmp_path / "studies.md"
        assert module["main"](["--output", str(target)]) == 0
        assert f"{len(STUDIES)} studies" in capsys.readouterr().out
        assert "| Study |" in target.read_text(encoding="utf-8")

    def test_generator_is_deterministic(self):
        assert _generate_catalogue() == _generate_catalogue()


def _nav_pages(nav) -> list[str]:
    pages: list[str] = []
    for entry in nav:
        if isinstance(entry, str):
            pages.append(entry)
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    pages.append(value)
                else:
                    pages.extend(_nav_pages(value))
    return pages


class TestSiteIntegrity:
    @pytest.fixture(scope="class")
    def mkdocs_config(self):
        # The mkdocstrings plugin entry uses custom tags mkdocs resolves at
        # build time; BaseLoader reads the structure without interpreting.
        return yaml.load(
            (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8"),
            Loader=yaml.BaseLoader,
        )

    def test_strict_mode_is_pinned_in_config(self, mkdocs_config):
        assert mkdocs_config["strict"] == "true"

    def test_every_nav_page_exists_or_is_generated(self, mkdocs_config):
        for page in _nav_pages(mkdocs_config["nav"]):
            if page in GENERATED_PAGES:
                continue  # produced by docs/gen_catalogue.py before the build
            assert (DOCS_DIR / page).exists(), f"nav references missing {page}"

    def test_api_pages_reference_importable_modules(self):
        directive = re.compile(r"^::: ([\w.]+)$", re.MULTILINE)
        referenced = set()
        for page in (DOCS_DIR / "api").glob("*.md"):
            referenced.update(directive.findall(page.read_text(encoding="utf-8")))
        assert referenced, "no mkdocstrings directives found"
        for identifier in sorted(referenced):
            importlib.import_module(identifier)

    def test_architecture_page_names_only_code_that_exists(self):
        # The one prose file that describes the contracts: a back-ticked
        # ``nn.<module>.<Name>`` / ``repro.<...>.<Name>`` outside fenced code
        # must resolve, so a deleted class cannot outlive its code there.
        text = (DOCS_DIR / "architecture.md").read_text(encoding="utf-8")
        prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
        referenced = set(re.findall(r"`((?:repro|nn)(?:\.\w+)+)`", prose))
        assert len(referenced) > 10, "no dotted references found"
        for reference in sorted(referenced):
            parts = ("repro." * reference.startswith("nn.") + reference).split(".")
            # The longest importable prefix is the module; the rest attributes.
            for split in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:split]))
                except ModuleNotFoundError:
                    continue
                break
            for name in parts[split:]:
                assert hasattr(target, name), f"architecture.md names `{reference}`"
                target = getattr(target, name)

    def test_api_pages_cover_the_advertised_layers(self):
        pages = {page.stem for page in (DOCS_DIR / "api").glob("*.md")}
        assert {"algorithms", "federated", "systems", "experiments"} <= pages

    def test_internal_links_resolve(self):
        link = re.compile(r"\]\((?!https?://|#)([^)#\s]+)")
        for page in DOCS_DIR.rglob("*.md"):
            for target in link.findall(page.read_text(encoding="utf-8")):
                resolved = (page.parent / target).resolve()
                if resolved.name in GENERATED_PAGES:
                    continue
                assert resolved.exists(), f"{page.name} links to missing {target}"

    def test_catalogue_generator_keeps_src_importable_standalone(self):
        # The generator must run before the package is installed (CI's docs
        # job only pip-installs the docs toolchain), so it inserts src/ on
        # sys.path itself rather than relying on PYTHONPATH.
        text = (DOCS_DIR / "gen_catalogue.py").read_text(encoding="utf-8")
        assert 'sys.path.insert(0, str(REPO_ROOT / "src"))' in text


class TestLinkChecker:
    """The stdlib ``docs-linkcheck`` gate (docs/check_links.py)."""

    @pytest.fixture(scope="class")
    def checker(self):
        return runpy.run_path(str(DOCS_DIR / "check_links.py"), run_name="docs")

    def test_repo_docs_pass(self, checker, capsys):
        assert checker["main"](["README.md"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_broken_link_and_missing_anchor_fail(self, checker, capsys, tmp_path):
        rogue = DOCS_DIR / "_linkcheck_rogue.md"
        rogue.write_text(
            "[a](no-such-page.md)\n[b](index.md#no-such-anchor)\n"
            "[ok](index.md)\n[ext](https://example.com/missing)\n",
            encoding="utf-8",
        )
        try:
            assert checker["main"]([]) == 1
            err = capsys.readouterr().err
            assert "broken link -> no-such-page.md" in err
            assert "missing anchor -> index.md#no-such-anchor" in err
        finally:
            rogue.unlink()

    def test_only_declared_generated_pages_may_be_absent(self, checker):
        # docs/studies.md is git-ignored and written by gen_catalogue.py, so
        # the gate must hold on a clean checkout; the allowance is that one
        # declared page, not "any missing page".
        assert checker["GENERATED_PAGES"] == {
            DOCS_DIR / page for page in GENERATED_PAGES
        }

    def test_fenced_code_is_not_scanned(self, checker):
        errors = checker["check_file"](DOCS_DIR / "tutorials" / "robustness.md", {})
        assert errors == []

    def test_slugify_matches_toc_style(self, checker):
        assert checker["slugify"]("The adversary / defense matrix") == (
            "the-adversary-defense-matrix"
        )
        assert checker["slugify"]("Valuing clients: `repro contributions`") == (
            "valuing-clients-repro-contributions"
        )
