"""Documentation health: runtime-API doctests and markdown link checking.

Runs as part of tier-1 so the README / architecture docs cannot silently
rot: every doctest-style example in the public runtime API must execute,
and every relative link in the tracked markdown files must resolve.
"""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import repro
from repro.plan import ir
from repro.runtime import allocator, apps, pool, session

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown files whose links must stay valid.
DOC_FILES = [
    "README.md",
    "docs/architecture.md",
    "CHANGES.md",
    "ROADMAP.md",
]

#: Modules whose docstring examples form the executable API documentation.
DOCTEST_MODULES = [allocator, apps, ir, pool, session]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize(
    "module", DOCTEST_MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1]
)
def test_runtime_doctests_pass(module):
    """Equivalent to ``pytest --doctest-modules src/repro/runtime``."""
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module.__name__}"


def test_runtime_api_examples_exist():
    """The documented entry points keep doctest-style usage examples."""
    assert session.DarthPumDevice.__doc__ and ">>>" in session.DarthPumDevice.__doc__
    assert session.MatrixAllocation.__doc__ and ">>>" in session.MatrixAllocation.__doc__
    assert (session.DarthPumDevice.exec_mvm_batch.__doc__
            and ">>>" in session.DarthPumDevice.exec_mvm_batch.__doc__)
    assert pool.DevicePool.__doc__ and ">>>" in pool.DevicePool.__doc__


def test_every_all_entry_resolves():
    """Each name in each ``repro`` module's ``__all__`` exists, so a
    deletion that leaves an export behind fails here, not at a caller's
    ``from ... import *``.  ``__main__`` modules run when imported and are
    skipped."""
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    exported = [(module.__name__, name) for module in modules
                for name in getattr(module, "__all__", ())]
    assert len(exported) > 500
    missing = [f"{module}.{name}" for module, name in exported
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"__all__ names that do not exist: {missing}"


def test_reach_kept_list_names_existing_functions():
    """Every line of ``benchmarks/reach_kept.txt`` names a function ``src/``
    defines (what ``make reach`` checks before its runs), so a deletion
    that leaves its kept line behind fails here."""
    spec = importlib.util.spec_from_file_location(
        "reach", REPO_ROOT / "benchmarks" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert reach.kept_list()
    assert reach.stale_kept(reach.defined_functions()) == []


@pytest.mark.parametrize("doc", DOC_FILES)
def test_markdown_links_resolve(doc):
    path = REPO_ROOT / doc
    assert path.exists(), f"{doc} is missing"
    text = path.read_text(encoding="utf-8")
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            broken.append(target)
    assert not broken, f"{doc} has broken relative links: {broken}"


def test_readme_documents_the_tier1_command():
    """The README must tell users how to run the canonical test suite."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "python -m pytest -x -q" in text
    assert "--doctest-modules" in text


def test_changelog_has_per_pr_entries():
    """CHANGES.md keeps one `## PR N` heading per pull request."""
    text = (REPO_ROOT / "CHANGES.md").read_text(encoding="utf-8")
    entries = re.findall(r"^## PR \d+", text, flags=re.MULTILINE)
    assert len(entries) >= 2, "CHANGES.md should record PR 0 and later PRs"
