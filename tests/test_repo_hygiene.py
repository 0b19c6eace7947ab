"""Repo hygiene guards: no build artifacts in the git index.

A tracked ``.pyc`` once shadowed its source module in review diffs
(and bloated every clone); this tier-1 guard keeps bytecode and other
interpreter droppings out of the index for good.  The rules live in
the root ``.gitignore`` — this test checks both the ignore file and
the index itself, because ``.gitignore`` alone never untracks a file
that was already committed.
"""

import pathlib
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FORBIDDEN_PATTERNS = ("__pycache__/", ".pyc")


def _tracked_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if proc.returncode != 0:
        pytest.skip(f"not a git checkout: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def test_no_bytecode_tracked_in_git():
    offenders = [
        path
        for path in _tracked_files()
        if "__pycache__" in path or path.endswith(".pyc")
    ]
    assert not offenders, (
        "build artifacts tracked in git (git rm --cached them): "
        f"{offenders}"
    )


def test_gitignore_covers_interpreter_droppings():
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.exists(), "root .gitignore is missing"
    rules = gitignore.read_text().splitlines()
    for required in ("__pycache__/", "*.pyc", ".pytest_cache/", "*.egg-info/"):
        assert required in rules, f".gitignore lacks {required!r}"


def test_source_docs_cite_only_files_and_sections_that_exist():
    # docstrings once pointed at a design document that was never
    # committed; the README sections they cite instead must exist
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for folder in ("src", "examples", "benchmarks")
        for path in sorted((REPO_ROOT / folder).rglob("*.py"))
        if "DESIGN" + ".md" in path.read_text()
    ]
    assert not offenders, f"references to a missing design doc: {offenders}"
    headings = {
        line.lstrip("#").strip()
        for line in (REPO_ROOT / "README.md").read_text().splitlines()
        if line.startswith("#")
    }
    for cited in ("Layout", "Fuzzing & differential verification"):
        assert cited in headings, f"README.md has no {cited!r} section"
