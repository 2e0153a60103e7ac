"""``tools/bench_baseline.py``: history rows name the tree they measured."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_baseline.py"

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")


@pytest.fixture(scope="module")
def bench_baseline():
    spec = importlib.util.spec_from_file_location("bench_baseline", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo, capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_git_commit_marks_dirty_tree(bench_baseline, monkeypatch, tmp_path):
    _git(tmp_path, "init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("a\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "init")
    head = _git(tmp_path, "rev-parse", "--short", "HEAD")
    monkeypatch.setattr(bench_baseline, "REPO", tmp_path)

    assert bench_baseline._git_commit() == head
    # Untracked files do not change what a benchmark measures.
    (tmp_path / "scratch.txt").write_text("x\n")
    assert bench_baseline._git_commit() == head
    tracked.write_text("b\n")
    assert bench_baseline._git_commit() == f"{head}+dirty"


def test_git_commit_outside_a_repository(bench_baseline, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_baseline, "REPO", tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_baseline._git_commit() == "unknown"
