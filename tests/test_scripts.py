"""Smoke tests of the runnable examples: the scripts and the README's library code.

Each script runs in a subprocess from a fresh directory with small
arguments, the package directory on an absolute PYTHONPATH as in
criterion 12; it must exit 0 and write its CSVs under `results/`.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import uavrelay

REPO = Path(__file__).resolve().parent.parent

#: Each script with arguments small enough for a fraction of a second.
SCRIPT_ARGS = {
    "locus_curve.py": ["--samples", "20", "--powers", "5"],
    "fleet_sweep.py": ["--steps", "1"],
    "distributed_convergence.py": ["--fleets", "3", "--epsilon", "1"],
    "altitude_study.py": ["--n-uavs", "3", "--epsilon", "1",
                          "--iterations", "1"],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGS))
def test_script_runs(tmp_path, script):
    env = dict(os.environ)
    package_root = str(Path(uavrelay.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *SCRIPT_ARGS[script]],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert list((tmp_path / "results").rglob("*.csv"))


def test_readme_library_example(capsys):
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    sir, uav_count = capsys.readouterr().out.split()
    assert float(sir) > 0.0 and int(uav_count) >= 1


def test_compare_answers_finds_no_difference_between_a_tree_and_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(REPO), "--draws", "3"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "refine_altitudes: 7 answers (0 raised errors), 0 differ")


def test_compare_answers_dualhop_corpus_runs_on_a_tree_and_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(REPO), "--planner", "dualhop", "--draws", "3"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "dualhop: 133 answers (0 raised errors), 0 differ")


def test_compare_answers_exhaustive_corpus_runs_on_a_tree_and_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(REPO), "--planner", "exhaustive", "--draws", "3"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "exhaustive: 153 answers (0 raised errors), 0 differ")


def test_compare_answers_distributed_corpus_runs_on_a_tree_and_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(REPO), "--planner", "distributed", "--draws", "3"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "distributed: 35 answers (1 raised errors), 0 differ")


def test_compare_answers_stochastic_corpus_runs_on_a_tree_and_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(REPO), "--planner", "stochastic", "--draws", "3"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "stochastic: 82 answers (6 raised errors), 0 differ")


#: Appended to a copy of the package: every refinement's history gains a
#: last value, so every answer of the `refine_altitudes` corpus differs.
SHIFT_REFINEMENTS = '''
from . import multihop as _multihop
_refine_altitudes = _multihop.refine_altitudes


def _shifted(*args, **kwargs):
    placement, history = _refine_altitudes(*args, **kwargs)
    return placement, history + [0.0]


_multihop.refine_altitudes = _shifted
'''


@pytest.fixture(scope="module")
def shifted_tree(tmp_path_factory):
    done = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if done.returncode != 0:
        pytest.skip("the repository is not a git checkout")
    tree = tmp_path_factory.mktemp("shifted")
    shutil.copytree(REPO / "src" / "uavrelay", tree / "src" / "uavrelay",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tree / "src" / "uavrelay" / "__init__.py", "a") as init:
        init.write(SHIFT_REFINEMENTS)
    return tree, done.stdout.strip()


def compare_expecting(tmp_path, tree_b, base, labels):
    """compare_answers.py REPO tree_b on one draw, with an --expect file."""
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(
        {"base": base, "differ": {"refine_altitudes": labels}}))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compare_answers.py"),
         str(REPO), str(tree_b), "--draws", "1", "--expect", str(expect)],
        capture_output=True, text=True)


REFINE_LABELS = ["benchmark seed 1501 refinement 0", "signed-zero first hop",
                 "random draw 0"]


def test_compare_answers_passes_when_exactly_the_expected_labels_differ(
        tmp_path, shifted_tree):
    tree, head = shifted_tree
    done = compare_expecting(tmp_path, tree, head, REFINE_LABELS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "refine_altitudes: 3 answers (0 raised errors), 3 differ, 3 expected to")
    assert done.stdout.count("differs as expected: ") == 3


def test_compare_answers_fails_unless_the_expected_labels_differ(
        tmp_path, shifted_tree):
    tree, head = shifted_tree
    # One label differs that the file does not list.
    done = compare_expecting(tmp_path, tree, head, REFINE_LABELS[:2])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "differs: random draw 0" in done.stdout
    # A listed label does not differ.
    done = compare_expecting(tmp_path, REPO, head, REFINE_LABELS[:1])
    assert done.returncode == 1, done.stdout + done.stderr
    assert ("expected to differ, but does not: benchmark seed 1501 refinement 0"
            in done.stdout)


def test_compare_answers_ignores_an_expect_file_for_another_base(
        tmp_path, shifted_tree):
    """A file left by an earlier change can neither pass nor fail a run."""
    tree, head = shifted_tree
    stale = "0" * 40
    done = compare_expecting(tmp_path, tree, stale, REFINE_LABELS)
    assert done.returncode == 1, done.stdout + done.stderr
    assert f"is for base {stale}, not {head} commit" in done.stdout
    done = compare_expecting(tmp_path, REPO, stale, REFINE_LABELS)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == (
        "refine_altitudes: 3 answers (0 raised errors), 0 differ, 0 expected to")
