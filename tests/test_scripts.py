"""Smoke tests of the runnable examples: the scripts and the README's library code.

Each script runs in a subprocess from a fresh directory with small
arguments, the package directory on an absolute PYTHONPATH as in
criterion 12; it must exit 0 and write its CSVs under `results/`.
"""

import os
import re
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
