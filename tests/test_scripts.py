"""The experiment scripts under scripts/ run end to end at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script, expected", [
    ("run_method_comparison.py", ["Naive ASCII", "Shannon Entropy", "Chi Square"]),
    ("threshold_sweep.py", ["threshold", "7.50"]),
])
def test_corpus_script_exits_0(script, expected):
    done = _run(script, "--n", "40")
    assert done.returncode == 0, done.stderr
    for text in expected:
        assert text in done.stdout


@pytest.mark.parametrize("thresholds", [["-1"], ["7", "nan"]])
def test_threshold_sweep_bad_threshold_is_a_one_line_error(thresholds):
    done = _run("threshold_sweep.py", "--n", "10", "--thresholds", *thresholds)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.splitlines() == ["threshold_sweep.py: error: entropy_threshold must be a positive number"]


def test_fixture_demo_exits_with_the_worst_status():
    # the leaky blood pressure monitor ends LEAK, so the demo exits 2 by design
    done = _run("run_fixture_demo.py")
    assert done.returncode == 2, done.stderr
    for scenario, code in (("bp-monitor-leaky", 2), ("scale-encrypted", 0), ("mixed-home", 2)):
        assert f"== {scenario} (exit {code}) ==" in done.stdout


@pytest.mark.parametrize("script", ["run_method_comparison.py", "threshold_sweep.py"])
def test_bad_length_range_is_a_one_line_error(script):
    done = _run(script, "--n", "10", "--min-len", "100", "--max-len", "10")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.splitlines() == [f"{script}: error: bad length range (100, 10)"]
