"""Golden-report test of the demo pipeline.

Builds the demo dataset with scripts/make_demo_data.py, runs every step of
scripts/run_demo_pipeline.py and compares the text reports, the paired
significance-test stdout lines, the augmented sentences, the augment
summary lines, the gazetteer cache, the baseline and aligned prediction
files, the fold plan, the summary CSV and the whole stdout (less the lines
that name the output directory) byte for byte with the files under
tests/data/. A change to any metric, report line, test statistic,
prediction, augmented sentence or cache byte on the demo data shows up here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")


def _run(script, *args, cwd=ROOT):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        cwd=cwd, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    return proc.stdout


def _golden(name):
    with open(os.path.join(DATA, name), "rb") as fh:
        return fh.read()


def test_demo_reports_match_golden_files(tmp_path):
    demo = str(tmp_path / "demo")
    _run("make_demo_data.py", demo)
    stdout = _run("run_demo_pipeline.py", demo)

    out = tmp_path / "demo" / "out"
    assert (out / "tagging.report").read_bytes() == _golden("demo_tagging.report")
    assert (out / "geocoding.report").read_bytes() == _golden("demo_geocoding.report")
    assert (out / "augmented.conll").read_bytes() == _golden("demo_augmented.conll")
    assert (out / "gazetteer.cache").read_bytes() == _golden("demo_gazetteer.cache")
    for name in ("oracle_population.pred", "dictionary_population.pred",
                 "oracle_nudged_aligned.pred", "folds.json", "reports.csv"):
        assert (out / name).read_bytes() == _golden("demo_" + name), name
    lines = stdout.splitlines(keepends=True)
    stat_lines = b"".join(line for line in lines if line.startswith((b"mcnemar:", b"wilcoxon:")))
    assert stat_lines == _golden("demo_stat_lines.txt")
    augment_lines = b"".join(line for line in lines if line.startswith((b"contexts:", b"heads:")))
    assert augment_lines == _golden("demo_augment_lines.txt")
    # The step headers and the closing line name the (temporary) output directory.
    pathless = b"".join(line for line in lines if not line.startswith((b"===", b"All steps finished")))
    assert pathless == _golden("demo_stdout.txt")


def test_each_demo_script_prints_its_help_and_writes_nothing(tmp_path):
    for script in ("make_demo_data.py", "run_demo_pipeline.py"):
        assert _run(script, "--help", cwd=tmp_path).startswith(f"usage: {script} [-h] [directory]".encode())
    assert list(tmp_path.iterdir()) == []


def test_demo_pipeline_run_from_another_directory_builds_its_data_and_matches_the_golden_files(tmp_path):
    _run("run_demo_pipeline.py", cwd=tmp_path)
    out = tmp_path / "demo_data" / "out"
    for name in ("tagging.report", "geocoding.report", "augmented.conll", "gazetteer.cache",
                 "oracle_population.pred", "dictionary_population.pred", "oracle_nudged_aligned.pred",
                 "folds.json", "reports.csv"):
        assert (out / name).read_bytes() == _golden("demo_" + name), name
