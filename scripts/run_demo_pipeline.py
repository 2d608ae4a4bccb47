#!/usr/bin/env python3
"""Run the full evaluation pipeline on the demo dataset.

Expects a directory (default ./demo_data/) from make_demo_data.py (builds it
if missing), then: ingests the gazetteer, produces oracle and dictionary
baselines, scores geotagging (with a McNemar comparison) and geocoding (with
a Wilcoxon comparison against a perturbed system), aligns foreign
coordinates, deals folds and generates augmented training sentences. All
outputs land under its out/ subdirectory.
"""

import argparse
import os
import subprocess
import sys

from geoeval.cli import main as geoeval

MAKE_DEMO_DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "make_demo_data.py")


def run(name, argv):
    print(f"\n=== {name}: geoeval {' '.join(argv)}")
    code = geoeval(argv)
    if code != 0:
        sys.exit(f"step '{name}' failed with exit code {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="demo_data",
                        help="demo dataset to read and write under (default %(default)s)")
    demo = parser.parse_args().directory
    out = os.path.join(demo, "out")
    if not os.path.isdir(os.path.join(demo, "gold")):
        subprocess.check_call([sys.executable, MAKE_DEMO_DATA, demo])
    os.makedirs(out, exist_ok=True)

    gold = os.path.join(demo, "gold")
    cache = os.path.join(out, "gazetteer.cache")
    run("ingest", ["ingest", "--dump", os.path.join(demo, "gazetteer.tsv"), "--cache", cache])

    oracle_pred = os.path.join(out, "oracle_population.pred")
    run("baseline (oracle NER + population)", [
        "baseline", "--gold", gold, "--cache", cache, "--oracle-ner",
        "--lexicon", os.path.join(demo, "lexicon.tsv"), "--out", oracle_pred,
    ])

    dict_pred = os.path.join(out, "dictionary_population.pred")
    run("baseline (dictionary NER + population)", [
        "baseline", "--gold", gold, "--cache", cache, "--dictionary-ner", "--out", dict_pred,
    ])

    run("eval geotagging (dictionary vs oracle, McNemar)", [
        "eval-tagging", "--gold", gold, "--pred", dict_pred, "--pred-b", oracle_pred,
        "--cache", cache, "--mode", "exact",
        "--out", os.path.join(out, "tagging.report"),
        "--csv", os.path.join(out, "reports.csv"),
    ])

    # A degraded copy of the oracle system: every latitude nudged north.
    nudged_pred = os.path.join(out, "oracle_nudged.pred")
    with open(oracle_pred, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    with open(nudged_pred, "w", encoding="utf-8") as fh:
        for fields in rows:
            if fields[5]:
                fields[5] = f"{min(float(fields[5]) + 2.0, 90.0):.6f}"
            fh.write("\t".join(fields) + "\n")

    run("eval geocoding (population vs nudged copy, Wilcoxon)", [
        "eval-geocoding", "--gold", gold, "--pred", oracle_pred, "--pred-b", nudged_pred,
        "--cache", cache, "--thresholds", "5,50,161",
        "--out", os.path.join(out, "geocoding.report"),
        "--csv", os.path.join(out, "reports.csv"),
    ])

    run("align (snap nudged coordinates back to the gazetteer)", [
        "align", "--pred", nudged_pred, "--cache", cache,
        "--out", os.path.join(out, "oracle_nudged_aligned.pred"),
    ])

    run("folds", [
        "folds", "--gold", gold, "--k", "3", "--seed", "13",
        "--out", os.path.join(out, "folds.json"),
    ])

    run("augment", [
        "augment", "--gold", gold, "--max-per-source", "4", "--seed", "13",
        "--out", os.path.join(out, "augmented.conll"),
    ])

    print(f"\nAll steps finished; outputs under {out}/")


if __name__ == "__main__":
    main()
