import argparse
import collections
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval.cli import build_parser, main
from geoeval.corpus import (
    BratParseError, Document, ToponymAnnotation, load_brat, load_directory, load_predictions, serialize_brat,
)
from geoeval.geodesy import Coordinate, ascii_number
from geoeval.metrics import MatchMode, evaluate, render_report
from geoeval.taxonomy import TaxonomyType

from conftest import TOY_DUMP_LINES, write_brat_doc


def _ann_for(text, surface, type_, norm=None, extra=""):
    start = text.index(surface)
    lines = [f"T1\t{type_} {start} {start + len(surface)}\t{surface}"]
    if norm:
        lines.append(f"N1\tReference T1 {norm}\t{surface}")
    if extra:
        lines.append(extra)
    return "\n".join(lines) + "\n"


def build_corpus(tmp_path):
    gold = tmp_path / "gold"
    gold.mkdir()
    write_brat_doc(gold, "doc1", "Paris hosted the summit.",
                   _ann_for("Paris hosted the summit.", "Paris", "Literal", "Geonames:1004"))
    write_brat_doc(gold, "doc2", "London called again.",
                   _ann_for("London called again.", "London", "Literal", "Geonames:1005"))
    write_brat_doc(gold, "doc3", "Melbourne winters are mild.",
                   _ann_for("Melbourne winters are mild.", "Melbourne", "Literal", "Geonames:1001"))
    write_brat_doc(gold, "doc4", "Vancouver rain continued.",
                   _ann_for("Vancouver rain continued.", "Vancouver", "Literal", "Geonames:1006"))
    # doc5: one kept toponym plus a coordinate-less demonym (excluded).
    text5 = "Nice beaches were empty. Russians arrived."
    r_start = text5.index("Russians")
    ann5 = (
        f"T1\tLiteral 0 4\tNice\nN1\tReference T1 Geonames:1008\tNice\n"
        f"T2\tDemonym {r_start} {r_start + 8}\tRussians\n"
    )
    write_brat_doc(gold, "doc5", text5, ann5)
    # doc6: facility with a dangling gazetteer id (excluded).
    write_brat_doc(gold, "doc6", "He sat in FacHall today.",
                   _ann_for("He sat in FacHall today.", "FacHall", "Coercion", "Geonames:999777"))
    return gold


def build_cache(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "gaz.cache"
    assert main(["ingest", "--dump", str(dump), "--cache", str(cache)]) == 0
    return dump, cache


def test_ingest_counts_and_cache_hit(tmp_path, capsys):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES + ["corrupt line"]) + "\n", encoding="utf-8")
    cache = tmp_path / "gaz.cache"
    assert main(["ingest", "--dump", str(dump), "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    assert f"{len(TOY_DUMP_LINES)} ingested" in out
    assert "1 skipped" in out

    assert main(["ingest", "--dump", str(dump), "--cache", str(cache)]) == 0
    assert "cache hit" in capsys.readouterr().out


def test_ingest_feature_class_filter(tmp_path, capsys):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "gaz2.cache"
    assert main(["ingest", "--dump", str(dump), "--cache", str(cache), "--feature-classes", "P"]) == 0
    assert "filtered" in capsys.readouterr().out


@pytest.mark.parametrize("flags, config, named", [
    (["--feature-classes", "P,XX"], None, "'XX'"),
    ([], {"feature-classes": "p"}, "'p'"),
], ids=["command-line", "config"])
def test_a_feature_class_geonames_lacks_is_named_and_no_cache_written(tmp_path, capsys, flags, config, named):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "gaz.cache"
    config_flags = ["--config", _config(tmp_path, config)] if config else []
    assert main([*config_flags, "ingest", "--dump", str(dump), "--cache", str(cache), *flags]) == 1
    assert named in capsys.readouterr().err
    assert not cache.exists()


def test_baseline_oracle_population_then_eval(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "oracle.pred"
    assert main([
        "baseline", "--gold", str(gold), "--cache", str(cache),
        "--oracle-ner", "--out", str(pred),
    ]) == 0
    out = capsys.readouterr().out
    assert "7 total, 5 kept" in out
    assert "5 spans, 5 resolved" in out

    lines = pred.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5

    report_path = tmp_path / "tagging.report"
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred),
        "--cache", str(cache), "--out", str(report_path),
    ]) == 0
    report = report_path.read_text(encoding="utf-8")
    assert "f_score: 1.000000" in report
    assert "gazetteer_version: sha256:" in report
    assert "dataset_id: gold" in report

    geo_report_path = tmp_path / "geocoding.report"
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred),
        "--cache", str(cache), "--out", str(geo_report_path),
    ]) == 0
    geo_report = geo_report_path.read_text(encoding="utf-8")
    assert "mean_error_km: 0.0000" in geo_report
    assert "auc: 0.000000" in geo_report
    assert "accuracy_at_161km: 1.000000" in geo_report
    assert "n_resolved: 5" in geo_report


def test_eval_tagging_empty_predictions(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "empty.pred"
    pred.write_text("", encoding="utf-8")
    report_path = tmp_path / "report.txt"
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report_path),
    ]) == 0
    report = report_path.read_text(encoding="utf-8")
    assert "recall: 0.000000" in report
    assert "gazetteer_version: none" in report


def test_eval_tagging_without_cache_counts_all_annotations(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report_path = tmp_path / "report.txt"
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report_path)]) == 0
    assert "n_gold: 7" in report_path.read_text(encoding="utf-8")


def test_eval_tagging_mcnemar_comparison(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred_a = tmp_path / "a.pred"
    assert main([
        "baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner",
        "--out", str(pred_a),
    ]) == 0
    # System B misses doc2 and doc3.
    lines = pred_a.read_text(encoding="utf-8").splitlines()
    pred_b = tmp_path / "b.pred"
    pred_b.write_text(
        "\n".join(l for l in lines if not l.startswith(("doc2", "doc3"))) + "\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "cmp.report"
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred_a),
        "--pred-b", str(pred_b), "--cache", str(cache), "--out", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "mcnemar:" in out
    assert "stat_test: mcnemar" in report_path.read_text(encoding="utf-8")


def test_eval_geocoding_low_resolution_warning(tmp_path):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    # All five kept toponyms matched, but only two carry coordinates: 40%.
    pred = tmp_path / "partial.pred"
    pred.write_text(
        "doc1\t0\t5\tParis\tLocation\t48.856600\t2.352200\n"
        "doc2\t0\t6\tLondon\tLocation\t51.507400\t-0.127800\n"
        "doc3\t0\t9\tMelbourne\tLocation\t\t\n"
        "doc4\t0\t9\tVancouver\tLocation\t\t\n"
        "doc5\t0\t4\tNice\tLocation\t\t\n",
        encoding="utf-8",
    )
    report_path = tmp_path / "geo.report"
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred),
        "--cache", str(cache), "--out", str(report_path),
    ]) == 0
    report = report_path.read_text(encoding="utf-8")
    assert "below the 50% representativeness minimum" in report
    assert "n_resolved: 2" in report


def test_eval_geocoding_wilcoxon_comparison(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred_a = tmp_path / "a.pred"
    assert main([
        "baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner",
        "--out", str(pred_a),
    ]) == 0
    # System B: same spans, coordinates nudged north by ~0.5 degrees.
    rows = []
    for line in pred_a.read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        fields[5] = f"{float(fields[5]) + 0.5:.6f}"
        rows.append("\t".join(fields))
    pred_b = tmp_path / "b.pred"
    pred_b.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report_path = tmp_path / "wil.report"
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred_a),
        "--pred-b", str(pred_b), "--cache", str(cache), "--out", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "wilcoxon:" in out
    report = report_path.read_text(encoding="utf-8")
    assert "stat_test: wilcoxon" in report
    # A is uniformly better, so z must be negative (errors_a < errors_b).
    z_line = next(l for l in out.splitlines() if l.startswith("wilcoxon:"))
    assert "z=-" in z_line


def test_align_subcommand(tmp_path, capsys):
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "foreign.pred"
    pred.write_text(
        "doc1\t0\t9\tVancouver\tLocation\t49.280000\t-123.120000\n"
        "doc2\t0\t6\tGondor\tLocation\t1.000000\t1.000000\n",
        encoding="utf-8",
    )
    out_file = tmp_path / "aligned.pred"
    assert main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "aligned 1 of 2" in out
    assert "flagged 1" in out
    aligned = out_file.read_text(encoding="utf-8").splitlines()
    assert aligned[0].split("\t")[5] == "49.282700"  # snapped to Vancouver CA
    assert aligned[1].split("\t")[5] == "1.000000"  # passed through


def test_folds_subcommand(tmp_path, capsys):
    gold = tmp_path / "many"
    gold.mkdir()
    for i in range(200):
        write_brat_doc(gold, f"doc{i:03d}", "Paris here.", "T1\tLiteral 0 5\tParis\n")
    plan_path = tmp_path / "plan.json"
    assert main(["folds", "--gold", str(gold), "--k", "5", "--seed", "11", "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    assert plan["k"] == 5 and plan["seed"] == 11
    assert [len(f) for f in plan["folds"]] == [40] * 5
    all_ids = [doc_id for fold in plan["folds"] for doc_id in fold]
    assert len(set(all_ids)) == 200

    # Same seed reproduces the identical plan.
    plan2_path = tmp_path / "plan2.json"
    assert main(["folds", "--gold", str(gold), "--k", "5", "--seed", "11", "--out", str(plan2_path)]) == 0
    assert json.loads(plan2_path.read_text(encoding="utf-8")) == plan


def test_augment_subcommand(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    text = "The crowd reached the old square quickly."
    start = text.index("the old square")
    ann = (
        f"T1\tLiteralExpression {start} {start + len('the old square')}\tthe old square\n"
        "A1\tnon_locational T1 False\n"
    )
    write_brat_doc(gold, "doc7", text, ann)
    out_file = tmp_path / "augmented.conll"
    assert main([
        "augment", "--gold", str(gold), "--max-per-source", "3", "--seed", "4",
        "--out", str(out_file),
    ]) == 0
    out = capsys.readouterr().out
    assert "tagged sentences" in out
    content = out_file.read_text(encoding="utf-8")
    assert "\tB-Literal" in content


def test_baseline_lexicon_resolves_adjectival_surfaces(tmp_path):
    gold = tmp_path / "adj_gold"
    gold.mkdir()
    text = "Russian officials spoke."
    write_brat_doc(
        gold, "doc1", text,
        _ann_for(text, "Russian", "NonLitModifier", "Geonames:1009",
                 extra="A2\tmodifier_type T1 Adjective"),
    )
    _, cache = build_cache(tmp_path)
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("Russian\tRussia\n", encoding="utf-8")

    without = tmp_path / "without.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache),
                 "--oracle-ner", "--out", str(without)]) == 0
    assert without.read_text(encoding="utf-8").split("\t")[5] == ""  # unresolved

    with_lex = tmp_path / "with.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache),
                 "--oracle-ner", "--lexicon", str(lexicon), "--out", str(with_lex)]) == 0
    fields = with_lex.read_text(encoding="utf-8").split("\t")
    assert fields[5] == "61.524000"  # resolved to the country entry


def test_eval_tagging_overlap_mode(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "shifted.pred"
    # One-character-short span over "Paris": overlap credits it, exact does not.
    pred.write_text("doc1\t0\t4\tPari\tLocation\t\t\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred),
                 "--mode", "overlap", "--out", str(report)]) == 0
    assert "tp: 1" in report.read_text(encoding="utf-8")
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred),
                 "--mode", "exact", "--out", str(report)]) == 0
    assert "tp: 0" in report.read_text(encoding="utf-8")


def test_missing_gold_dir_is_input_error(tmp_path, capsys):
    report = tmp_path / "r.txt"
    code = main(["eval-tagging", "--gold", str(tmp_path / "nope"), "--pred", "x", "--out", str(report)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_malformed_predictions_strict_vs_lenient(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "bad.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\nnot a record\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report)]) == 1
    capsys.readouterr()
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report), "--lenient",
    ]) == 0


def test_a_pred_line_ends_at_lf_only_so_errors_name_the_files_own_lines(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "cr.pred"
    pred.write_bytes(b"doc1\t0\t5\tPar\ris\tLocation\t\t\nnot a record\n")
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path / "r.txt")]) == 1
    messages = [line for line in capsys.readouterr().err.splitlines() if line.startswith(f"{pred}:")]
    assert messages == [
        f"{pred}:1: doc1 (0, 5): surface 'Par\\ris' contains a tab or line break",
        f"{pred}:2: expected 7 fields, got 1",
    ]


def test_python_m_geoeval_prints_its_help():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "geoeval", "--help"], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert b"eval-tagging" in proc.stdout


def test_bad_gold_line_names_its_ann_file(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    (gold / "doc2.ann").write_text("T1\tLiteral zero 6\tLondon\n", encoding="utf-8")
    assert main(["folds", "--gold", str(gold), "--out", str(tmp_path / "plan.json")]) == 1
    assert f"error: {gold / 'doc2.ann'}:1: unparseable T-line" in capsys.readouterr().err


def test_undecodable_gold_text_names_its_file(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    (gold / "doc3.txt").write_bytes(b"Mel\xffbourne winters are mild.")
    assert main(["folds", "--gold", str(gold), "--out", str(tmp_path / "plan.json")]) == 1
    assert f"error: {gold / 'doc3.txt'}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_baseline_refuses_a_surface_with_a_tab(tmp_path, capsys):
    gold = tmp_path / "gold"
    gold.mkdir()
    ann = "T1\tLiteral 0 8\tNew\tYork\nN1\tReference T1 Geonames:1004\tNew York\n"
    write_brat_doc(gold, "doc1", "New\tYork rose.", ann)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "oracle.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner", "--out", str(pred)]) == 1
    assert "doc1 (0, 8)" in capsys.readouterr().err
    assert not pred.exists()


def test_baseline_refuses_a_document_id_with_a_tab(tmp_path, capsys):
    gold = tmp_path / "gold"
    gold.mkdir()
    write_brat_doc(gold, "a\tb", "Paris rose.", "T1\tLiteral 0 5\tParis\nN1\tReference T1 Geonames:1004\tParis\n")
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "oracle.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner", "--out", str(pred)]) == 1
    assert "document id 'a\\tb' contains a tab" in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--blocklist", "/nonexistent/words.txt"], "--blocklist"),
        (["--max-ngram", "0"], "--max-ngram"),
        (["--blocklist", "/nonexistent/words.txt", "--max-ngram", "0"], "--blocklist"),
    ],
    ids=["blocklist", "max-ngram", "both"],
)
def test_oracle_ner_refuses_the_dictionary_tagger_flags(tmp_path, capsys, flags, named):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "oracle.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner", *flags,
                 "--out", str(pred)]) == 1
    assert f"error: {named} applies to --dictionary-ner only" in capsys.readouterr().err
    assert not pred.exists()


def test_prediction_file_with_a_bom_scores_as_without(tmp_path):
    gold = build_corpus(tmp_path)
    record = "doc1\t0\t5\tParis\tLocation\t48.8566\t2.3522\n"
    reports = []
    for name, data in (("plain", record.encode("utf-8")), ("bom", b"\xef\xbb\xbf" + record.encode("utf-8"))):
        pred = tmp_path / f"{name}.pred"
        pred.write_bytes(data)
        report = tmp_path / f"{name}.report"
        assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report)]) == 0
        reports.append(report.read_text(encoding="utf-8"))
    assert reports[0] == reports[1]
    assert "tp: 1\nfp: 0\n" in reports[1]


def test_blocklist_with_a_bom_blocks_its_first_word(tmp_path):
    gold = tmp_path / "gold"
    gold.mkdir()
    text = "Paris and London met."
    write_brat_doc(gold, "doc1", text, _ann_for(text, "Paris", "Literal", "Geonames:1004"))
    _, cache = build_cache(tmp_path)
    blocklist = tmp_path / "block.txt"
    blocklist.write_bytes("\ufeffParis\nsummit\n".encode("utf-8"))
    pred = tmp_path / "dict.pred"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache), "--dictionary-ner",
                 "--blocklist", str(blocklist), "--out", str(pred)]) == 0
    assert [line.split("\t")[3] for line in pred.read_text(encoding="utf-8").splitlines()] == ["London"]


def test_csv_row_appended(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    csv_path = tmp_path / "rows.csv"
    for _ in range(2):
        assert main([
            "eval-tagging", "--gold", str(gold), "--pred", str(pred),
            "--out", str(report), "--csv", str(csv_path),
        ]) == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("dataset_id,gazetteer_version,")
    assert len(lines) == 3  # header + two rows

    # A geocoding report with three thresholds appends three rows in long
    # form; a dataset id with a comma round-trips.
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.856600\t2.352200\n", encoding="utf-8")
    _, cache = build_cache(tmp_path)
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred), "--cache", str(cache),
        "--thresholds", "5,50,161", "--dataset-id", "gold, run 2",
        "--out", str(report), "--csv", str(csv_path),
    ]) == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 17
    assert len(rows) == 2 + 3
    assert all(len(row) == len(header) for row in rows)
    cells = [dict(zip(header, row)) for row in rows]
    assert [c["f_score"] for c in cells] == ["0.250000"] * 2 + [""] * 3
    assert [(c["threshold_km"], c["accuracy"]) for c in cells] == [
        ("", ""), ("", ""), ("5", "1.000000"), ("50", "1.000000"), ("161", "1.000000"),
    ]
    assert [c["dataset_id"] for c in cells] == ["gold", "gold"] + ["gold, run 2"] * 3


def test_a_threshold_of_minus_zero_reads_as_zero(tmp_path):
    # -0 passes ">= 0", but must not print as "-0" in the report or the CSV.
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.856600\t2.352200\n", encoding="utf-8")
    report, csv_path = tmp_path / "r.txt", tmp_path / "rows.csv"
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred), "--cache", str(cache),
        "--out", str(report), "--csv", str(csv_path), "--thresholds=-0",
    ]) == 0
    lines = report.read_text(encoding="utf-8").splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("accuracy_at_")] == ["accuracy_at_0km"]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [row["threshold_km"] for row in csv.DictReader(fh)] == ["0"]


def test_each_threshold_label_reads_back_as_its_threshold(tmp_path):
    # Six significant digits would label the first two "161" and the third "1234.57".
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.856600\t2.352200\n", encoding="utf-8")
    report, csv_path = tmp_path / "r.txt", tmp_path / "rows.csv"
    assert main([
        "eval-geocoding", "--gold", str(gold), "--pred", str(pred), "--cache", str(cache),
        "--out", str(report), "--csv", str(csv_path), "--thresholds", "5,161,161.0000001,1234.5678",
    ]) == 0
    labels = ["5", "161", "161.0000001", "1234.5678"]
    lines = report.read_text(encoding="utf-8").splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("accuracy_at_")] == [
        f"accuracy_at_{label}km" for label in labels
    ]
    with open(csv_path, newline="", encoding="utf-8") as fh:
        assert [row["threshold_km"] for row in csv.DictReader(fh)] == labels


def _brat_refusal(value):
    with pytest.raises(BratParseError) as exc_info:
        load_brat("Paris", f"T1\tLiteral 0 5\tParis\nN1\tReference T1 {value}\tParis\n")
    return str(exc_info.value)


def _ascii_number_refusal(text):
    with pytest.raises(ValueError) as exc_info:
        ascii_number(text)
    return str(exc_info.value)


def _cli_refusal(argv, capsys):
    assert main(argv) == 1
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize(
    "refusal",
    [lambda _: _ascii_number_refusal("٥" * 5_000),
     lambda _: _brat_refusal("Geonames:" + "9" * 5_000),
     lambda _: _brat_refusal("Coordinates:0," + "x" * 5_000),
     lambda _: load_predictions(["d\t0\t5\tParis\tLocation\t" + "x" * 5_000 + "\t2\n"])[1][0].message,
     lambda capsys: _cli_refusal(["folds", "--gold", "g", "--k", "9" * 5_000, "--out", "o"], capsys),
     lambda capsys: _cli_refusal(["eval-geocoding", "--gold", "g", "--pred", "p", "--out", "o",
                                  "--thresholds", "x" * 5_000], capsys)],
    ids=["ascii_number", "brat-gazetteer-id", "brat-coordinates", "pred-coordinate", "cli-integer",
         "cli-thresholds"],
)
def test_a_refused_long_field_is_quoted_in_a_short_message(refusal, capsys):
    message = refusal(capsys)
    assert "..." in message and len(message) < 200


@pytest.mark.parametrize("ending", ["", "\r"], ids=["no-line-end", "cr-line-end"])
def test_csv_row_appended_after_a_last_row_with_no_line_feed(tmp_path, ending):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    csv_path = tmp_path / "rows.csv"
    argv = ["eval-tagging", "--gold", str(gold), "--pred", str(pred),
            "--out", str(tmp_path / "r.txt"), "--csv", str(csv_path)]
    assert main(argv) == 0
    first = csv_path.read_text(encoding="utf-8")
    csv_path.write_text(first.rstrip("\n") + ending, encoding="utf-8", newline="")
    assert main(argv) == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert rows == [rows[0], rows[0]] and len(rows[0]) == len(header)


def test_csv_row_appended_to_a_file_a_spreadsheet_saved_with_a_bom(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    csv_path = tmp_path / "rows.csv"
    argv = ["eval-tagging", "--gold", str(gold), "--pred", str(pred),
            "--out", str(tmp_path / "r.txt"), "--csv", str(csv_path)]
    assert main(argv) == 0
    first = csv_path.read_bytes()
    csv_path.write_bytes(b"\xef\xbb\xbf" + first)
    assert main(argv) == 0
    appended = csv_path.read_bytes()
    assert appended.startswith(b"\xef\xbb\xbf" + first)
    header, *rows = first.decode("utf-8").splitlines()
    assert appended[3:].decode("utf-8").splitlines() == [header, *rows, *rows]


def test_csv_file_holding_only_a_bom_gets_the_header_after_it(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    argv = ["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(tmp_path / "r.txt")]
    empty, bom = tmp_path / "empty.csv", tmp_path / "bom.csv"
    empty.write_bytes(b"")
    bom.write_bytes(b"\xef\xbb\xbf")
    assert main([*argv, "--csv", str(empty)]) == 0
    assert main([*argv, "--csv", str(bom)]) == 0
    assert bom.read_bytes() == b"\xef\xbb\xbf" + empty.read_bytes()


def test_a_cache_whose_checksum_would_forge_a_report_line_is_refused(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    first, rest = cache.read_bytes().split(b"\n", 1)
    header = {**json.loads(first), "checksum": "sha256:x\nn_gold: 999"}
    cache.write_bytes(json.dumps(header).encode("ascii") + b"\n" + rest)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--cache", str(cache),
                 "--out", str(report)]) == 1
    assert f"cannot use gazetteer cache {cache}" in capsys.readouterr().err
    assert not report.exists()


def test_a_missing_cache_is_named_with_the_rebuild_hint(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    cache = tmp_path / "none.cache"
    assert main(["baseline", "--gold", str(gold), "--cache", str(cache), "--oracle-ner",
                 "--out", str(tmp_path / "o.pred")]) == 1
    err = capsys.readouterr().err
    assert f"cannot use gazetteer cache {cache} (" in err and "rerun `geoeval ingest` to rebuild it" in err
    assert not (tmp_path / "o.pred").exists()


def test_csv_with_other_header_is_refused(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    csv_path = tmp_path / "old.csv"
    old = "dataset_id,gazetteer_version,n_gold,n_predicted,n_resolved,precision,recall,f_score\n"
    csv_path.write_text(old, encoding="utf-8")
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred),
        "--out", str(tmp_path / "r.txt"), "--csv", str(csv_path),
    ]) == 1
    assert str(csv_path) in capsys.readouterr().err
    assert csv_path.read_text(encoding="utf-8") == old


@pytest.mark.parametrize(
    "content", [b"\xff\xfe", b"x" * 200_000 + b"\n"], ids=["not-utf8", "huge-field"]
)
def test_unreadable_csv_is_named(tmp_path, capsys, content):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    csv_path = tmp_path / "rows.csv"
    csv_path.write_bytes(content)
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred),
        "--out", str(tmp_path / "r.txt"), "--csv", str(csv_path),
    ]) == 1
    assert f"geoeval: error: cannot read CSV file {csv_path}: " in capsys.readouterr().err
    assert csv_path.read_bytes() == content


def test_eval_warns_of_predictions_that_contradict_the_text(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tXXXXX\tLocation\t\t\ndoc2\t0\t999\tLondon\tLocation\t\t\n",
                    encoding="utf-8")
    report_path = tmp_path / "r.txt"
    assert main([
        "eval-tagging", "--gold", str(gold), "--pred", str(pred), "--pred-b", str(pred),
        "--mode", "overlap", "--out", str(report_path),
    ]) == 0
    report = report_path.read_text(encoding="utf-8")
    assert "tp: 2\n" in report  # the offsets still score
    for prefix in ("pred: ", "pred-b: "):
        assert (f"warning: {prefix}2 predictions run past their document's text "
                "or differ from it in surface\n") in report


def test_config_file_supplies_defaults(tmp_path):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 3, "seed": 21}), encoding="utf-8")
    plan_path = tmp_path / "plan.json"
    assert main([
        "--config", str(config), "folds", "--gold", str(gold), "--out", str(plan_path),
    ]) == 0
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    assert plan["k"] == 3 and plan["seed"] == 21


def test_config_file_supplies_required_flags(tmp_path):
    gold = build_corpus(tmp_path)
    plan_path = tmp_path / "plan.json"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gold": str(gold), "out": str(plan_path)}), encoding="utf-8")
    assert main(["--config", str(config), "folds"]) == 0
    assert json.loads(plan_path.read_text(encoding="utf-8"))["k"] == 5


def test_a_required_flag_in_neither_config_nor_command_line_is_refused(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gold": str(gold)}), encoding="utf-8")
    assert main(["--config", str(config), "folds"]) == 1
    assert "error: the following arguments are required: --out" in capsys.readouterr().err
    assert main(["folds"]) == 1
    assert "error: the following arguments are required: --gold, --out" in capsys.readouterr().err


def test_config_file_with_a_bom_supplies_defaults(tmp_path):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"k": 3}).encode("utf-8"))
    plan_path = tmp_path / "plan.json"
    assert main(["--config", str(config), "folds", "--gold", str(gold), "--out", str(plan_path)]) == 0
    assert json.loads(plan_path.read_text(encoding="utf-8"))["k"] == 3


@pytest.mark.parametrize("value", [3, "3"], ids=["int", "string"])
def test_config_value_coerced_through_flag_type(tmp_path, value):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": value}), encoding="utf-8")
    plan_path = tmp_path / "plan.json"
    assert main(["--config", str(config), "folds", "--gold", str(gold), "--out", str(plan_path)]) == 0
    assert json.loads(plan_path.read_text(encoding="utf-8"))["k"] == 3


@pytest.mark.parametrize("value", ["x", 2.5, [2], True, "٣", "1_3"])
def test_config_value_of_wrong_type_is_input_error(tmp_path, capsys, value):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": value}), encoding="utf-8")
    plan_path = tmp_path / "plan.json"
    assert main(["--config", str(config), "folds", "--gold", str(gold), "--out", str(plan_path)]) == 1
    assert "'k'" in capsys.readouterr().err
    assert not plan_path.exists()


@pytest.mark.parametrize("thresholds", ["5,161", [5, 161]], ids=["string", "list"])
def test_config_thresholds_string_or_list(tmp_path, thresholds):
    gold = build_corpus(tmp_path)
    _, cache = build_cache(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.856600\t2.352200\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"thresholds": thresholds}), encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main([
        "--config", str(config), "eval-geocoding", "--gold", str(gold), "--pred", str(pred),
        "--cache", str(cache), "--out", str(report),
    ]) == 0
    text = report.read_text(encoding="utf-8")
    assert "accuracy_at_5km: 1.000000" in text and "accuracy_at_161km: 1.000000" in text


def _config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


def test_config_turns_on_an_on_off_flag(tmp_path):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "bad.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\nnot a record\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main([
        "--config", _config(tmp_path, {"lenient": True}),
        "eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report),
    ]) == 0
    assert "tp: 1" in report.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "values, key",
    [
        ({"kk": 3}, "kk"),
        ({"lenient": "yes"}, "lenient"),
        ({"mode": "fuzzy"}, "mode"),
        # The baseline tagger is chosen on the command line only.
        ({"oracle_ner": True}, "oracle_ner"),
        ({"dataset_id": None}, "dataset_id"),
    ],
    ids=["unknown-key", "on-off-not-bool", "not-a-choice", "tagger-choice", "null-value"],
)
def test_bad_config_key_or_value_is_input_error(tmp_path, capsys, values, key):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    assert main([
        "--config", _config(tmp_path, values),
        "eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report),
    ]) == 1
    assert repr(key) in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000 + "]" * 200_000, '{"k": ' + "1" * 5_000 + "}"],
    ids=["nested-too-deep", "integer-too-long"],
)
def test_an_unreadable_config_is_named_with_exit_1(tmp_path, capsys, text):
    gold = build_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    plan_path = tmp_path / "plan.json"
    assert main(["--config", str(config), "folds", "--gold", str(gold), "--out", str(plan_path)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read config {config}: " in err and "Traceback" not in err
    assert not plan_path.exists()


def test_config_skips_other_subcommands_flags_and_yields_to_command_line(tmp_path):
    gold = build_corpus(tmp_path)
    config = _config(tmp_path, {"thresholds": "5", "lenient": True, "k": 3, "seed": 21})
    plan_path = tmp_path / "plan.json"
    assert main(["--config", config, "folds", "--gold", str(gold), "--k", "4", "--out", str(plan_path)]) == 0
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    assert plan["k"] == 4 and plan["seed"] == 21


@pytest.mark.parametrize(
    "values, argv, message",
    [
        ({"feature-classes": "p"}, ["ingest", "--dump", "{dump}", "--cache", "{out}"],
         "'feature-classes': 'p': Geonames has only the feature classes AHLPRSTUV"),
        ({"thresholds": "nan"}, ["eval-geocoding", "--gold", "{gold}", "--pred", "{pred}", "--out", "{out}"],
         "'thresholds': bad value 'nan': need finite km thresholds >= 0"),
    ],
    ids=["feature-classes", "thresholds"],
)
def test_a_refused_config_value_keeps_the_flags_reason(tmp_path, capsys, values, argv, message):
    paths = {"dump": build_cache(tmp_path)[0], "gold": build_corpus(tmp_path), "pred": tmp_path / "p.pred",
             "out": tmp_path / "out"}
    paths["pred"].write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    config = _config(tmp_path, values)
    assert main(["--config", config, *(arg.format(**paths) for arg in argv)]) == 1
    assert f"error: config {config}: {message}\n" in capsys.readouterr().err
    assert not paths["out"].exists()


@pytest.mark.parametrize("command", [["folds", "--gold", "{gold}", "--out", "{out}"], ["nosuch"]],
                         ids=["another-subcommand", "unknown-subcommand"])
def test_a_config_value_must_suit_its_flag_whichever_subcommand_runs(tmp_path, capsys, command):
    paths = {"gold": build_corpus(tmp_path), "out": tmp_path / "plan.json"}
    config = _config(tmp_path, {"thresholds": "nan"})
    assert main(["--config", config, *(arg.format(**paths) for arg in command)]) == 1
    err = capsys.readouterr().err
    assert f"error: config {config}: 'thresholds': bad value 'nan': " in err and "invalid choice" not in err
    assert not paths["out"].exists()


def test_a_config_after_the_subcommand_is_an_unrecognized_argument_and_not_read(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    plan_path = tmp_path / "plan.json"
    missing = tmp_path / "missing.json"
    assert main(["folds", "--gold", str(gold), "--out", str(plan_path), "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: --config {missing}\n" in err and "cannot read config" not in err
    assert not plan_path.exists()


def test_each_config_is_applied_in_turn(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    plan_path = tmp_path / "plan.json"
    first = tmp_path / "first.json"
    first.write_text(json.dumps({"gold": str(gold), "out": str(plan_path), "k": 3}), encoding="utf-8")
    second = tmp_path / "second.json"
    second.write_text(json.dumps({"k": 4}), encoding="utf-8")
    assert main(["--config", str(first), "--config", str(second), "folds"]) == 0
    assert json.loads(plan_path.read_text(encoding="utf-8"))["k"] == 4
    assert "dealt into 4 folds" in capsys.readouterr().out
    # Every config is an input, not only the last.
    assert main(["--config", str(first), "--config", str(second), "folds", "--out", str(first)]) == 1
    assert f"--out {first} would write over the input --config {first}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["folds", "--gold", "g", "--k", "x", "--out", "o"], ["nosuch"], [], ["folds", "--gold", "g"],
        # Values that parse but would change a score or a filter silently.
        ["eval-geocoding", "--gold", "g", "--pred", "p", "--out", "o", "--thresholds", "nan"],
        ["eval-geocoding", "--gold", "g", "--pred", "p", "--out", "o", "--thresholds", "5,-1"],
        # float() would read these as 161.0 and 5.0.
        ["eval-geocoding", "--gold", "g", "--pred", "p", "--out", "o", "--thresholds", "1_6_1,٥"],
        ["eval-geocoding", "--gold", "g", "--pred", "p", "--out", "o", "--thresholds", "161,٥"],
        ["ingest", "--dump", "d", "--cache", "c", "--feature-classes", ","],
        # Feature classes Geonames does not have, which would filter every record out.
        ["ingest", "--dump", "d", "--cache", "c", "--feature-classes", "p"],
        ["ingest", "--dump", "d", "--cache", "c", "--feature-classes", "P,XX"],
        # int() would read these as 3, 13, 4 and 10.
        ["folds", "--gold", "g", "--k", "٣", "--out", "o"],
        ["folds", "--gold", "g", "--seed", "1_3", "--out", "o"],
        ["baseline", "--gold", "g", "--cache", "c", "--dictionary-ner", "--max-ngram", "٤", "--out", "o"],
        ["augment", "--gold", "g", "--max-per-source", "1_0", "--out", "o"],
    ],
    ids=["bad-int", "unknown-subcommand", "no-subcommand", "missing-required",
         "nan-threshold", "negative-threshold", "underscored-threshold", "non-ASCII-digit-threshold",
         "no-feature-class", "lower-case-feature-class", "unknown-feature-class",
         "non-ASCII-digit-k", "underscored-seed", "non-ASCII-digit-max-ngram", "underscored-max-per-source"],
)
def test_usage_error_exits_1(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: geoeval") and "geoeval: error:" in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["folds", "--help"])
    assert exc.value.code == 0
    assert "--k K" in capsys.readouterr().out


_EVAL_FLAGS = {
    ("--gold",): ("gold", True, None, None, None),
    ("--pred",): ("pred", True, None, None, None),
    ("--pred-b",): ("pred_b", False, None, None, None),
    ("--mode",): ("mode", False, "exact", ["exact", "overlap"], None),
    ("--cache",): ("cache", False, None, None, None),
    ("--out",): ("out", True, None, None, None),
    ("--csv",): ("csv", False, None, None, None),
    ("--dataset-id",): ("dataset_id", False, None, None, None),
    ("--lenient",): ("lenient", False, False, None, True),
}

# Per subcommand (None: the top-level parser), every flag's option strings ->
# (dest, required, default, choices, const); argparse's own -h/--help is left out.
FLAG_SURFACE = {
    None: {("--config",): ("config", False, None, None, None)},
    "ingest": {
        ("--dump",): ("dump", True, None, None, None),
        ("--cache",): ("cache", True, None, None, None),
        ("--feature-classes",): ("feature_classes", False, None, None, None),
    },
    "eval-tagging": _EVAL_FLAGS,
    "eval-geocoding": {**_EVAL_FLAGS, ("--thresholds",): ("thresholds", False, "161", None, None)},
    "baseline": {
        ("--gold",): ("gold", True, None, None, None),
        ("--cache",): ("cache", True, None, None, None),
        ("--oracle-ner",): ("ner", False, None, None, "oracle"),
        ("--dictionary-ner",): ("ner", False, None, None, "dictionary"),
        ("--lexicon",): ("lexicon", False, None, None, None),
        ("--blocklist",): ("blocklist", False, None, None, None),
        ("--max-ngram",): ("max_ngram", False, 4, None, None),
        ("--populated-only",): ("populated_only", False, False, None, True),
        ("--out",): ("out", True, None, None, None),
    },
    "align": {
        ("--pred",): ("pred", True, None, None, None),
        ("--cache",): ("cache", True, None, None, None),
        ("--out",): ("out", True, None, None, None),
        ("--lenient",): ("lenient", False, False, None, True),
    },
    "folds": {
        ("--gold",): ("gold", True, None, None, None),
        ("--k",): ("k", False, 5, None, None),
        ("--seed",): ("seed", False, 13, None, None),
        ("--out",): ("out", True, None, None, None),
    },
    "augment": {
        ("--gold",): ("gold", True, None, None, None),
        ("--max-per-source",): ("max_per_source", False, 3, None, None),
        ("--seed",): ("seed", False, 13, None, None),
        ("--out",): ("out", True, None, None, None),
    },
}


def test_every_flag_keeps_its_surface():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = {None: parser, **sub.choices}
    assert list(parsers) == list(FLAG_SURFACE)
    for command, p in parsers.items():
        flags = {
            tuple(a.option_strings): (a.dest, a.required, a.default, a.choices, a.const)
            for a in p._actions if a.dest != "help" and a is not sub
        }
        assert flags == FLAG_SURFACE[command], command
    groups = [(sorted(a.option_strings[0] for a in g._group_actions), g.required)
              for p in sub.choices.values() for g in p._mutually_exclusive_groups]
    assert groups == [(["--dictionary-ner", "--oracle-ner"], True)]


def test_ingest_refuses_to_write_its_cache_over_its_dump(tmp_path, capsys):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    before = dump.read_bytes()
    assert main(["ingest", "--dump", str(dump), "--cache", str(dump)]) == 1
    assert f"--cache {dump} would write over the input --dump {dump}" in capsys.readouterr().err
    assert dump.read_bytes() == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval-tagging", "--gold", "{gold}", "--pred", "{pred}", "--out", "{pred}"],
         "--out {pred} would write over the input --pred {pred}"),
        (["eval-geocoding", "--gold", "{gold}", "--pred", "{pred}", "--pred-b", "{link}",
          "--out", "{report}", "--csv", "{pred}"],
         "--csv {pred} would write over the input --pred {pred}"),
        (["eval-tagging", "--gold", "{gold}", "--pred", "{link}", "--out", "{pred}"],
         "--out {pred} would write over the input --pred {link}"),
        (["align", "--pred", "{pred}", "--cache", "{cache}", "--out", "{pred}"],
         "--out {pred} would write over the input --pred {pred}"),
        (["--config", "{config}", "eval-tagging", "--gold", "{gold}", "--pred", "{pred}",
          "--out", "{config}"],
         "--out {config} would write over the input --config {config}"),
    ],
    ids=["eval-out-over-pred", "eval-csv-over-pred", "eval-out-over-a-hard-link", "align-in-place",
         "eval-out-over-config"],
)
def test_an_output_over_an_input_is_refused(tmp_path, capsys, argv, message):
    paths = {"gold": build_corpus(tmp_path), "cache": build_cache(tmp_path)[1],
             "pred": tmp_path / "p.pred", "link": tmp_path / "link.pred",
             "report": tmp_path / "r.txt", "config": tmp_path / "config.json"}
    paths["pred"].write_text("doc1\t0\t5\tParis\tLocation\t48.8566\t2.3522\n", encoding="utf-8")
    os.link(paths["pred"], paths["link"])
    paths["config"].write_text('{"mode": "exact"}', encoding="utf-8")
    inputs = {name: paths[name].read_bytes() for name in ("pred", "config")}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert message.format(**paths) in capsys.readouterr().err
    assert {name: paths[name].read_bytes() for name in inputs} == inputs
    assert not paths["report"].exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"csv": "{pred}"}, "--csv {pred} would write over the input --pred {pred}"),
        ({"pred-b": "{report}"}, "--out {report} would write over the input --pred-b {report}"),
        ({"csv": "{gold}/rows.csv"}, "--csv {gold}/rows.csv would write inside the input --gold {gold}"),
    ],
    ids=["output-from-config", "input-from-config", "output-into-gold-from-config"],
)
def test_a_path_from_the_config_keeps_its_flags_role(tmp_path, capsys, config, message):
    paths = {"gold": build_corpus(tmp_path), "pred": tmp_path / "p.pred", "report": tmp_path / "r.txt"}
    paths["pred"].write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    config = _config(tmp_path, {key: value.format(**paths) for key, value in config.items()})
    argv = ["--config", config, "eval-geocoding", "--gold", str(paths["gold"]), "--pred", str(paths["pred"]),
            "--out", str(paths["report"])]
    assert main(argv) == 1
    assert message.format(**paths) in capsys.readouterr().err
    assert paths["pred"].read_text(encoding="utf-8") == "doc1\t0\t5\tParis\tLocation\t\t\n"
    assert not paths["report"].exists() and not (paths["gold"] / "rows.csv").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval-tagging", "--gold", "{gold}", "--pred", "{pred}", "--out", "{gold}/doc1.txt"],
         "--out {gold}/doc1.txt would write inside the input --gold {gold}"),
        (["baseline", "--gold", "{gold}", "--cache", "{cache}", "--oracle-ner", "--out", "{gold}/new.pred"],
         "--out {gold}/new.pred would write inside the input --gold {gold}"),
        (["eval-tagging", "--gold", "{gold}", "--pred", "{pred}", "--out", "{report}", "--csv", "{report}"],
         "--out {report} and --csv {report} name one file"),
        (["eval-tagging", "--gold", "{gold}", "--pred", "{pred}", "--out", "{report}",
          "--csv", "{gold}/../r.txt"],
         "--out {report} and --csv {gold}/../r.txt name one file"),
    ],
    ids=["eval-out-over-a-gold-document", "baseline-out-into-gold", "out-and-csv-one-new-file",
         "out-and-csv-one-file-spelt-twice"],
)
def test_an_output_inside_gold_or_named_twice_is_refused(tmp_path, capsys, argv, message):
    paths = {"gold": build_corpus(tmp_path), "cache": build_cache(tmp_path)[1],
             "pred": tmp_path / "p.pred", "report": tmp_path / "r.txt"}
    paths["pred"].write_text("doc1\t0\t5\tParis\tLocation\t48.8566\t2.3522\n", encoding="utf-8")
    gold = {f.name: f.read_bytes() for f in paths["gold"].iterdir()}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert message.format(**paths) in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in paths["gold"].iterdir()} == gold
    assert not paths["report"].exists()


@pytest.mark.parametrize(
    "what, argv",
    [
        ("predictions", ["eval-tagging", "--gold", "{gold}", "--pred", "{bad}", "--out", "{out}"]),
        ("lexicon", ["baseline", "--gold", "{gold}", "--cache", "{cache}", "--oracle-ner",
                     "--lexicon", "{bad}", "--out", "{out}"]),
        ("blocklist", ["baseline", "--gold", "{gold}", "--cache", "{cache}", "--dictionary-ner",
                       "--blocklist", "{bad}", "--out", "{out}"]),
        ("config", ["--config", "{bad}", "folds", "--gold", "{gold}", "--out", "{out}"]),
    ],
    ids=["predictions", "lexicon", "blocklist", "config"],
)
def test_undecodable_operator_file_is_named(tmp_path, capsys, what, argv):
    paths = {"gold": build_corpus(tmp_path), "cache": build_cache(tmp_path)[1],
             "bad": tmp_path / "utf16.txt", "out": tmp_path / "out"}
    paths["bad"].write_bytes(b"\xff\xfe")
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read {what} {paths['bad']}: 'utf-8' codec can't decode byte 0xff" in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("dataset_id", ["a\nn_gold: 999", "a\rb", "a\u2028b"],
                         ids=["LF", "CR", "line-separator"])
def test_dataset_id_of_more_than_one_line_is_refused(tmp_path, capsys, dataset_id):
    gold = build_corpus(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report, rows = tmp_path / "r.txt", tmp_path / "rows.csv"
    assert main(["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report),
                 "--csv", str(rows), "--dataset-id", dataset_id]) == 1
    assert f"dataset id {dataset_id!r} must be one non-empty line" in capsys.readouterr().err
    assert not report.exists() and not rows.exists()


def test_gold_directory_name_with_a_line_break_needs_a_dataset_id(tmp_path, capsys):
    gold = build_corpus(tmp_path).rename(tmp_path / "gold\nn_gold: 999")
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\n", encoding="utf-8")
    report = tmp_path / "r.txt"
    argv = ["eval-geocoding", "--gold", str(gold), "--pred", str(pred), "--out", str(report)]
    assert main(argv) == 1
    assert "dataset id 'gold\\nn_gold: 999' must be one non-empty line" in capsys.readouterr().err
    assert not report.exists()
    assert main(argv + ["--dataset-id", "gold"]) == 0
    assert report.read_text(encoding="utf-8").startswith("dataset_id: gold\n")


def test_a_prediction_offset_too_long_to_read_is_named_with_its_line(tmp_path, capsys):
    gold = build_corpus(tmp_path)
    pred, report = tmp_path / "p.pred", tmp_path / "r.txt"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t\t\ndoc2\t0\t" + "9" * 5_000 + "\tLondon\tLocation\t\t\n",
                    encoding="utf-8")
    argv = ["eval-tagging", "--gold", str(gold), "--pred", str(pred), "--out", str(report)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{pred}:2: an offset has too many digits\n" in err
    assert len(err) < 300 + 2 * len(str(pred))
    assert not report.exists()
    assert main(argv + ["--lenient"]) == 0
    assert "n_predicted: 1\n" in report.read_text(encoding="utf-8")


_WRITERS = {
    "ingest": (["ingest", "--dump", "{dump}", "--cache", "{bad}"], "--cache"),
    "baseline": (["baseline", "--gold", "{gold}", "--cache", "{cache}", "--oracle-ner", "--out", "{bad}"],
                 "--out"),
    "eval-tagging": (["eval-tagging", "--gold", "{gold}", "--pred", "{pred}", "--out", "{tmp}/r.txt",
                      "--csv", "{bad}"], "--csv"),
    "eval-geocoding": (["eval-geocoding", "--gold", "{gold}", "--pred", "{pred}", "--out", "{bad}"], "--out"),
    "align": (["align", "--pred", "{pred}", "--cache", "{cache}", "--out", "{bad}"], "--out"),
    "folds": (["folds", "--gold", "{gold}", "--out", "{bad}"], "--out"),
    "augment": (["augment", "--gold", "{gold}", "--out", "{bad}"], "--out"),
}


@pytest.mark.parametrize("bad", ["{tmp}/missing/out", "{tmp}/a_directory", ""],
                         ids=["no-such-directory", "a-directory", "empty"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_an_output_no_file_can_be_written_at_is_refused_before_any_input_is_read(tmp_path, capsys, command,
                                                                                 bad):
    gold = build_corpus(tmp_path)
    dump, cache = build_cache(tmp_path)
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8566\t2.3522\n", encoding="utf-8")
    (tmp_path / "a_directory").mkdir()
    bad = bad.format(tmp=tmp_path)
    argv, flag = _WRITERS[command]
    paths = {"tmp": tmp_path, "gold": gold, "dump": dump, "cache": cache, "pred": pred, "bad": bad}
    before = sorted((p, p.is_dir() or p.read_bytes()) for p in tmp_path.rglob("*"))
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert f"error: {flag} {bad} is not a file in an existing directory\n" in capsys.readouterr().err
    assert sorted((p, p.is_dir() or p.read_bytes()) for p in tmp_path.rglob("*")) == before


def test_a_gold_directory_without_document_pairs_is_refused(tmp_path, capsys):
    gold = tmp_path / "gold"
    gold.mkdir()
    (gold / "orphan.txt").write_text("Paris sleeps.", encoding="utf-8")
    assert main(["folds", "--gold", str(gold), "--out", str(tmp_path / "folds.json")]) == 1
    assert f"error: no .txt/.ann document pairs under {gold}\n" in capsys.readouterr().err
    assert not (tmp_path / "folds.json").exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"gold"', "null"], ids=["list", "string", "null"])
def test_a_config_that_is_not_a_json_object_is_refused(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    argv = ["--config", str(config), "folds", "--gold", str(build_corpus(tmp_path)),
            "--out", str(tmp_path / "f.json")]
    assert main(argv) == 1
    assert f"error: config {config} must be a JSON object\n" in capsys.readouterr().err
    assert not (tmp_path / "f.json").exists()


_TEXT = "Alba met Brno and Cork, then Dover met Essen in Fife."
_WORDS = [m.span() for m in re.finditer(r"\w+", _TEXT)]
# Few spans, some overlapping several words, so that predictions often tie on a span.
_SPANS = _WORDS[:2] + [(0, 8), (2, 6)]
_COORDS = st.builds(Coordinate, st.integers(-90, 90).map(float), st.integers(-180, 180).map(float))


@st.composite
def _corpus_and_systems(draw):
    """Documents over one text, and the prediction lines of two systems."""
    docs = []
    for i in range(draw(st.integers(1, 2))):
        spans = draw(st.lists(st.sampled_from(_WORDS[:4]), unique=True, max_size=4))
        docs.append(Document(f"d{i}", _TEXT, [
            ToponymAnnotation(s, e, _TEXT[s:e], TaxonomyType.LITERAL, coord=draw(_COORDS | st.none()))
            for s, e in sorted(spans)
        ]))
    line = st.tuples(st.sampled_from([d.doc_id for d in docs] + ["elsewhere"]), st.sampled_from(_SPANS),
                     st.none() | _COORDS).map(
        lambda t: f"{t[0]}\t{t[1][0]}\t{t[1][1]}\t{_TEXT[t[1][0]:t[1][1]]}\tLocation\t"
                  + (f"{t[2].lat:.6f}\t{t[2].lon:.6f}\n" if t[2] else "\t\n"))
    return docs, draw(st.lists(line, max_size=12)), draw(st.none() | st.lists(line, max_size=12))


def _shuffled_keeping_span_ties(records, order):
    """`records` in `order`, except that records of one (doc_id, start, end) keep their relative order."""
    queues = collections.defaultdict(collections.deque)
    for rec in records:
        queues[rec.doc_id, rec.span].append(rec)
    return [queues[records[i].doc_id, records[i].span].popleft() for i in order]


@pytest.mark.parametrize("mode", ["exact", "overlap"])
@pytest.mark.parametrize("command", ["eval-tagging", "eval-geocoding"])
@given(data=_corpus_and_systems(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_the_report_file_is_the_rendered_evaluation_whatever_the_input_order(command, mode, data, rnd):
    docs, lines, lines_b = data
    thresholds = [5.0, 161.0] if command == "eval-geocoding" else None
    with tempfile.TemporaryDirectory() as tmp:
        gold, pred, pred_b, out = (os.path.join(tmp, name) for name in ("gold", "a.pred", "b.pred", "r.txt"))
        os.mkdir(gold)
        for doc in docs:
            text, ann = serialize_brat(doc)
            Path(gold, f"{doc.doc_id}.txt").write_text(text, encoding="utf-8")
            Path(gold, f"{doc.doc_id}.ann").write_text(ann, encoding="utf-8")
        Path(pred).write_text("".join(lines), encoding="utf-8")
        argv = [command, "--gold", gold, "--pred", pred, "--mode", mode, "--out", out, "--dataset-id", "prop"]
        if lines_b is not None:
            Path(pred_b).write_text("".join(lines_b), encoding="utf-8")
            argv += ["--pred-b", pred_b]
        if thresholds:
            argv += ["--thresholds", "5,161"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        written = Path(out).read_bytes()
        loaded = load_directory(gold)
    records, errors = load_predictions(lines)
    records_b = load_predictions(lines_b)[0] if lines_b is not None else None
    assert errors == []

    def report(docs, records, records_b):
        return render_report(evaluate(docs, records, "prop", mode=MatchMode(mode), thresholds_km=thresholds,
                                      pred_b=records_b)).encode("utf-8")

    assert written == report(loaded, records, records_b)
    rnd.shuffle(loaded)
    shuffled = _shuffled_keeping_span_ties(records, rnd.sample(range(len(records)), len(records)))
    if records_b is not None:
        records_b = _shuffled_keeping_span_ties(records_b, rnd.sample(range(len(records_b)), len(records_b)))
    assert written == report(loaded, shuffled, records_b)
