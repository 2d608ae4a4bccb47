import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval.corpus import PredictionRecord, ToponymAnnotation, load_brat
from geoeval.geodesy import MAX_ERROR_KM, Coordinate, great_circle_distance
from geoeval.metrics import (
    REPORT_CSV_COLUMNS,
    ErrorDistribution,
    EvalReport,
    MatchMode,
    TaggingCounts,
    accuracy_at,
    auc,
    evaluate,
    f_from_precision_recall,
    f_score,
    geocoding_errors,
    geocoding_metrics,
    match_spans,
    mean_error,
    median_error,
    render_report,
    report_csv_rows,
    tagging_metrics,
)
from geoeval.taxonomy import TaxonomyType


def _gold(doc_id, start, end, coord=None):
    return (
        doc_id,
        ToponymAnnotation(
            start=start,
            end=end,
            surface="x" * (end - start),
            toponym_type=TaxonomyType.LITERAL,
            coord=coord,
        ),
    )


def _pred(doc_id, start, end, coord=None):
    return PredictionRecord(
        doc_id=doc_id, start=start, end=end, surface="x" * (end - start), predicted_coord=coord
    )


class TestMatchSpans:
    def test_exact_match(self):
        result = match_spans([_gold("d", 0, 6)], [_pred("d", 0, 6)])
        assert (result.counts.tp, result.counts.fp, result.counts.fn) == (1, 0, 0)

    def test_mode_contrast(self):
        gold = [_gold("d", 0, 6)]
        pred = [_pred("d", 1, 6)]
        exact = match_spans(gold, pred, MatchMode.EXACT)
        overlap = match_spans(gold, pred, MatchMode.OVERLAP)
        assert (exact.counts.tp, exact.counts.fp, exact.counts.fn) == (0, 1, 1)
        assert (overlap.counts.tp, overlap.counts.fp, overlap.counts.fn) == (1, 0, 0)

    def test_unmatched_gold_is_fn(self):
        result = match_spans([_gold("d", 0, 6), _gold("d", 10, 16)], [_pred("d", 0, 6)])
        assert (result.counts.tp, result.counts.fp, result.counts.fn) == (1, 0, 1)

    def test_cross_document_never_pairs(self):
        result = match_spans([_gold("a", 0, 6)], [_pred("b", 0, 6)])
        assert (result.counts.tp, result.counts.fp, result.counts.fn) == (0, 1, 1)

    def test_one_to_one_matching(self):
        # Two identical predictions cannot both match one gold span.
        result = match_spans([_gold("d", 0, 6)], [_pred("d", 0, 6), _pred("d", 0, 6)])
        assert (result.counts.tp, result.counts.fp) == (1, 1)

    def test_overlap_prefers_larger_intersection(self):
        gold = [_gold("d", 0, 10)]
        pred = [_pred("d", 8, 12), _pred("d", 0, 9)]
        result = match_spans(gold, pred, MatchMode.OVERLAP)
        assert result.pairs[0][1].span == (0, 9)

    def test_touching_spans_do_not_overlap(self):
        result = match_spans([_gold("d", 0, 5)], [_pred("d", 5, 8)], MatchMode.OVERLAP)
        assert result.counts.tp == 0

    def test_counts_identities(self):
        gold = [_gold("d", 0, 5), _gold("d", 6, 9), _gold("e", 0, 3)]
        pred = [_pred("d", 0, 5), _pred("d", 20, 25)]
        counts = match_spans(gold, pred).counts
        assert counts.n_predicted == len(pred)
        assert counts.n_gold == len(gold)

    def test_exact_gold_spans_at_one_offset_take_predictions_in_input_order(self):
        gold = [_gold("d", 0, 6), _gold("d", 0, 6), _gold("d", 0, 6)]
        first, second = _pred("d", 0, 6, Coordinate(1, 1)), _pred("d", 0, 6, Coordinate(2, 2))
        result = match_spans(gold, [first, second])
        assert [rec for _, rec in result.pairs] == [first, second]
        assert (result.counts.tp, result.counts.fp, result.counts.fn) == (2, 0, 1)

    def test_exact_never_pairs_across_documents(self):
        gold = [_gold("a", 0, 6), _gold("b", 0, 6), _gold("b", 8, 9)]
        pred = [_pred("b", 0, 6), _pred("c", 0, 6), _pred("a", 8, 9), _pred("a", 0, 6)]
        result = match_spans(gold, pred)
        assert [(g[0], g[1].span, rec.doc_id, rec.span) for g, rec in result.pairs] == [
            ("a", (0, 6), "a", (0, 6)), ("b", (0, 6), "b", (0, 6)),
        ]


def _oracle_match_pairs(gold, pred, mode):
    """The quadratic greedy matcher: each gold span, in (start, end) order,
    scans every prediction of its document for the largest overlap."""
    pred_by_doc = {}
    for rec in pred:
        pred_by_doc.setdefault(rec.doc_id, []).append(rec)
    gold_by_doc = {}
    for doc_id, ann in gold:
        gold_by_doc.setdefault(doc_id, []).append((doc_id, ann))
    pairs = []
    for doc_id, gold_here in gold_by_doc.items():
        candidates = sorted(pred_by_doc.get(doc_id, []), key=lambda r: (r.start, r.end))
        used = [False] * len(candidates)
        for gold_span in sorted(gold_here, key=lambda g: (g[1].start, g[1].end)):
            ann = gold_span[1]
            best_j, best_overlap = -1, 0
            for j, rec in enumerate(candidates):
                if used[j]:
                    continue
                if mode is MatchMode.EXACT:
                    if (rec.start, rec.end) != (ann.start, ann.end):
                        continue
                    overlap = ann.end - ann.start
                else:
                    overlap = min(ann.end, rec.end) - max(ann.start, rec.start)
                    if overlap <= 0:
                        continue
                if overlap > best_overlap:
                    best_j, best_overlap = j, overlap
            if best_j >= 0:
                used[best_j] = True
                pairs.append((gold_span, candidates[best_j]))
    return pairs


# Few documents and offsets, so duplicate, nested and cross-document spans are common;
# document "z" is never gold.
_located_spans = st.lists(
    st.tuples(st.sampled_from("abz"), st.integers(0, 30), st.integers(1, 12)), max_size=25
)


@given(gold_raw=_located_spans, pred_raw=_located_spans, repeat=st.integers(0, 6))
@settings(max_examples=400)
def test_match_spans_agrees_with_the_quadratic_matcher(gold_raw, pred_raw, repeat):
    # Every record carries its position, so the pairs show which of two equal spans was taken.
    gold = [
        (doc, ToponymAnnotation(start=s, end=s + w, surface=f"g{i}", toponym_type=TaxonomyType.LITERAL))
        for i, (doc, s, w) in enumerate(gold_raw) if doc != "z"
    ]
    pred_raw = pred_raw + pred_raw[:repeat]  # the same offsets again, in the same documents
    pred = [PredictionRecord(doc_id=doc, start=s, end=s + w, surface=f"p{i}") for i, (doc, s, w) in enumerate(pred_raw)]
    for mode in MatchMode:
        assert match_spans(gold, pred, mode).pairs == _oracle_match_pairs(gold, pred, mode)


spans_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 8)), min_size=0, max_size=12
)


@given(gold_raw=spans_strategy, pred_raw=spans_strategy)
@settings(max_examples=200)
def test_match_spans_properties(gold_raw, pred_raw):
    gold = [_gold("d", s, s + w) for s, w in gold_raw]
    pred = [_pred("d", s, s + w) for s, w in pred_raw]
    exact = match_spans(gold, pred, MatchMode.EXACT)
    overlap = match_spans(gold, pred, MatchMode.OVERLAP)
    assert exact.counts.tp <= min(len(gold), len(pred))
    assert exact.counts.tp <= overlap.counts.tp
    for result in (exact, overlap):
        assert result.counts.tp + result.counts.fp == len(pred)
        assert result.counts.tp + result.counts.fn == len(gold)


class TestFScore:
    def test_published_row_arithmetic(self):
        # tp=981 fp=109 fn=144 gives exactly P=0.900, R=0.872.
        score = f_score(TaggingCounts(tp=981, fp=109, fn=144))
        assert score.precision == pytest.approx(0.900, abs=1e-12)
        assert score.recall == pytest.approx(0.872, abs=1e-12)
        assert score.f == pytest.approx(0.886, abs=0.0005)

    def test_zero_tp(self):
        score = f_score(TaggingCounts(tp=0, fp=5, fn=3))
        assert score.f == 0.0

    def test_perfect(self):
        score = f_score(TaggingCounts(tp=7, fp=0, fn=0))
        assert (score.precision, score.recall, score.f) == (1.0, 1.0, 1.0)

    def test_degenerate_flag(self):
        assert f_score(TaggingCounts(0, 0, 0)).degenerate
        assert f_score(TaggingCounts(0, 0, 3)).degenerate
        assert not f_score(TaggingCounts(1, 1, 1)).degenerate


@given(
    tp=st.integers(0, 500),
    fp=st.integers(0, 500),
    fn=st.integers(0, 500),
)
def test_f_bounds(tp, fp, fn):
    score = f_score(TaggingCounts(tp, fp, fn))
    assert min(score.precision, score.recall) - 1e-12 <= score.f
    assert score.f <= max(score.precision, score.recall) + 1e-12
    assert f_from_precision_recall(score.recall, score.precision) == pytest.approx(score.f)


class TestErrorDistribution:
    def test_sorted_and_validated(self):
        dist = ErrorDistribution([300.0, 100.0, 200.0])
        assert dist.errors == (100.0, 200.0, 300.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ErrorDistribution([-1.0])
        with pytest.raises(ValueError):
            ErrorDistribution([MAX_ERROR_KM + 1])

    def test_empty_allowed_but_metrics_fail(self):
        dist = ErrorDistribution([])
        assert dist.n == 0
        for metric in (mean_error, median_error, auc, accuracy_at):
            with pytest.raises(ValueError):
                metric(dist)


class TestMeanMedian:
    def test_mean(self):
        assert mean_error(ErrorDistribution([100, 300])) == 200.0
        assert mean_error(ErrorDistribution([0, 0, 0])) == 0.0

    def test_median(self):
        assert median_error(ErrorDistribution([1, 2, 3])) == 2.0
        assert median_error(ErrorDistribution([1, 2, 3, 4])) == 2.5
        assert median_error(ErrorDistribution([7])) == 7.0


class TestAccuracyAt:
    def test_half(self):
        assert accuracy_at(ErrorDistribution([0, 100, 200, 5000]), 161) == 0.5

    def test_all_zero(self):
        assert accuracy_at(ErrorDistribution([0, 0, 0]), 161) == 1.0

    def test_max_threshold(self):
        assert accuracy_at(ErrorDistribution([0, 10000, MAX_ERROR_KM]), MAX_ERROR_KM) == 1.0

    def test_threshold_inclusive(self):
        assert accuracy_at(ErrorDistribution([161.0]), 161) == 1.0

    @given(
        errors=st.lists(st.floats(0, MAX_ERROR_KM), min_size=1, max_size=50),
        t1=st.floats(0, MAX_ERROR_KM),
        t2=st.floats(0, MAX_ERROR_KM),
    )
    def test_monotone_in_threshold(self, errors, t1, t2):
        dist = ErrorDistribution(errors)
        lo, hi = min(t1, t2), max(t1, t2)
        assert accuracy_at(dist, lo) <= accuracy_at(dist, hi)


class TestAuc:
    def test_all_max_is_one(self):
        for n in (1, 2, 7, 100):
            assert auc(ErrorDistribution([MAX_ERROR_KM] * n)) == 1.0

    def test_all_zero_is_zero(self):
        for n in (1, 2, 7, 100):
            assert auc(ErrorDistribution([0.0] * n)) == 0.0

    def test_half_zero_half_max(self):
        # Closed-form trapezoid sum: area = M*(n-1)/2, so the ratio is 0.5.
        n = 1000
        dist = ErrorDistribution([0.0] * (n // 2) + [MAX_ERROR_KM] * (n // 2))
        assert abs(auc(dist) - 0.5) <= 2.0 / n

    def test_single_error(self):
        value = auc(ErrorDistribution([100.0]))
        assert value == pytest.approx(math.log1p(100.0) / math.log1p(MAX_ERROR_KM))

    def test_matches_numpy_trapezoid(self):
        # Independent oracle: numpy's trapezoid over the same log curve.
        errors = [0.0, 1.2, 35.0, 160.9, 161.1, 2000.0, 12000.0]
        dist = ErrorDistribution(errors)
        expected = np.trapezoid(np.log1p(np.sort(errors))) / (
            (len(errors) - 1) * np.log1p(MAX_ERROR_KM)
        )
        assert auc(dist) == pytest.approx(float(expected), rel=1e-12)

    @given(errors=st.lists(st.floats(0, MAX_ERROR_KM), min_size=1, max_size=60))
    def test_bounds(self, errors):
        assert 0.0 <= auc(ErrorDistribution(errors)) <= 1.0

    @given(
        errors=st.lists(st.floats(0, MAX_ERROR_KM), min_size=1, max_size=40),
        bumps=st.lists(st.floats(0, 1000), min_size=40, max_size=40),
    )
    def test_dominance(self, errors, bumps):
        dominated = ErrorDistribution(errors)
        dominating = ErrorDistribution(
            [min(e + b, MAX_ERROR_KM) for e, b in zip(errors, bumps)]
        )
        assert auc(dominating) >= auc(dominated) - 1e-12


@given(
    errors=st.lists(st.floats(0, 1000), min_size=1, max_size=30),
    scale=st.floats(0.0, 10.0),
)
def test_mean_scales_linearly(errors, scale):
    base = mean_error(ErrorDistribution(errors))
    scaled = mean_error(ErrorDistribution([e * scale for e in errors]))
    assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)


class TestGeocodingErrors:
    def test_zero_error_pair(self):
        coord = Coordinate(10, 20)
        dist, unresolved = geocoding_errors([(_gold("d", 0, 5, coord), _pred("d", 0, 5, coord))])
        assert dist.errors == (0.0,)
        assert unresolved == 0

    def test_london_paris_pair(self):
        london = Coordinate(51.5074, -0.1278)
        paris = Coordinate(48.8566, 2.3522)
        dist, _ = geocoding_errors([(_gold("d", 0, 6, london), _pred("d", 0, 6, paris))])
        assert dist.errors[0] == pytest.approx(343.5565, abs=0.05)

    def test_unresolved_counted_not_dropped(self):
        coord = Coordinate(1, 2)
        pairs = [
            (_gold("d", 0, 5, coord), _pred("d", 0, 5, None)),
            (_gold("d", 6, 9, None), _pred("d", 6, 9, coord)),
        ]
        dist, unresolved = geocoding_errors(pairs)
        assert dist.n == 0
        assert unresolved == 2


def test_perfect_pipeline_full_suite():
    coord = Coordinate(45.0, 7.0)
    gold = [_gold("d", i * 10, i * 10 + 5, coord) for i in range(20)]
    pred = [_pred("d", i * 10, i * 10 + 5, coord) for i in range(20)]
    match = match_spans(gold, pred, MatchMode.EXACT)
    score = f_score(match.counts)
    dist, unresolved = geocoding_errors(match.pairs)
    assert score.f == 1.0
    assert unresolved == 0
    assert mean_error(dist) == 0.0
    assert accuracy_at(dist, 161) == 1.0
    assert auc(dist) == 0.0


def test_report_rendering_and_csv():
    counts = TaggingCounts(tp=8, fp=2, fn=2)
    dist = ErrorDistribution([0.0, 10.0, 200.0, 500.0])
    report = EvalReport(
        dataset_id="toy",
        gazetteer_version="sha256:abc",
        n_gold=10,
        n_predicted=10,
        n_resolved=4,
        tagging=tagging_metrics(counts),
        geocoding=geocoding_metrics(dist, (161.0,)),
        warnings=["something odd"],
    )
    text = render_report(report)
    assert "dataset_id: toy" in text
    assert "gazetteer_version: sha256:abc" in text
    assert "precision: 0.800000" in text
    assert "accuracy_at_161km: 0.500000" in text
    assert "warning: something odd" in text

    # Written and read back through the csv module, every row has the
    # header's width: one row per threshold, tagging-only rows included.
    geocoding_only = EvalReport(
        dataset_id="toy, second run",
        gazetteer_version="sha256:abc",
        geocoding=geocoding_metrics(dist, (5.0, 50.0, 161.0)),
    )
    tagging_only = EvalReport(dataset_id="toy", gazetteer_version="none", tagging=tagging_metrics(counts))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_CSV_COLUMNS)
    for r in (report, tagging_only, geocoding_only):
        writer.writerows(report_csv_rows(r))
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    assert header == list(REPORT_CSV_COLUMNS)
    assert len(rows) == 1 + 1 + 3
    assert all(len(row) == len(header) for row in rows)
    cells = [dict(zip(header, row)) for row in rows]
    assert ",".join(rows[0]).startswith("toy,sha256:abc,10,10,4,")
    assert (cells[0]["threshold_km"], cells[0]["accuracy"]) == ("161", "0.500000")
    assert (cells[1]["f_score"], cells[1]["threshold_km"], cells[1]["accuracy"]) == ("0.800000", "", "")
    assert [c["dataset_id"] for c in cells[2:]] == ["toy, second run"] * 3
    assert [c["threshold_km"] for c in cells[2:]] == ["5", "50", "161"]
    assert [c["accuracy"] for c in cells[2:]] == ["0.250000", "0.500000", "0.500000"]


EVAL_TEXT = "Gondor, Rohan and Mordor."


def _docs_for_evaluate():
    ann = (
        "T1\tLiteral 0 6\tGondor\nN1\tReference T1 Coordinates:10.0,20.0\tGondor\n"
        "T2\tLiteral 8 13\tRohan\nN2\tReference T2 Coordinates:11.0,21.0\tRohan\n"
        "T3\tLiteral 18 24\tMordor\n"
    )
    return [load_brat(EVAL_TEXT, ann, doc_id="d")]


def _said(doc_id, start, end, coord=None):
    """A prediction whose surface is EVAL_TEXT at its offsets."""
    return PredictionRecord(doc_id, start, end, EVAL_TEXT[start:end], predicted_coord=coord)


def test_evaluate_tagging_with_mcnemar():
    a = [_said("d", 0, 6), _said("d", 8, 13)]
    b = [_said("d", 0, 6), _said("d", 18, 24), _said("d", 14, 17)]
    report = evaluate(_docs_for_evaluate(), a, "toy", pred_b=b)
    assert (report.n_gold, report.n_predicted, report.n_resolved) == (3, 2, 0)
    assert (report.tagging.counts, report.geocoding) == (TaggingCounts(tp=2, fp=0, fn=1), None)
    (test,) = report.stat_tests
    assert (test.name, test.statistic, test.p_value, test.n) == ("mcnemar", 0.0, 1.0, 2)  # b = c = 1
    assert report.warnings == [
        "mcnemar: only 2 disagreements; chi-squared approximation unreliable below 25"
    ]


def test_evaluate_geocoding_warnings_and_wilcoxon():
    # Without an index only gold spans with coordinates count; one match is
    # unresolved, so half the matches carry an error.
    a = [_said("d", 0, 6, Coordinate(10.0, 20.0)), _said("d", 8, 13)]
    report = evaluate(_docs_for_evaluate(), a, "toy", thresholds_km=(5.0, 161.0))
    assert (report.n_gold, report.n_resolved, report.tagging) == (2, 1, None)
    assert report.geocoding.accuracy_at_km == {5.0: 1.0, 161.0: 1.0}
    assert report.warnings == [
        "1 gold annotations without coordinates ignored (no --cache supplied)",
        "1 matched toponyms had no predicted coordinates",
    ]

    # B resolves only the span A leaves unresolved: nothing to pair.
    b = [_said("d", 8, 13, Coordinate(11.0, 21.5))]
    report = evaluate(_docs_for_evaluate(), a, "toy", thresholds_km=(161.0,), pred_b=b)
    assert report.stat_tests == []
    assert report.warnings[-1] == "wilcoxon: no toponyms resolved by both systems"

    # Paired over the gold spans both systems resolved.
    b = [_said("d", 0, 6, Coordinate(10.5, 20.0)), _said("d", 8, 13, Coordinate(11.0, 21.5))]
    report = evaluate(_docs_for_evaluate(), b, "toy", thresholds_km=(161.0,), pred_b=a)
    (test,) = report.stat_tests
    assert (test.name, test.n) == ("wilcoxon", 1)
    assert test.statistic > 0  # the first system is worse on the common span
    assert report.geocoding.mean_error_km == pytest.approx(
        (great_circle_distance(Coordinate(10.5, 20.0), Coordinate(10.0, 20.0))
         + great_circle_distance(Coordinate(11.0, 21.5), Coordinate(11.0, 21.0))) / 2
    )

    report = evaluate(_docs_for_evaluate(), [_said("d", 8, 13)], "toy", thresholds_km=(161.0,))
    assert report.geocoding is None
    assert report.warnings[1:] == [
        "only 0% of geotagged toponyms were resolved; below the 50% representativeness minimum",
        "1 matched toponyms had no predicted coordinates",
        "no resolved true positives; geocoding metrics undefined",
    ]


def test_evaluate_warns_of_predictions_for_unknown_documents():
    known = [_said("d", 0, 6)]
    ghosts = [_said("ghost", 0, 6), _said("d.txt", 8, 13)]
    report = evaluate(_docs_for_evaluate(), known + ghosts, "toy")
    assert report.tagging.counts == TaggingCounts(tp=1, fp=2, fn=2)
    assert report.warnings == ["2 predictions name documents not in the gold set"]
    assert evaluate(_docs_for_evaluate(), known, "toy").warnings == []

    # With a second system, each system's count is named by its flag.
    report = evaluate(_docs_for_evaluate(), known, "toy", thresholds_km=(161.0,), pred_b=ghosts[:1])
    assert "pred-b: 1 predictions name documents not in the gold set" in report.warnings
    assert not any(w.startswith("pred: ") for w in report.warnings)
    report = evaluate(_docs_for_evaluate(), ghosts, "toy", pred_b=ghosts[:1])
    assert report.warnings[:2] == [
        "pred: 2 predictions name documents not in the gold set",
        "pred-b: 1 predictions name documents not in the gold set",
    ]


def test_evaluate_warns_of_predictions_that_contradict_the_text():
    wrong_surface = PredictionRecord("d", 0, 6, "XXXXXX")
    past_the_end = PredictionRecord("d", 18, 999, "Mordor.")
    report = evaluate(_docs_for_evaluate(), [wrong_surface], "toy")
    assert report.tagging.counts == TaggingCounts(tp=1, fp=0, fn=2)  # offsets still score
    assert report.warnings == [
        "1 predictions run past their document's text or differ from it in surface"
    ]
    report = evaluate(_docs_for_evaluate(), [past_the_end], "toy", mode=MatchMode.OVERLAP)
    assert report.tagging.counts == TaggingCounts(tp=1, fp=0, fn=2)
    assert report.warnings == [
        "1 predictions run past their document's text or differ from it in surface"
    ]
    report = evaluate(
        _docs_for_evaluate(), [_said("d", 0, 6)], "toy", pred_b=[wrong_surface, past_the_end]
    )
    assert report.warnings[0] == (
        "pred-b: 2 predictions run past their document's text or differ from it in surface"
    )
    assert not any(w.startswith("pred: ") for w in report.warnings)
