"""Geotagging and geocoding metric suite.

Geotagging is scored with precision/recall/F over matched spans (exact or
overlap matching). Geocoding is scored over the great-circle errors of the
geotagging true positives with three complementary metrics: mean error,
accuracy@X km, and the area under the log-scaled error curve (AUC), plus
the median for reference. AUC uses ln(1 + x) rather than a bare logarithm
so that zero-error resolutions integrate to zero instead of diverging; the
normaliser ln(1 + 20039) keeps the all-worst-case distribution at exactly
1.0. `evaluate` runs the whole scoring of one system (gold selection,
matching, one metric section, the paired test against a second system)
for both eval subcommands. Every view of a report is rendered here too:
the report text and CSV rows, which `write_report` writes and appends,
and each paired test's stdout verdict line (`stat_test_line`).
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

from . import corpus
from .corpus import PredictionRecord, ToponymAnnotation
from .gazetteer import GazetteerIndex
from .geodesy import MAX_ERROR_KM, great_circle_distance
from .stats import McNemarTable, StatTestResult, mcnemar, wilcoxon_signed_rank

DEFAULT_THRESHOLD_KM = 161.0

# Evaluating on fewer resolved toponyms than this fraction of the
# geotagged ones risks an unrepresentative geocoding sample.
MIN_RESOLVED_FRACTION = 0.5

# Significance levels each paired test's verdict line is stated at.
REPORTING_ALPHAS = (0.05, 0.01)

_LOG_MAX = math.log1p(MAX_ERROR_KM)

GoldSpan = tuple[str, ToponymAnnotation]
MatchedPair = tuple[GoldSpan, PredictionRecord]
GoldKey = tuple[str, int, int]  # (doc_id, start, end): what paired tests compare on


class MatchMode(Enum):
    EXACT = "exact"
    OVERLAP = "overlap"


@dataclass(frozen=True)
class TaggingCounts:
    tp: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n_gold(self) -> int:
        return self.tp + self.fn

    @property
    def n_predicted(self) -> int:
        return self.tp + self.fp


@dataclass
class SpanMatchResult:
    counts: TaggingCounts
    pairs: list[MatchedPair]


def match_spans(
    gold: Sequence[GoldSpan],
    pred: Sequence[PredictionRecord],
    mode: MatchMode = MatchMode.EXACT,
) -> SpanMatchResult:
    """Greedily match gold spans to predictions within each document.

    Gold spans are visited in (start, end) order; each takes the unmatched
    prediction with the largest overlap, the earliest in (start, end) order
    (then input order) on a tie. Exact mode requires identical offsets.
    Every gold span matches at most one prediction and vice versa.
    Unmatched predictions are false positives, unmatched gold spans false
    negatives. Pairs come out document by document, in gold visiting order.
    """
    pred_by_doc: dict[str, list[PredictionRecord]] = defaultdict(list)
    for rec in pred:
        pred_by_doc[rec.doc_id].append(rec)
    gold_by_doc: dict[str, list[GoldSpan]] = defaultdict(list)
    for doc_id, ann in gold:
        gold_by_doc[doc_id].append((doc_id, ann))

    match_document = _match_exact if mode is MatchMode.EXACT else _match_overlap
    pairs: list[MatchedPair] = []
    for doc_id, gold_here in gold_by_doc.items():
        gold_here.sort(key=lambda g: (g[1].start, g[1].end))
        pairs.extend(match_document(gold_here, pred_by_doc.get(doc_id, [])))

    tp = len(pairs)
    counts = TaggingCounts(tp=tp, fp=len(pred) - tp, fn=len(gold) - tp)
    return SpanMatchResult(counts=counts, pairs=pairs)


def _match_exact(gold: list[GoldSpan], pred: list[PredictionRecord]) -> Iterable[MatchedPair]:
    """Join on offsets: each gold span takes the first prediction left at its (start, end).

    Both record types refuse start >= end, so equal offsets always overlap.
    """
    waiting: dict[tuple[int, int], list[PredictionRecord]] = defaultdict(list)
    for rec in reversed(pred):  # so that pop() hands them out in input order
        waiting[rec.span].append(rec)
    for gold_span in gold:
        left = waiting.get(gold_span[1].span)
        if left:
            yield gold_span, left.pop()


def _match_overlap(gold: list[GoldSpan], pred: list[PredictionRecord]) -> Iterable[MatchedPair]:
    """Sweep the gold spans, in order, over the predictions sorted by (start, end).

    `active` holds, in sorted order, the unmatched predictions that start
    before the end of some gold span visited so far. A prediction that ends
    at or before a gold start overlaps no later gold span either (gold
    starts never decrease), so it leaves for good.
    """
    ordered = sorted(pred, key=lambda r: (r.start, r.end))
    active: list[PredictionRecord] = []
    admitted = 0
    for gold_span in gold:
        ann = gold_span[1]
        while admitted < len(ordered) and ordered[admitted].start < ann.end:
            active.append(ordered[admitted])
            admitted += 1
        kept: list[PredictionRecord] = []
        best_i, best_overlap = -1, 0
        for rec in active:
            if rec.end <= ann.start:
                continue
            overlap = min(ann.end, rec.end) - max(ann.start, rec.start)
            if overlap > best_overlap:
                best_i, best_overlap = len(kept), overlap
            kept.append(rec)
        if best_i >= 0:
            yield gold_span, kept.pop(best_i)
        active = kept


@dataclass(frozen=True)
class FScore:
    precision: float
    recall: float
    f: float
    counts: TaggingCounts
    degenerate: bool = False  # a denominator was zero


def f_from_precision_recall(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_score(counts: TaggingCounts) -> FScore:
    """Precision, recall and their harmonic mean; zero denominators give 0."""
    degenerate = counts.n_predicted == 0 or counts.n_gold == 0
    precision = counts.tp / counts.n_predicted if counts.n_predicted else 0.0
    recall = counts.tp / counts.n_gold if counts.n_gold else 0.0
    return FScore(
        precision=precision,
        recall=recall,
        f=f_from_precision_recall(precision, recall),
        counts=counts,
        degenerate=degenerate,
    )


tagging_metrics = f_score  # the report's tagging section is the F-score itself


class ErrorDistribution:
    """Ascending geocoding errors in km; the input to all curve metrics."""

    __slots__ = ("errors",)

    def __init__(self, errors: Iterable[float]):
        values = sorted(float(e) for e in errors)
        for e in values:
            if not math.isfinite(e) or e < 0 or e > MAX_ERROR_KM:
                raise ValueError(f"error {e} outside [0, {MAX_ERROR_KM}]")
        self.errors = tuple(values)

    @property
    def n(self) -> int:
        return len(self.errors)


def _require_nonempty(dist: ErrorDistribution) -> None:
    if dist.n == 0:
        raise ValueError("metric undefined for an empty error distribution")


def mean_error(dist: ErrorDistribution) -> float:
    _require_nonempty(dist)
    return math.fsum(dist.errors) / dist.n


def median_error(dist: ErrorDistribution) -> float:
    _require_nonempty(dist)
    mid = dist.n // 2
    if dist.n % 2:
        return dist.errors[mid]
    return (dist.errors[mid - 1] + dist.errors[mid]) / 2.0


def accuracy_at(dist: ErrorDistribution, threshold_km: float = DEFAULT_THRESHOLD_KM) -> float:
    """Fraction of errors within threshold_km (inclusive)."""
    _require_nonempty(dist)
    return bisect_right(dist.errors, threshold_km) / dist.n


def auc(dist: ErrorDistribution) -> float:
    """Normalised area under the log-scaled error curve, in [0, 1].

    Errors are sorted ascending, mapped through ln(1 + x), integrated by
    the trapezoid rule over the index axis and divided by the area of an
    all-worst-case curve. Lower is better: 0 means every error was zero.
    """
    _require_nonempty(dist)
    logs = [math.log1p(e) for e in dist.errors]
    if dist.n == 1:
        return logs[0] / _LOG_MAX
    area = math.fsum((logs[i] + logs[i + 1]) / 2.0 for i in range(dist.n - 1))
    return area / ((dist.n - 1) * _LOG_MAX)


def _keyed_errors(pairs: Iterable[MatchedPair]) -> tuple[list[tuple[GoldKey, float]], int]:
    """Great-circle error of every matched, resolved pair, keyed by gold span."""
    errors: list[tuple[GoldKey, float]] = []
    unresolved = 0
    for (doc_id, ann), rec in pairs:
        if ann.coord is None or rec.predicted_coord is None:
            unresolved += 1
            continue
        error = great_circle_distance(rec.predicted_coord, ann.coord)
        errors.append(((doc_id, ann.start, ann.end), error))
    return errors, unresolved


def geocoding_errors(pairs: Iterable[MatchedPair]) -> tuple[ErrorDistribution, int]:
    """Great-circle error for every matched, resolved pair.

    Pairs missing either gold or predicted coordinates cannot be scored;
    they are counted (second return value) rather than silently dropped.
    """
    errors, unresolved = _keyed_errors(pairs)
    return ErrorDistribution(e for _, e in errors), unresolved


@dataclass
class GeocodingMetrics:
    mean_error_km: float
    median_error_km: float
    auc: float
    accuracy_at_km: dict[float, float]


@dataclass
class EvalReport:
    """Bundled metric values and counts for one system on one corpus."""

    dataset_id: str
    gazetteer_version: str
    n_gold: int = 0
    n_predicted: int = 0
    n_resolved: int = 0
    tagging: Optional[FScore] = None
    geocoding: Optional[GeocodingMetrics] = None
    warnings: list[str] = field(default_factory=list)
    stat_tests: list[StatTestResult] = field(default_factory=list)


def geocoding_metrics(
    dist: ErrorDistribution,
    thresholds_km: Sequence[float] = (DEFAULT_THRESHOLD_KM,),
) -> GeocodingMetrics:
    return GeocodingMetrics(
        mean_error_km=mean_error(dist),
        median_error_km=median_error(dist),
        auc=auc(dist),
        accuracy_at_km={t: accuracy_at(dist, t) for t in thresholds_km},
    )


def _select_gold(
    docs: Sequence[corpus.Document],
    index: Optional[GazetteerIndex],
    need_coords: bool,
    warnings: list[str],
) -> list[GoldSpan]:
    if index is not None:
        result = corpus.apply_exclusion_policy(docs, index)
        if result.excluded:
            warnings.append(f"excluded {len(result.excluded)} gold annotations by policy")
        return result.kept
    spans = corpus.gold_spans(docs)
    if not need_coords:
        return spans
    with_coords = [(d, a) for d, a in spans if a.coord is not None]
    if len(with_coords) < len(spans):
        warnings.append(
            f"{len(spans) - len(with_coords)} gold annotations without coordinates ignored "
            "(no --cache supplied)"
        )
    return with_coords


def _append_test(report: EvalReport, result: StatTestResult) -> None:
    """Add a paired test to the report, and its note as a warning."""
    report.stat_tests.append(result)
    if result.note:
        report.warnings.append(f"{result.name}: {result.note}")


def _compare_tagging(a: SpanMatchResult, b: SpanMatchResult, report: EvalReport) -> None:
    """McNemar over the gold spans each system matched."""
    correct_a = {(doc_id, ann.start, ann.end) for (doc_id, ann), _ in a.pairs}
    correct_b = {(doc_id, ann.start, ann.end) for (doc_id, ann), _ in b.pairs}
    table = McNemarTable(b=len(correct_a - correct_b), c=len(correct_b - correct_a))
    _append_test(report, mcnemar(table))


def _compare_geocoding(
    errors_a: dict[GoldKey, float], errors_b: dict[GoldKey, float], report: EvalReport
) -> None:
    """Wilcoxon over the errors of the gold spans both systems resolved."""
    common = sorted(set(errors_a) & set(errors_b))
    if not common:
        report.warnings.append("wilcoxon: no toponyms resolved by both systems")
        return
    result = wilcoxon_signed_rank([errors_a[k] for k in common], [errors_b[k] for k in common])
    _append_test(report, result)


def evaluate(
    docs: Sequence[corpus.Document],
    pred: Sequence[PredictionRecord],
    dataset_id: str,
    index: Optional[GazetteerIndex] = None,
    mode: MatchMode = MatchMode.EXACT,
    thresholds_km: Optional[Sequence[float]] = None,
    pred_b: Optional[Sequence[PredictionRecord]] = None,
) -> EvalReport:
    """Score one system on a gold corpus, optionally against a second one.

    Gold spans are the exclusion policy's kept set when a gazetteer index
    is given, otherwise every annotation (only those with coordinates when
    scoring geocoding). Without `thresholds_km` the report carries the
    geotagging F-score and `pred_b` adds McNemar; with it, the geocoding
    metrics at those thresholds and `pred_b` adds Wilcoxon. Both paired
    tests compare the systems gold span by gold span, keyed by GoldKey.
    """
    warnings: list[str] = []
    geocoding = thresholds_km is not None
    gold = _select_gold(docs, index, geocoding, warnings)
    # A prediction for a document outside the gold set can only be a false
    # positive; one whose offsets or surface contradict the text was made on
    # other text, though its offsets still score.
    texts = {doc.doc_id: doc.text for doc in docs}
    systems = [("", pred)] if pred_b is None else [("pred: ", pred), ("pred-b: ", pred_b)]
    for prefix, records in systems:
        unknown = contradicting = 0
        for r in records:
            text = texts.get(r.doc_id)
            if text is None:
                unknown += 1
            elif r.end > len(text) or text[r.start : r.end] != r.surface:
                contradicting += 1
        if unknown:
            warnings.append(f"{prefix}{unknown} predictions name documents not in the gold set")
        if contradicting:
            warnings.append(
                f"{prefix}{contradicting} predictions run past their document's text "
                "or differ from it in surface"
            )
    match = match_spans(gold, pred, mode)
    report = EvalReport(
        dataset_id=dataset_id,
        gazetteer_version=index.version if index else "none",
        n_gold=len(gold),
        n_predicted=len(pred),
        warnings=warnings,
    )
    match_b = match_spans(gold, pred_b, mode) if pred_b is not None else None

    if not geocoding:
        report.n_resolved = sum(1 for r in pred if r.predicted_coord is not None)
        report.tagging = f_score(match.counts)
        if match_b is not None:
            _compare_tagging(match, match_b, report)
        return report

    errors, unresolved = _keyed_errors(match.pairs)
    dist = ErrorDistribution(e for _, e in errors)
    report.n_resolved = dist.n
    if match.pairs and dist.n / len(match.pairs) < MIN_RESOLVED_FRACTION:
        warnings.append(
            f"only {dist.n / len(match.pairs):.0%} of geotagged toponyms were resolved; "
            f"below the {MIN_RESOLVED_FRACTION:.0%} representativeness minimum"
        )
    if unresolved:
        warnings.append(f"{unresolved} matched toponyms had no predicted coordinates")
    if dist.n:
        report.geocoding = geocoding_metrics(dist, thresholds_km)
    else:
        warnings.append("no resolved true positives; geocoding metrics undefined")
    if match_b is not None:
        _compare_geocoding(dict(errors), dict(_keyed_errors(match_b.pairs)[0]), report)
    return report


def threshold_label(km: float) -> str:
    """`km` as `:g` writes it when that reads back as the same float, else its repr."""
    label = f"{km:g}"
    return label if float(label) == km else repr(km)


def render_report(report: EvalReport) -> str:
    """Machine-readable key/value report, one field per line."""
    lines = [
        f"dataset_id: {report.dataset_id}",
        f"gazetteer_version: {report.gazetteer_version}",
        f"n_gold: {report.n_gold}",
        f"n_predicted: {report.n_predicted}",
        f"n_resolved: {report.n_resolved}",
    ]
    if report.tagging is not None:
        t = report.tagging
        lines += [
            f"tp: {t.counts.tp}",
            f"fp: {t.counts.fp}",
            f"fn: {t.counts.fn}",
            f"precision: {t.precision:.6f}",
            f"recall: {t.recall:.6f}",
            f"f_score: {t.f:.6f}",
        ]
        if t.degenerate:
            lines.append("f_score_degenerate: true")
    if report.geocoding is not None:
        g = report.geocoding
        lines += [
            f"mean_error_km: {g.mean_error_km:.4f}",
            f"median_error_km: {g.median_error_km:.4f}",
            f"auc: {g.auc:.6f}",
        ]
        for threshold in sorted(g.accuracy_at_km):
            lines.append(f"accuracy_at_{threshold_label(threshold)}km: {g.accuracy_at_km[threshold]:.6f}")
    for test in report.stat_tests:
        lines.append(
            f"stat_test: {test.name} statistic={test.statistic:.6g} "
            f"p={test.p_value:.6g} n={test.n}"
        )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


REPORT_CSV_COLUMNS = (
    "dataset_id", "gazetteer_version", "n_gold", "n_predicted", "n_resolved",
    "precision", "recall", "f_score", "mean_error_km", "median_error_km", "auc",
    "threshold_km", "accuracy", "test_name", "test_statistic", "test_p", "test_n",
)


def report_csv_rows(report: EvalReport) -> list[list[str]]:
    """CSV rows under REPORT_CSV_COLUMNS, one per accuracy threshold.

    Thresholds are in long form, so every report fits the same header: a
    geocoding report gives one row per threshold, a tagging report (or a
    geocoding report with no resolved true positives) one row with
    `threshold_km` and `accuracy` empty.
    """

    def fmt(value) -> str:
        if value is None:
            return ""
        return f"{value:.6f}" if isinstance(value, float) else str(value)

    t, g = report.tagging, report.geocoding
    test = report.stat_tests[0] if report.stat_tests else None
    head = [report.dataset_id, report.gazetteer_version, report.n_gold, report.n_predicted, report.n_resolved]
    head += [t.precision, t.recall, t.f] if t else [None] * 3
    head += [g.mean_error_km, g.median_error_km, g.auc] if g else [None] * 3
    tail = [test.name, test.statistic, test.p_value, test.n] if test else [None] * 4
    accuracies = [(threshold_label(km), acc) for km, acc in sorted(g.accuracy_at_km.items())] if g else [(None, None)]
    return [[fmt(v) for v in (*head, km, acc, *tail)] for km, acc in accuracies]


def write_report(report: EvalReport, out_path: str, csv_path: Optional[str] = None) -> str:
    """Write the report to `out_path`, append its CSV rows to `csv_path`, and return the report text.

    The CSV is checked and opened first, so a refused CSV leaves no report behind.
    """
    rendered = render_report(report)
    with contextlib.ExitStack() as files:
        if csv_path:
            lead = _csv_lead(csv_path)
            rows = files.enter_context(open(csv_path, "a", newline="", encoding="utf-8"))
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        if csv_path:
            rows.write(lead)
            csv.writer(rows, lineterminator="\n").writerows(report_csv_rows(report))
    return rendered


def _csv_lead(path: str) -> str:
    """What to write before the rows appended to the CSV file at `path`.

    The header for a new or empty file (one holding only a BOM is empty), else the line end
    its last row lacks, if any. A file with another header, or one that cannot be read as
    UTF-8 CSV, raises ValueError naming it.
    """
    header = ",".join(REPORT_CSV_COLUMNS) + "\n"  # no column name needs quoting
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        return header
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # a spreadsheet may lead with a BOM
            found = next(csv.reader(fh), None)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read CSV file {path}: {exc}") from exc
    if found is None:  # nothing but a BOM, which is kept: the header goes after it
        return header
    if found != list(REPORT_CSV_COLUMNS):
        raise ValueError(f"CSV file {path} has another header; append to a new file")
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return "" if fh.read(1) in b"\r\n" else "\n"


def stat_test_line(test: StatTestResult) -> str:
    """A paired test's stdout line: its statistic, p-value and verdict at each REPORTING_ALPHAS level."""
    verdicts = "; ".join(
        f"{'significant' if test.p_value < alpha else 'not significant'} at {alpha}"
        for alpha in REPORTING_ALPHAS
    )
    if test.name == "wilcoxon":
        return f"wilcoxon: z={test.statistic:.4f} p={test.p_value:.6g} n={test.n} ({verdicts})"
    return f"{test.name}: statistic={test.statistic:.4f} p={test.p_value:.6g} ({verdicts})"
