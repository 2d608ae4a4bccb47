"""Invariants of the scores, as properties of `evaluate` and `render_report`.

Each corpus is generated, written with `serialize_brat` and read back with
`load_directory`; its predictions are derived from the gold by random
edits: drop, shift, duplicate, move or drop the coordinates, or add spans.
"""

import dataclasses
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval.corpus import Document, PredictionRecord, ToponymAnnotation, gold_spans, load_directory, serialize_brat
from geoeval.geodesy import Coordinate
from geoeval.metrics import (
    ErrorDistribution,
    MatchMode,
    _keyed_errors,
    evaluate,
    geocoding_metrics,
    match_spans,
    render_report,
)
from geoeval.tagger import oracle_spans
from geoeval.taxonomy import TaxonomyType

_WORDS = ["Alba", "Brno", "Cork", "Dover", "Essen", "Fife", "met", "and", "in"]
_COORDS = st.builds(Coordinate, st.floats(-90, 90), st.floats(-180, 180))
_THRESHOLDS = [5.0, 161.0]
_MODES = st.sampled_from(MatchMode)


@st.composite
def _document(draw, doc_id: str, min_annotations: int = 0) -> Document:
    """Words joined by spaces and line feeds; some whole words are gold toponyms."""
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=max(1, min_annotations), max_size=10))
    text = words[0] + "".join(draw(st.sampled_from([" ", "\n"])) + word for word in words[1:])
    text += draw(st.sampled_from(["", "\n"]))
    spans = draw(st.lists(st.sampled_from([m.span() for m in re.finditer(r"\w+", text)]),
                          unique=True, min_size=min_annotations))
    return Document(doc_id, text, [
        ToponymAnnotation(s, e, text[s:e], TaxonomyType.LITERAL, coord=draw(_COORDS | st.none()))
        for s, e in sorted(spans)
    ])


@st.composite
def _edited_predictions(draw, doc: Document) -> list[PredictionRecord]:
    """Predictions derived from the gold of `doc` by random edits."""
    records = []
    for ann in doc.annotations:
        edit = draw(st.sampled_from(["keep", "drop", "shift", "duplicate", "move", "unresolved"]))
        start, end, coord = ann.start, ann.end, ann.coord
        if edit == "drop":
            continue
        if edit == "shift" and end - start > 2:
            start, end = start + draw(st.integers(0, 1)), end - 1
        if edit == "move":
            coord = draw(_COORDS)
        if edit == "unresolved":
            coord = None
        records += [PredictionRecord(doc.doc_id, start, end, doc.text[start:end], "Location", coord)] * (
            2 if edit == "duplicate" else 1)
    for s, e in draw(st.lists(st.sampled_from([m.span() for m in re.finditer(r"\w+", doc.text)]), max_size=3)):
        records.append(PredictionRecord(doc.doc_id, s, e, doc.text[s:e], "Location", draw(_COORDS | st.none())))
    return draw(st.permutations(records))


@st.composite
def _corpus(draw, prefix: str, min_docs: int = 0) -> tuple[list[Document], list[PredictionRecord]]:
    """Documents named `prefix` and a number, and predictions derived from their gold."""
    docs = [draw(_document(f"{prefix}{i}", min_annotations=int(min_docs > 0)))
            for i in range(draw(st.integers(min_docs, 3)))]
    return docs, [rec for doc in docs for rec in draw(_edited_predictions(doc))]


def _round_trip(docs: list[Document]) -> list[Document]:
    with tempfile.TemporaryDirectory() as tmp:
        for doc in docs:
            text, ann = serialize_brat(doc)
            Path(tmp, f"{doc.doc_id}.txt").write_text(text, encoding="utf-8", newline="")
            Path(tmp, f"{doc.doc_id}.ann").write_text(ann, encoding="utf-8")
        return load_directory(tmp)


def _report(docs, records, mode, geocoding):
    report = evaluate(docs, records, "prop", mode=mode, thresholds_km=_THRESHOLDS if geocoding else None)
    rendered = render_report(report)
    fields = dict(line.split(": ", 1) for line in rendered.splitlines() if not line.startswith("warning: "))
    return report, rendered, fields


def _errors(docs, records, mode) -> list[float]:
    """The errors evaluate scores in geocoding: gold with coordinates, matched the same way."""
    gold = [(doc_id, ann) for doc_id, ann in gold_spans(docs) if ann.coord is not None]
    return sorted(error for _, error in _keyed_errors(match_spans(gold, records, mode).pairs)[0])


@given(a=_corpus("a"), b=_corpus("b"), mode=_MODES)
@settings(max_examples=80, deadline=None)
def test_two_disjoint_corpora_scored_together_add_up(a, b, mode):
    (docs_a, pred_a), (docs_b, pred_b) = a, b
    docs_a, docs_b, both = _round_trip(docs_a), _round_trip(docs_b), _round_trip(docs_a + docs_b)
    parts = [_report(docs_a, pred_a, mode, False)[2], _report(docs_b, pred_b, mode, False)[2]]
    whole = _report(both, pred_a + pred_b, mode, False)[2]
    for count in ("n_gold", "n_predicted", "tp", "fp", "fn"):
        assert int(whole[count]) == sum(int(part[count]) for part in parts)

    errors = _errors(docs_a, pred_a, mode) + _errors(docs_b, pred_b, mode)
    assert _errors(both, pred_a + pred_b, mode) == sorted(errors)
    report, _, fields = _report(both, pred_a + pred_b, mode, True)
    assert int(fields["n_resolved"]) == len(errors)
    assert report.geocoding == (geocoding_metrics(ErrorDistribution(errors), _THRESHOLDS) if errors else None)


@given(corpus=_corpus("d", min_docs=1), mode=_MODES)
@settings(max_examples=60, deadline=None)
def test_oracle_predictions_score_f_one_and_with_the_gold_coordinates_no_error(corpus, mode):
    docs = _round_trip(corpus[0])
    gold = gold_spans(docs)
    fields = _report(docs, oracle_spans(gold), mode, False)[2]
    assert (fields["tp"], fields["fp"], fields["fn"]) == (str(len(gold)), "0", "0")
    assert fields["f_score"] == "1.000000" and "f_score_degenerate" not in fields

    located = [(doc_id, ann) for doc_id, ann in gold if ann.coord is not None]
    oracle = [dataclasses.replace(rec, predicted_coord=ann.coord)
              for rec, (_, ann) in zip(oracle_spans(located), located)]
    assert _errors(docs, oracle, mode) == [0.0] * len(located)
    report, _, fields = _report(docs, oracle, mode, True)
    if located:
        assert report.geocoding.auc == report.geocoding.mean_error_km == report.geocoding.median_error_km == 0.0
        assert (fields["auc"], fields["mean_error_km"], fields["median_error_km"]) == ("0.000000", "0.0000", "0.0000")
        assert fields["accuracy_at_5km"] == fields["accuracy_at_161km"] == "1.000000"
    else:
        assert report.geocoding is None


def _crlf_offset(text: str, offset: int) -> int:
    return offset + text.count("\n", 0, offset)


@given(corpus=_corpus("d"), mode=_MODES, geocoding=st.booleans())
@settings(max_examples=60, deadline=None)
def test_a_crlf_copy_scores_the_same_as_the_lf_original(corpus, mode, geocoding):
    docs, records = corpus
    texts = {doc.doc_id: doc.text for doc in docs}
    crlf_docs = [Document(doc.doc_id, doc.text.replace("\n", "\r\n"), [
        dataclasses.replace(ann, start=_crlf_offset(doc.text, ann.start), end=_crlf_offset(doc.text, ann.end))
        for ann in doc.annotations
    ]) for doc in docs]
    crlf_records = [dataclasses.replace(rec, start=_crlf_offset(texts[rec.doc_id], rec.start),
                                        end=_crlf_offset(texts[rec.doc_id], rec.end)) for rec in records]
    lf_docs, crlf_docs = _round_trip(docs), _round_trip(crlf_docs)
    assert [doc.text for doc in crlf_docs] == [doc.text.replace("\n", "\r\n") for doc in lf_docs]
    assert _report(crlf_docs, crlf_records, mode, geocoding)[1] == _report(lf_docs, records, mode, geocoding)[1]
