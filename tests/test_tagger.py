import pytest

from geoeval.corpus import Document, ToponymAnnotation, apply_exclusion_policy, gold_spans
from geoeval.metrics import MatchMode, f_score, match_spans
from geoeval.tagger import (
    DEFAULT_BLOCKLIST,
    gazetteer_tag,
    oracle_spans,
    token_spans,
)
from geoeval.taxonomy import TaxonomyType


def test_token_spans_split_hyphens_and_punct():
    text = "Stratford-upon-Avon, fast."
    tokens = [text[s:e] for s, e in token_spans(text)]
    assert tokens == ["Stratford", "upon", "Avon", "fast"]


def test_single_span(toy_index):
    doc = Document("d", "Accident in Melbourne.", [])
    records = gazetteer_tag(doc, toy_index)
    assert [r.surface for r in records] == ["Melbourne"]
    assert records[0].span == (12, 21)
    assert records[0].predicted_label == "Location"
    assert records[0].predicted_coord is None


def test_longest_match_wins(toy_index):
    text = "Escape from Waldo County Jail today."
    doc = Document("d", text, [])
    records = gazetteer_tag(doc, toy_index)
    assert [r.surface for r in records] == ["Waldo County Jail"]


def test_blocklist_suppresses_common_words(toy_index):
    doc = Document("d", "a nice view of the sea", [])
    assert gazetteer_tag(doc, toy_index, blocklist=frozenset({"nice"})) == []
    # Without the blocklist the gazetteer hit fires.
    hits = gazetteer_tag(doc, toy_index, blocklist=frozenset())
    assert [r.surface for r in hits] == ["nice"]


def test_default_blocklist_covers_nice(toy_index):
    doc = Document("d", "what a nice view", [])
    assert gazetteer_tag(doc, toy_index) == []
    assert "nice" in DEFAULT_BLOCKLIST


def test_case_insensitive_match(toy_index):
    doc = Document("d", "MELBOURNE and melbourne and Melbourne.", [])
    records = gazetteer_tag(doc, toy_index)
    assert len(records) == 3


def test_multiword_not_crossing_sentence_but_raw_surface(toy_index):
    # The raw substring, internal whitespace included, is the lookup key.
    doc = Document("d", "He left Waldo  County Jail.", [])
    records = gazetteer_tag(doc, toy_index)
    # Double space breaks the 3-gram surface, but "Waldo" still matches.
    assert [r.surface for r in records] == ["Waldo"]


def test_spans_never_overlap(toy_index):
    text = "Melbourne Melbourne Waldo County Jail Waldo Paris."
    records = gazetteer_tag(Document("d", text, []), toy_index)
    spans = sorted(r.span for r in records)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_max_ngram_validation(toy_index):
    with pytest.raises(ValueError):
        gazetteer_tag(Document("d", "x", []), toy_index, max_ngram=0)


def _doc_with_gold(doc_id, text, surfaces_and_ids):
    annotations = []
    cursor = 0
    for surface, gid in surfaces_and_ids:
        start = text.index(surface, cursor)
        annotations.append(
            ToponymAnnotation(
                start=start,
                end=start + len(surface),
                surface=surface,
                toponym_type=TaxonomyType.LITERAL,
                gazetteer_id=gid,
            )
        )
        cursor = start + len(surface)
    return Document(doc_id, text, annotations)


def test_oracle_spans_copy_gold():
    doc = _doc_with_gold("d", "Paris, London, Nice.", [("Paris", 1004), ("London", 1005), ("Nice", 1008)])
    records = oracle_spans(gold_spans([doc]))
    assert len(records) == 3
    assert [(r.start, r.end) for r in records] == [(a.start, a.end) for a in doc.annotations]
    assert all(r.predicted_coord is None for r in records)


def test_oracle_spans_empty_corpus():
    assert oracle_spans([]) == []


def test_oracle_spans_score_perfect_f(toy_index):
    docs = [
        _doc_with_gold("d1", "Paris and London.", [("Paris", 1004), ("London", 1005)]),
        _doc_with_gold("d2", "Melbourne waits.", [("Melbourne", 1001)]),
    ]
    excl = apply_exclusion_policy(docs, toy_index)
    records = oracle_spans(excl.kept)
    result = match_spans(excl.kept, records, MatchMode.EXACT)
    assert f_score(result.counts).f == 1.0


def test_oracle_spans_after_exclusion(toy_index):
    docs = [
        _doc_with_gold(
            "d1",
            "Paris and FacA1 and London.",
            [("Paris", 1004), ("FacA1", 999999), ("London", 1005)],
        )
    ]
    excl = apply_exclusion_policy(docs, toy_index)
    records = oracle_spans(excl.kept)
    assert [r.surface for r in records] == ["Paris", "London"]
