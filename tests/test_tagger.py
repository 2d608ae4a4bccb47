import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval.corpus import Document, PredictionRecord, ToponymAnnotation, apply_exclusion_policy, gold_spans
from geoeval.gazetteer import ingest
from geoeval.metrics import MatchMode, f_score, match_spans
from geoeval.tagger import (
    DEFAULT_BLOCKLIST,
    gazetteer_tag,
    oracle_spans,
    token_spans,
)
from geoeval.taxonomy import TaxonomyType

from conftest import geonames_line


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


def _tag_every_position(doc, index, blocklist=DEFAULT_BLOCKLIST, max_ngram=4):
    """The tagger before the first-token map: every n-gram probed at every position."""
    blocked = blocklist or frozenset()
    tokens = token_spans(doc.text)
    records = []
    i = 0
    while i < len(tokens):
        matched = False
        for n in range(min(max_ngram, len(tokens) - i), 0, -1):
            start = tokens[i][0]
            end = tokens[i + n - 1][1]
            surface = doc.text[start:end]
            key = surface.casefold()
            if key in blocked or not index.lookup(key):
                continue
            records.append(PredictionRecord(doc.doc_id, start, end, surface, "Location"))
            i += n
            matched = True
            break
        if not matched:
            i += 1
    return records


def _index_of(names):
    return ingest([geonames_line(eid, name, 0.0, 0.0) for eid, name in enumerate(names, start=1)])


# Characters whose case folding is not one token: İ folds to i plus a
# combining dot (not a token character), U+0345 (not a token character)
# folds to the letter ι, ß to ss, ς to σ, ﬁ to fi.
_WORDS = ["İzmir", "i\u0307zmir", "Izmir", "a\u0345b", "aιb", "ab", "a", "b", "Straße", "strasse",
          "Σοφος", "σοφοσ", "ﬁle", "file", "Stratford-upon-Avon", "upon", "Avon", "O'Hare", "hare",
          "nice", "of", "new", "New York", "York", "İ", "i", "x"]
_SEPARATORS = [" ", "  ", "-", "'", ", ", "\u0345", "\u0307", "_", ""]


@st.composite
def _tagging_case(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), max_size=12))
    text = "".join(w + draw(st.sampled_from(_SEPARATORS)) for w in words)
    names = draw(st.lists(
        st.one_of(st.sampled_from(_WORDS),
                  st.builds(" ".join, st.lists(st.sampled_from(_WORDS), min_size=2, max_size=4))),
        min_size=1, max_size=10,
    ))
    # N-grams of the text itself, so that multi-token names hit.
    tokens = token_spans(text)
    for _ in range(draw(st.integers(0, 3)) if tokens else 0):
        i = draw(st.integers(0, len(tokens) - 1))
        n = draw(st.integers(1, min(4, len(tokens) - i)))
        names.append(text[tokens[i][0]:tokens[i + n - 1][1]])
    blocklist = frozenset(w.casefold() for w in draw(st.lists(st.sampled_from(_WORDS), max_size=3)))
    return text, names, blocklist, draw(st.integers(1, 4))


@given(case=_tagging_case())
@settings(max_examples=400, deadline=None)
def test_gazetteer_tag_agrees_with_probing_every_position(case):
    text, names, blocklist, max_ngram = case
    doc = Document("d", text, [])
    index = _index_of(names)
    assert gazetteer_tag(doc, index, blocklist, max_ngram) == _tag_every_position(doc, index, blocklist, max_ngram)


@pytest.mark.parametrize(
    "text, name, surface",
    [
        # One raw token whose folded form is two tokens ("i", "zmir").
        ("Flights to İzmir resumed.", "İzmir", "İzmir"),
        # Two raw tokens whose folded form is one token ("aιb").
        ("x a\u0345b y", "aιb", "a\u0345b"),
    ],
    ids=["fold-splits-a-token", "fold-joins-two-tokens"],
)
def test_a_document_whose_tokens_change_under_folding_is_probed_in_full(text, name, surface):
    records = gazetteer_tag(Document("d", text, []), _index_of([name]))
    assert [r.surface for r in records] == [surface]


def test_only_positions_that_start_a_name_are_probed(toy_index):
    probes = []

    class CountingIndex:
        def __init__(self, index):
            self._index = index

        def has_name(self, name):
            probes.append(name)
            return self._index.has_name(name)

        def __getattr__(self, name):
            return getattr(self._index, name)

    doc = Document("d", "Escape from Waldo County Jail to Paris today.", [])
    records = gazetteer_tag(doc, CountingIndex(toy_index))
    assert [r.surface for r in records] == ["Waldo County Jail", "Paris"]
    assert probes == ["waldo county jail", "paris"]


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
