import io
import os

import pytest

from geoeval import augment
from geoeval.augment import (
    expression_counts,
    generate_augmented,
    sentence_spans,
    write_tagged,
)
from geoeval.corpus import (
    Document,
    ExpressionAnnotation,
    ExpressionKind,
    ExpressionRole,
    ToponymAnnotation,
)
from geoeval.taxonomy import TaxonomyType


def _expr(doc_id, text, surface, kind, role):
    start = text.index(surface)
    return ExpressionAnnotation(
        doc_id=doc_id,
        start=start,
        end=start + len(surface),
        surface=surface,
        kind=kind,
        role=role,
    )


def _toponym(text, surface, type_):
    start = text.index(surface)
    return ToponymAnnotation(
        start=start, end=start + len(surface), surface=surface, toponym_type=type_
    )


LIT_TEXT = "The festival opened in the city centre yesterday. Everyone came."
ASSOC_TEXT = "The deal was agreed by the chief engineer. Work begins soon."
TOPO_TEXT = "Crowds filled Nairobi while Sweden signed the accord."


def _fixture():
    lit_doc = Document("lit", LIT_TEXT)
    assoc_doc = Document("assoc", ASSOC_TEXT)
    topo_doc = Document(
        "topo",
        TOPO_TEXT,
        [
            _toponym(TOPO_TEXT, "Nairobi", TaxonomyType.LITERAL),
            _toponym(TOPO_TEXT, "Sweden", TaxonomyType.METONYMY),
        ],
    )
    expressions = [
        _expr("lit", LIT_TEXT, "the city centre", ExpressionKind.LITERAL, ExpressionRole.CONTEXT),
        _expr("lit", LIT_TEXT, "the city centre", ExpressionKind.LITERAL, ExpressionRole.HEAD),
        _expr("assoc", ASSOC_TEXT, "the chief engineer", ExpressionKind.ASSOCIATIVE, ExpressionRole.CONTEXT),
        _expr("assoc", ASSOC_TEXT, "the chief engineer", ExpressionKind.ASSOCIATIVE, ExpressionRole.HEAD),
    ]
    return [lit_doc, assoc_doc, topo_doc], expressions


def test_sentence_spans_cover_text():
    text = "One here. Two there! Three? Done"
    spans = sentence_spans(text)
    assert [text[s:e] for s, e in spans] == ["One here.", "Two there!", "Three?", "Done"]


def test_literal_context_tagged_literal():
    docs, expressions = _fixture()
    sentences = generate_augmented(docs, expressions, max_per_source=10, seed=1)
    lit_sentences = [
        s for s in sentences if any(tag.endswith("Literal") for _, tag in s)
    ]
    assert lit_sentences
    for sentence in lit_sentences:
        tokens = dict(sentence)
        assert tokens.get("Nairobi") == "B-Literal"


def test_associative_context_tagged_associative():
    docs, expressions = _fixture()
    sentences = generate_augmented(docs, expressions, max_per_source=10, seed=1)
    assoc = [s for s in sentences if any(tag.endswith("Associative") for _, tag in s)]
    assert assoc
    for sentence in assoc:
        tags = [tag for _, tag in sentence if tag != "O"]
        assert tags == ["B-Associative"]  # "Sweden" is one token


def test_kind_compatibility_never_violated():
    docs, expressions = _fixture()
    sentences = generate_augmented(docs, expressions, max_per_source=10, seed=99)
    for sentence in sentences:
        text = " ".join(tok for tok, _ in sentence)
        tags = {tag for _, tag in sentence}
        if "B-Literal" in tags:
            # The literal pool is Nairobi only; the associative head/toponym
            # must never land in the literal context.
            assert "Sweden" not in text or "B-Associative" not in tags
        if "opened in" in text:
            assert "B-Associative" not in tags
        if "agreed by" in text:
            assert "B-Literal" not in tags


def test_head_substitution_gives_all_o():
    docs, expressions = _fixture()
    sentences = generate_augmented(docs, expressions, max_per_source=10, seed=5)
    all_o = [s for s in sentences if all(tag == "O" for _, tag in s)]
    # Substituting the head expression itself produces a negative sentence.
    assert all_o


def test_output_capped_per_source():
    docs, expressions = _fixture()
    contexts = [e for e in expressions if e.role is ExpressionRole.CONTEXT]
    sentences = generate_augmented(docs, expressions, max_per_source=1, seed=3)
    assert len(sentences) <= len(contexts)


def test_deterministic_per_seed():
    docs, expressions = _fixture()
    first = generate_augmented(docs, expressions, max_per_source=5, seed=42)
    second = generate_augmented(docs, expressions, max_per_source=5, seed=42)
    third = generate_augmented(docs, expressions, max_per_source=5, seed=43)
    assert first == second
    assert first != third


def test_sentence_initial_capitalization():
    text = "the old mill burned down."
    doc = Document("d", text)
    expressions = [
        _expr("d", text, "the old mill", ExpressionKind.LITERAL, ExpressionRole.CONTEXT),
    ]
    topo_text = "They reached Nairobi."
    topo_doc = Document("t", topo_text, [_toponym(topo_text, "Nairobi", TaxonomyType.LITERAL)])
    sentences = generate_augmented([doc, topo_doc], expressions, max_per_source=5, seed=0)
    assert sentences
    first_tokens = {s[0][0] for s in sentences}
    assert all(tok[0].isupper() for tok in first_tokens)


def test_each_document_split_into_sentences_once(monkeypatch):
    text = "The old mill burned. Then the river rose. At last the town hall fell."
    doc = Document("d", text)
    expressions = [
        _expr("d", text, surface, ExpressionKind.LITERAL, ExpressionRole.CONTEXT)
        for surface in ("The old mill", "the river", "the town hall")
    ]
    docs, fixture_expressions = _fixture()
    calls = []

    def counting_sentence_spans(text):
        calls.append(text)
        return sentence_spans(text)

    monkeypatch.setattr(augment, "sentence_spans", counting_sentence_spans)
    sentences = generate_augmented([doc, *docs], expressions + fixture_expressions, 2, seed=5)
    assert sorted(calls) == sorted([text, LIT_TEXT, ASSOC_TEXT])
    # Each filled context keeps only its own sentence around the fill.
    river = [s for s in sentences if s[0][0] == "Then"]
    assert river and all(s[-1][0] == "rose" and len(s) < 8 for s in river)


def test_span_mismatch_skipped():
    doc = Document("d", "Totally different text.")
    bad = ExpressionAnnotation(
        doc_id="d", start=0, end=5, surface="WRONG", kind=ExpressionKind.LITERAL,
        role=ExpressionRole.CONTEXT,
    )
    assert generate_augmented([doc], [bad], max_per_source=3, seed=0) == []


def test_unknown_document_skipped():
    bad = ExpressionAnnotation(
        doc_id="ghost", start=0, end=5, surface="WRONG", kind=ExpressionKind.LITERAL,
        role=ExpressionRole.CONTEXT,
    )
    assert generate_augmented([], [bad], max_per_source=3, seed=0) == []


def test_max_per_source_validation():
    with pytest.raises(ValueError):
        generate_augmented([], [], max_per_source=0, seed=0)


def test_expression_counts():
    _, expressions = _fixture()
    counts = expression_counts(expressions)
    assert counts[(ExpressionRole.CONTEXT, ExpressionKind.LITERAL)] == 1
    assert counts[(ExpressionRole.CONTEXT, ExpressionKind.ASSOCIATIVE)] == 1
    assert counts[(ExpressionRole.HEAD, ExpressionKind.LITERAL)] == 1
    assert counts[(ExpressionRole.HEAD, ExpressionKind.ASSOCIATIVE)] == 1


def test_write_tagged_format():
    buf = io.StringIO()
    write_tagged([[("Nairobi", "B-Literal"), ("waits", "O")], [("Done", "O")]], buf)
    assert buf.getvalue() == "Nairobi\tB-Literal\nwaits\tO\n\nDone\tO\n\n"


GEOWEBNEWS_DIR = os.environ.get("GEOWEBNEWS_DIR", "")


@pytest.mark.skipif(not GEOWEBNEWS_DIR, reason="real corpus not available (set GEOWEBNEWS_DIR)")
def test_real_corpus_expression_counts():
    from geoeval.corpus import load_directory

    docs = load_directory(GEOWEBNEWS_DIR)
    counts = expression_counts(e for d in docs for e in d.expressions)
    assert counts[(ExpressionRole.CONTEXT, ExpressionKind.LITERAL)] == 1423
    assert counts[(ExpressionRole.CONTEXT, ExpressionKind.ASSOCIATIVE)] == 2037
    assert counts[(ExpressionRole.HEAD, ExpressionKind.LITERAL)] == 1697
    assert counts[(ExpressionRole.HEAD, ExpressionKind.ASSOCIATIVE)] == 1763
