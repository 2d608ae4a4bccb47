import dataclasses
import io
import logging
import os

import pytest

from geoeval.corpus import (
    EXCLUDED_NON_LOCATIONAL,
    EXCLUDED_NOT_IN_GAZETTEER,
    BratParseError,
    Document,
    ExpressionKind,
    ExpressionRole,
    PredictionRecord,
    ToponymAnnotation,
    apply_exclusion_policy,
    gold_spans,
    load_brat,
    load_directory,
    load_predictions,
    serialize_brat,
    write_predictions,
)
from geoeval.geodesy import Coordinate
from geoeval.taxonomy import TaxonomyType

from conftest import write_brat_doc


def test_single_t_line():
    doc = load_brat("Russia won.", "T1\tLiteral 0 6\tRussia\n", doc_id="d1")
    assert len(doc.annotations) == 1
    ann = doc.annotations[0]
    assert ann.span == (0, 6)
    assert ann.surface == "Russia"
    assert ann.toponym_type == TaxonomyType.LITERAL


def test_modifier_attribute_attached():
    ann_text = "T1\tNonLitModifier 0 7\tRussian\nA1\tmodifier_type T1 Adjective\n"
    doc = load_brat("Russian exports fell.", ann_text)
    assert doc.annotations == [ToponymAnnotation(0, 7, "Russian", TaxonomyType.NON_LIT_MODIFIER)]


def test_non_locational_attribute():
    ann_text = "T1\tDemonym 2 9\tRussian\nA1\tnon_locational T1 True\n"
    doc = load_brat("A Russian spoke.", ann_text)
    assert doc.annotations == [ToponymAnnotation(2, 9, "Russian", TaxonomyType.DEMONYM)]


def test_a_toponyms_attributes_are_checked_but_not_kept():
    text = "A Russian spoke."
    bare = load_brat(text, "T1\tDemonym 2 9\tRussian\n", doc_id="d")
    doc = load_brat(text, "T1\tDemonym 2 9\tRussian\nA1\tmodifier_type T1 Adjective\n"
                    "A2\tnon_locational T1 True\n", doc_id="d")
    assert doc == bare
    assert serialize_brat(doc) == (text, "T1\tDemonym 2 9\tRussian\n")


def test_empty_ann_file():
    doc = load_brat("Nothing here.", "")
    assert doc.annotations == []
    assert doc.expressions == []


def test_gazetteer_normalization():
    ann_text = "T1\tLiteral 0 5\tParis\nN1\tReference T1 Geonames:1004\tParis\n"
    doc = load_brat("Paris is calm.", ann_text)
    assert doc.annotations[0].gazetteer_id == 1004


def test_coordinate_normalization():
    text = "visit Eiffel Tower now"
    start = text.index("Eiffel")
    end = start + len("Eiffel Tower")
    ann_text = (
        f"T1\tCoercion {start} {end}\tEiffel Tower\n"
        "N1\tReference T1 Coordinates:48.8584,2.2945\tEiffel Tower\n"
    )
    doc = load_brat(text, ann_text)
    assert doc.annotations[0].coord == Coordinate(48.8584, 2.2945)


def test_annotations_sorted_by_offset():
    text = "Paris and London."
    ann_text = "T2\tLiteral 10 16\tLondon\nT1\tLiteral 0 5\tParis\n"
    doc = load_brat(text, ann_text)
    assert [a.surface for a in doc.annotations] == ["Paris", "London"]


def test_surface_mismatch_reports_line():
    with pytest.raises(BratParseError) as exc_info:
        load_brat("Russia won.", "T1\tLiteral 0 6\tRussix\n")
    assert exc_info.value.line_no == 1


def test_offset_out_of_range():
    with pytest.raises(BratParseError):
        load_brat("short", "T1\tLiteral 0 99\tshort\n")


def test_dangling_attribute_reference():
    with pytest.raises(BratParseError) as exc_info:
        load_brat("Russia won.", "T1\tLiteral 0 6\tRussia\nA1\tmodifier_type T9 Noun\n")
    assert exc_info.value.line_no == 2


def test_dangling_normalization_reference():
    with pytest.raises(BratParseError):
        load_brat("Russia won.", "T1\tLiteral 0 6\tRussia\nN1\tReference T3 Geonames:1\tx\n")


def test_unknown_type_rejected():
    with pytest.raises(BratParseError):
        load_brat("Russia won.", "T1\tWeirdType 0 6\tRussia\n")


def test_comment_and_relation_lines_ignored():
    ann_text = (
        "T1\tLiteral 0 6\tRussia\n"
        "#1\tAnnotatorNotes T1\tchecked\n"
        "R1\tCoref Arg1:T1 Arg2:T1\n"
    )
    doc = load_brat("Russia won.", ann_text)
    assert len(doc.annotations) == 1


PARIS_TEXT = "It happened in Paris."
PARIS_T_LINE = "T1\tLiteral 15 20\tParis\n"
PARIS = ToponymAnnotation(15, 20, "Paris", TaxonomyType.LITERAL)


@pytest.mark.parametrize(
    "first,second,message",
    [
        ("N1\tReference T1 Geonames:2988507\tParis", "N2\tReference T1 Geonames:4717560\tParis",
         "T1: Geonames 4717560 conflicts with 2988507 from line 2"),
        ("N1\tReference T1 Coordinates:48.85,2.35\tParis",
         "N2\tReference T1 Coordinates:33.66,-95.55\tParis",
         "T1: Coordinates Coordinate(lat=33.66, lon=-95.55) conflicts with "
         "Coordinate(lat=48.85, lon=2.35) from line 2"),
        ("A1\tmodifier_type T1 Noun", "A2\tmodifier_type T1 Adjective",
         "T1: modifier_type 'Adjective' conflicts with 'Noun' from line 2"),
    ],
    ids=["Geonames", "Coordinates", "modifier_type"],
)
def test_conflicting_values_on_one_span_refused(first, second, message):
    with pytest.raises(BratParseError) as exc_info:
        load_brat(PARIS_TEXT, f"{PARIS_T_LINE}{first}\n{second}\n")
    assert str(exc_info.value) == f"line 3: {message}"


def test_conflicting_non_locational_on_an_expression_refused():
    text = "The deal was agreed by the chief engineer."
    ann_text = _expression_ann(text, "the chief engineer", "AssociativeExpression")
    with pytest.raises(BratParseError) as exc_info:
        load_brat(text, ann_text + "A2\tnon_locational T1 False\n")
    assert str(exc_info.value) == "line 3: T1: non_locational False conflicts with True from line 2"


def test_identical_repeated_values_load():
    ann_text = (
        PARIS_T_LINE
        + "N1\tReference T1 Geonames:2988507\tParis\n"
        + "N2\tReference T1 Geonames:2988507\tParis\n"
        + "A1\tnon_locational T1\n"
        + "A2\tnon_locational T1 True\n"
    )
    assert load_brat(PARIS_TEXT, ann_text).annotations == [dataclasses.replace(PARIS, gazetteer_id=2988507)]


# Each case is (ann, outcome): a (line_no, message) pair for a refused .ann,
# or the annotation a loaded one gives.
@pytest.mark.parametrize(
    "ann_text,outcome",
    [
        ("T1\tLiteral 15\tParis\n", (1, "unparseable T-line: 'T1\\tLiteral 15\\tParis'")),
        # int() reads Arabic-Indic digits, so these offsets would load as (15, 20).
        ("T1\tLiteral ١٥ ٢٠\tParis\n", (1, "unparseable T-line: 'T1\\tLiteral ١٥ ٢٠\\tParis'")),
        (PARIS_T_LINE * 2, (2, "duplicate annotation id T1")),
        ("T1\tLiteral 15 99\tParis\n", (1, "T1: span (15, 99) outside text of length 21")),
        ("T1\tLiteral 15 20\tParix\n",
         (1, "T1: surface 'Parix' does not match text 'Paris' at (15, 20)")),
        ("T1\tCity 15 20\tParis\n", (1, "T1: unknown annotation type 'City'")),
        (PARIS_T_LINE + "A1\tmodifier_type\n", (2, "unparseable A-line: 'A1\\tmodifier_type'")),
        (PARIS_T_LINE + "N1\tReference T1 Geonames\n",
         (2, "unparseable N-line: 'N1\\tReference T1 Geonames'")),
        (PARIS_T_LINE + "X1\tNote T1\n", (2, "unrecognised line: 'X1\\tNote T1'")),
        (PARIS_T_LINE + "A1\tmodifier_type T9 Noun\n", (2, "attribute references missing span T9")),
        (PARIS_T_LINE + "A1\tchecked T9 yes\n", (2, "attribute references missing span T9")),
        (PARIS_T_LINE + "N1\tReference T9 Geonames:1\tx\n",
         (2, "normalization references missing span T9")),
        (PARIS_T_LINE + "N1\tReference T9 Wikidata:Q90\tx\n",
         (2, "normalization references missing span T9")),
        (PARIS_T_LINE + "A1\tmodifier_type T1 Verb\n",
         (2, "modifier_type must be one of ('Adjective', 'Noun'), got 'Verb'")),
        (PARIS_T_LINE + "A1\tmodifier_type T1\n",
         (2, "modifier_type must be one of ('Adjective', 'Noun'), got None")),
        (PARIS_T_LINE + "A1\tnon_locational T1 Yes\n",
         (2, "non_locational must be True or False, got 'Yes'")),
        (PARIS_T_LINE + "N1\tReference T1 Geonames:Paris\tParis\n",
         (2, "bad gazetteer id 'Paris'")),
        (PARIS_T_LINE + "N1\tReference T1 Coordinates:48.85\tParis\n",
         (2, "bad coordinate value '48.85': not enough values to unpack (expected 2, got 1)")),
        (PARIS_T_LINE + "N1\tReference T1 Coordinates:48.85,east\tParis\n",
         (2, "bad coordinate value '48.85,east': could not convert string to float: 'east'")),
        (PARIS_T_LINE + "N1\tReference T1 Coordinates:95,2.35\tParis\n",
         (2, "bad coordinate value '95,2.35': latitude 95.0 outside [-90, 90]")),
        # int() and float() would read these as 2988507 and (48.5, 2.0).
        (PARIS_T_LINE + "N1\tReference T1 Geonames:2_988_507\tParis\n",
         (2, "bad gazetteer id '2_988_507'")),
        (PARIS_T_LINE + "N1\tReference T1 Geonames:٥\tParis\n",
         (2, "bad gazetteer id '٥'")),
        (PARIS_T_LINE + "N1\tReference T1 Coordinates:4_8.5,٢\tParis\n",
         (2, "bad coordinate value '4_8.5,٢': not a number in ASCII digits: '4_8.5'")),
        (PARIS_T_LINE + "N1\tReference T1 Coordinates:48.5,٢\tParis\n",
         (2, "bad coordinate value '48.5,٢': not a number in ASCII digits: '٢'")),
        (PARIS_T_LINE + "A1\tnon_locational T1\nA2\tnon_locational T1 False\n",
         (3, "T1: non_locational False conflicts with True from line 2")),
        (PARIS_T_LINE + "A1\tmodifier_type T1 Verb\nN1\tReference T1\n",
         (3, "unparseable N-line: 'N1\\tReference T1'")),
        (PARIS_T_LINE + "N1\tReference T1 Geonames:Paris\tParis\nA1\tmodifier_type T1 Verb\n",
         (3, "modifier_type must be one of ('Adjective', 'Noun'), got 'Verb'")),
        (PARIS_T_LINE + "A1\tnon_locational T9 Yes\nN1\tReference T1 Geonames:2988507\tx\n"
         "N2\tReference T1 Geonames:1\tx\n",
         (2, "attribute references missing span T9")),
        ("A1\tmodifier_type T1 Noun\nN1\tReference T1 Geonames:2988507\tParis\n" + PARIS_T_LINE,
         dataclasses.replace(PARIS, gazetteer_id=2988507)),
        (PARIS_T_LINE + "A1\tchecked T1 yes\nA2\tNegated T1\nN1\tReference T1 Wikidata:Q90\tParis\n"
         "N2\tReference T1 Wikidata:Q91\tParis\n",
         PARIS),
    ],
    ids=[
        "unparseable-T", "non-ASCII-digit-offsets", "duplicate-T", "span-outside-text", "surface-mismatch",
        "unknown-type", "unparseable-A", "unparseable-N", "unrecognised-line", "A-missing-span",
        "unmodelled-A-missing-span", "N-missing-span", "unmodelled-N-missing-span",
        "bad-modifier_type", "modifier_type-without-value", "bad-non_locational",
        "non-integer-Geonames", "Coordinates-one-number", "Coordinates-not-a-number",
        "Coordinates-out-of-range", "underscored-Geonames", "non-ASCII-digit-Geonames", "underscored-Coordinates",
        "non-ASCII-digit-Coordinates", "non_locational-conflict", "later-syntax-beats-earlier-value",
        "A-line-beats-earlier-N-line", "first-A-error-beats-N-conflict", "A-and-N-before-T-load",
        "unmodelled-attribute-and-resource-ignored",
    ],
)
def test_load_brat_errors_and_their_line(ann_text, outcome):
    if isinstance(outcome, ToponymAnnotation):
        assert load_brat(PARIS_TEXT, ann_text).annotations == [outcome]
        return
    line_no, message = outcome
    with pytest.raises(BratParseError) as exc_info:
        load_brat(PARIS_TEXT, ann_text)
    assert (str(exc_info.value), exc_info.value.line_no) == (f"line {line_no}: {message}", line_no)


def _expression_ann(text: str, surface: str, label: str) -> str:
    start = text.index(surface)
    return (
        f"T1\t{label} {start} {start + len(surface)}\t{surface}\n"
        "A1\tnon_locational T1 True\n"
    )


def test_expression_lines_produce_context_and_head():
    text = "The deal was agreed by the chief engineer."
    ann_text = _expression_ann(text, "the chief engineer", "AssociativeExpression")
    doc = load_brat(text, ann_text)
    assert doc.annotations == []
    roles = {(e.role, e.kind) for e in doc.expressions}
    assert roles == {
        (ExpressionRole.CONTEXT, ExpressionKind.ASSOCIATIVE),
        (ExpressionRole.HEAD, ExpressionKind.ASSOCIATIVE),
    }


def test_expression_head_kind_from_attribute():
    text = "It opened in the new stadium yesterday."
    # Literal context, but the head is flagged non-locational.
    ann_text = _expression_ann(text, "the new stadium", "LiteralExpression")
    doc = load_brat(text, ann_text)
    kinds = {e.role: e.kind for e in doc.expressions}
    assert kinds[ExpressionRole.CONTEXT] == ExpressionKind.LITERAL
    assert kinds[ExpressionRole.HEAD] == ExpressionKind.ASSOCIATIVE


FULL_DOC_TEXT = "Russian planes left Paris. The Waldo County Jail holds many."
FULL_DOC_ANN = (
    "T1\tNonLitModifier 0 7\tRussian\n"
    "A1\tmodifier_type T1 Adjective\n"
    "T2\tLiteral 20 25\tParis\n"
    "N1\tReference T2 Geonames:1004\tParis\n"
    "T3\tCoercion 31 48\tWaldo County Jail\n"
    "N2\tReference T3 Coordinates:44.4259,-69.0064\tWaldo County Jail\n"
    "A2\tnon_locational T3 False\n"
)


def test_roundtrip_field_for_field():
    original = load_brat(FULL_DOC_TEXT, FULL_DOC_ANN, doc_id="d9")
    text, ann = serialize_brat(original)
    reloaded = load_brat(text, ann, doc_id="d9")
    assert reloaded.text == original.text
    assert reloaded.annotations == original.annotations
    assert reloaded.expressions == original.expressions


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_roundtrip_surface_with_a_character_that_is_not_lf(char):
    # str.splitlines breaks lines at each of these; a .ann line ends at LF only.
    text = f"In a{char}b today."
    original = Document("u", text, [_ann(3, 6, f"a{char}b", gazetteer_id=1004)])
    reloaded = load_brat(*serialize_brat(original), doc_id="u")
    assert reloaded.annotations == original.annotations


def test_serialize_refuses_a_surface_with_a_cr():
    doc = Document("u", "a\rb", [_ann(0, 3, "a\rb")])
    with pytest.raises(ValueError, match="tab, CR or LF"):
        serialize_brat(doc)


def test_roundtrip_with_expressions():
    text = "The deal was agreed by the chief engineer."
    ann_text = _expression_ann(text, "the chief engineer", "AssociativeExpression")
    original = load_brat(text, ann_text, doc_id="e1")
    reloaded = load_brat(*serialize_brat(original), doc_id="e1")
    assert reloaded.expressions == original.expressions


def _ann(start, end, surface, type_=TaxonomyType.LITERAL, **kwargs):
    return ToponymAnnotation(start=start, end=end, surface=surface, toponym_type=type_, **kwargs)


def test_exclusion_demonym_without_coord(toy_index):
    doc = Document("d", "Russians here", [_ann(0, 8, "Russians", TaxonomyType.DEMONYM)])
    result = apply_exclusion_policy([doc], toy_index)
    assert result.kept == []
    assert result.excluded[0].reason == EXCLUDED_NON_LOCATIONAL


def test_exclusion_demonym_with_gazetteer_link_kept(toy_index):
    doc = Document(
        "d", "Russians here", [_ann(0, 8, "Russians", TaxonomyType.DEMONYM, gazetteer_id=1009)]
    )
    result = apply_exclusion_policy([doc], toy_index)
    assert len(result.kept) == 1
    assert result.kept[0][1].coord == toy_index.entry(1009).coord


def test_exclusion_literal_with_valid_id_kept(toy_index):
    doc = Document("d", "Paris is calm.", [_ann(0, 5, "Paris", gazetteer_id=1004)])
    result = apply_exclusion_policy([doc], toy_index)
    assert len(result.kept) == 1
    assert result.excluded == []


def test_exclusion_dangling_ids(toy_index):
    annotations = [
        _ann(i * 10, i * 10 + 5, "Paris", gazetteer_id=1004) for i in range(8)
    ] + [
        _ann(80, 85, "FacA1", gazetteer_id=999901),
        _ann(90, 95, "FacB2", gazetteer_id=999902),
    ]
    text = "x" * 100
    doc = Document("d", text, annotations)
    result = apply_exclusion_policy([doc], toy_index)
    assert len(result.kept) == 8
    assert len(result.excluded) == 2
    assert all(e.reason == EXCLUDED_NOT_IN_GAZETTEER for e in result.excluded)


def test_exclusion_partitions_input(toy_index):
    doc = Document(
        "d",
        "x" * 60,
        [
            _ann(0, 5, "Paris", gazetteer_id=1004),
            _ann(10, 15, "Blerg", TaxonomyType.DEMONYM),
            _ann(20, 25, "FacA1", gazetteer_id=424242),
            _ann(30, 35, "Milan", TaxonomyType.HOMONYM),
            _ann(40, 45, "Lndon", gazetteer_id=1005, coord=Coordinate(51.5074, -0.1278)),
        ],
    )
    result = apply_exclusion_policy([doc], toy_index)
    assert len(result.kept) + len(result.excluded) == 5
    kept_spans = {a.span for _, a in result.kept}
    excl_spans = {e.annotation.span for e in result.excluded}
    assert kept_spans.isdisjoint(excl_spans)


def test_exclusion_fills_coords_from_gazetteer(toy_index):
    doc = Document("d", "Paris is calm.", [_ann(0, 5, "Paris", gazetteer_id=1004)])
    result = apply_exclusion_policy([doc], toy_index)
    assert result.kept[0][1].coord == Coordinate(48.8566, 2.3522)


def test_exclusion_keeps_annotated_coord_override(toy_index):
    override = Coordinate(48.8566, 2.3522)
    doc = Document(
        "d", "Paris is calm.", [_ann(0, 5, "Paris", gazetteer_id=1004, coord=override)]
    )
    result = apply_exclusion_policy([doc], toy_index)
    assert result.kept[0][1].coord == override


def test_exclusion_warns_when_annotated_coords_disagree_with_the_gazetteer(toy_index, caplog):
    far = Coordinate(40.0, 2.3522)  # about 980 km south of gazetteer entry 1004
    doc = Document("d", "Paris is calm.", [_ann(0, 5, "Paris", gazetteer_id=1004, coord=far)])
    with caplog.at_level(logging.WARNING, logger="geoeval.corpus"):
        result = apply_exclusion_policy([doc], toy_index)
    assert result.kept[0][1].coord == far
    (message,) = [r.getMessage() for r in caplog.records]
    assert message.startswith("d: annotated coordinates ") and "disagree with gazetteer entry 1004" in message
    assert message.endswith("keeping the annotated value")


def test_load_predictions_full_line():
    records, errors = load_predictions(["doc1\t4\t10\tLondon\tLocation\t48.8500\t2.3500\n"])
    assert errors == []
    assert records[0] == PredictionRecord(
        "doc1", 4, 10, "London", "Location", Coordinate(48.85, 2.35)
    )


def test_load_predictions_without_coordinates():
    records, errors = load_predictions(["doc1\t4\t10\tLondon\tLocation\t\t\n"])
    assert errors == []
    assert records[0].predicted_coord is None


def test_load_predictions_bad_span():
    records, errors = load_predictions(["doc1\t10\t4\tLondon\t\t\t\n"])
    assert records == []
    assert len(errors) == 1 and errors[0].line_no == 1


def test_load_predictions_mixed_errors():
    lines = [
        "doc1\t0\t5\tParis\t\t48.8566\t2.3522\n",
        "doc1\tnope\t5\tParis\t\t\t\n",
        "too\tfew\tfields\n",
        "doc1\t0\t5\tParis\t\t48.8566\t\n",  # lat without lon
        "doc1\t6\t12\tLondon\tLocation\t\t\n",
        # float() would read these as (48.5, 2.0).
        "d\t0\t5\tParis\tLocation\t4_8.5\t٢\n",
        "d\t0\t5\tParis\tLocation\t48.5\t٢\n",
    ]
    records, errors = load_predictions(lines)
    assert len(records) == 2
    assert [e.line_no for e in errors] == [2, 3, 4, 6, 7]
    assert [e.message for e in errors[3:]] == ["not a number in ASCII digits: '4_8.5'",
                                               "not a number in ASCII digits: '٢'"]


@pytest.mark.parametrize(
    "start, end, message",
    [("0", "9" * 5_000, "an offset has too many digits"),
     (" +0 ", "9" * 5_000, "an offset has too many digits"),
     # int() reads Arabic-Indic digits and underscores too, so these would load as offsets.
     (" +0 ", "٣" * 5_000, "non-integer span: ' +0 ', '٣٣٣٣٣٣٣٣٣٣٣٣...٣٣٣٣٣٣٣٣٣٣٣٣٣'"),
     ("٠", "٥", "non-integer span: '٠', '٥'"),
     ("1_0", "1_5", "non-integer span: '1_0', '1_5'"),
     ("0", "x" * 5_000, "non-integer span: '0', 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
     ("1.5", "9" * 5_000, "non-integer span: '1.5', '999999999999...9999999999999'"),
     # int() strips any Unicode space, so these would load as offset 0.
     ("\u20030", "5", "non-integer span: '\\u20030', '5'"),
     ("0\u00a0", "5", "non-integer span: '0\\xa0', '5'")],
    ids=["digits", "signed-digits", "signed-other-digits", "other-digits", "underscores", "letters",
         "one-not-an-integer", "em-space", "no-break-space"],
)
def test_load_predictions_reports_a_long_offset_field_in_a_short_message(start, end, message):
    records, errors = load_predictions(["doc1\t0\t5\tParis\t\t\t\n", f"doc1\t{start}\t{end}\tParis\t\t\t\n"])
    assert len(records) == 1
    assert [(e.line_no, e.message) for e in errors] == [(2, message)]


def test_predictions_write_read_roundtrip():
    records = [
        PredictionRecord("a", 0, 5, "Paris", "Location", Coordinate(48.8566, 2.3522)),
        PredictionRecord("a", 6, 12, "London", None, None),
    ]
    buf = io.StringIO()
    write_predictions(records, buf)
    reread, errors = load_predictions(io.StringIO(buf.getvalue()))
    assert errors == []
    assert len(reread) == 2
    assert reread[0].predicted_coord.lat == pytest.approx(48.8566, abs=1e-6)
    assert reread[1] == records[1]


def test_load_directory(tmp_path):
    write_brat_doc(tmp_path, "b_doc", "London calling.", "T1\tLiteral 0 6\tLondon\n")
    write_brat_doc(tmp_path, "a_doc", "Paris sleeps.", "T1\tLiteral 0 5\tParis\n")
    docs = load_directory(str(tmp_path))
    assert [d.doc_id for d in docs] == ["a_doc", "b_doc"]
    assert gold_spans(docs)[0][0] == "a_doc"


def test_load_directory_skips_a_txt_without_an_ann_with_a_warning(tmp_path, caplog):
    write_brat_doc(tmp_path, "a_doc", "Paris sleeps.", "T1\tLiteral 0 5\tParis\n")
    (tmp_path / "b_doc.txt").write_text("London calling.", encoding="utf-8")
    (tmp_path / "notes.md").write_text("not a document", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="geoeval.corpus"):
        docs = load_directory(str(tmp_path))
    assert [d.doc_id for d in docs] == ["a_doc"]
    orphan = tmp_path / "b_doc.txt"
    assert [r.getMessage() for r in caplog.records] == [f"no .ann file for {orphan}; skipping"]


def test_load_directory_skips_an_ann_without_a_txt_with_a_warning(tmp_path, caplog):
    write_brat_doc(tmp_path, "a_doc", "Paris sleeps.", "T1\tLiteral 0 5\tParis\n")
    write_brat_doc(tmp_path, "b_doc", "London calling.", "T1\tLiteral 0 6\tLondon\n")
    (tmp_path / "b_doc.txt").rename(tmp_path / "b_doc.TXT")  # misnamed, so b_doc.ann has no text
    with caplog.at_level(logging.WARNING, logger="geoeval.corpus"):
        docs = load_directory(str(tmp_path))
    assert [d.doc_id for d in docs] == ["a_doc"]
    orphan = tmp_path / "b_doc.ann"
    assert [r.getMessage() for r in caplog.records] == [
        f"{tmp_path / 'b_doc.TXT'}: only lower-case .txt and .ann files are read; skipping",
        f"no .txt file for {orphan}; skipping",
    ]


def test_load_directory_names_each_file_of_an_upper_case_pair_it_skips(tmp_path, caplog):
    write_brat_doc(tmp_path, "a_doc", "Paris sleeps.", "T1\tLiteral 0 5\tParis\n")
    write_brat_doc(tmp_path, "b_doc", "London calling.", "T1\tLiteral 0 6\tLondon\n")
    for ext in ("txt", "ann"):
        (tmp_path / f"b_doc.{ext}").rename(tmp_path / f"b_doc.{ext.upper()}")
    with caplog.at_level(logging.WARNING, logger="geoeval.corpus"):
        docs = load_directory(str(tmp_path))
    assert [d.doc_id for d in docs] == ["a_doc"]
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("geoeval.corpus", logging.WARNING,
         f"{tmp_path / name}: only lower-case .txt and .ann files are read; skipping")
        for name in ("b_doc.ANN", "b_doc.TXT")
    ]


def test_load_directory_crlf_text(tmp_path):
    text = "Storms hit.\r\nParis flooded.\r\nLondon too.\r\n"
    p_start, l_start = text.index("Paris"), text.index("London")
    ann = f"T1\tLiteral {p_start} {p_start + 5}\tParis\r\nT2\tLiteral {l_start} {l_start + 6}\tLondon\r\n"
    (tmp_path / "crlf.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "crlf.ann").write_bytes(ann.encode("utf-8"))
    (doc,) = load_directory(str(tmp_path))
    assert doc.text == text
    assert [(a.start, a.surface) for a in doc.annotations] == [(13, "Paris"), (29, "London")]
    assert all(doc.text[a.start:a.end] == a.surface for a in doc.annotations)


def test_load_directory_bom_counted_in_offsets(tmp_path):
    # A UTF-8 BOM is kept as U+FEFF, so offsets count it as one code point.
    text = "\ufeffParis flooded."
    (tmp_path / "bom.txt").write_bytes(text.encode("utf-8"))
    (tmp_path / "bom.ann").write_text("T1\tLiteral 1 6\tParis\n", encoding="utf-8")
    (doc,) = load_directory(str(tmp_path))
    assert doc.text == text
    assert doc.annotations[0].start == 1 and doc.text[1:6] == "Paris"
    (tmp_path / "bom.ann").write_text("T1\tLiteral 0 5\tParis\n", encoding="utf-8")
    with pytest.raises(BratParseError):
        load_directory(str(tmp_path))


def test_load_directory_names_the_ann_and_line_of_an_offset_too_long_to_read(tmp_path):
    ann = "T1\tLiteral 0 5\tParis\nT2\tLiteral 0 " + "9" * 5_000 + "\tParis\n"
    write_brat_doc(tmp_path, "doc", "Paris flooded.", ann)
    with pytest.raises(BratParseError) as info:
        load_directory(str(tmp_path))
    assert info.value.line_no == 2
    assert str(info.value).startswith(f"{tmp_path / 'doc.ann'}:2: T2: ")


def test_load_directory_drops_the_bom_of_an_ann(tmp_path):
    # The .ann holds no offsets into itself, so its BOM is not a character.
    (tmp_path / "doc.txt").write_text("Paris flooded.", encoding="utf-8")
    (tmp_path / "doc.ann").write_bytes("\ufeffT1\tLiteral 0 5\tParis\n".encode("utf-8"))
    (doc,) = load_directory(str(tmp_path))
    assert [(a.start, a.surface) for a in doc.annotations] == [(0, "Paris")]


def test_ten_document_roundtrip(tmp_path):
    for i in range(10):
        text = f"Doc {i}: Russian planes left Paris id{i}."
        r_start = text.index("Russian")
        p_start = text.index("Paris")
        ann = (
            f"T1\tNonLitModifier {r_start} {r_start + 7}\tRussian\n"
            "A1\tmodifier_type T1 Adjective\n"
            f"T2\tLiteral {p_start} {p_start + 5}\tParis\n"
            "N1\tReference T2 Geonames:1004\tParis\n"
        )
        write_brat_doc(tmp_path, f"doc{i}", text, ann)
    docs = load_directory(str(tmp_path))
    assert len(docs) == 10
    for doc in docs:
        text, ann = serialize_brat(doc)
        reloaded = load_brat(text, ann, doc_id=doc.doc_id)
        assert reloaded.annotations == doc.annotations
        assert reloaded.expressions == doc.expressions


GEOWEBNEWS_DIR = os.environ.get("GEOWEBNEWS_DIR", "")


@pytest.mark.skipif(not GEOWEBNEWS_DIR, reason="real corpus not available (set GEOWEBNEWS_DIR)")
def test_real_corpus_totals(toy_index):
    docs = load_directory(GEOWEBNEWS_DIR)
    assert sum(len(d.annotations) for d in docs) == 2720
