import pytest

from geoeval import corpus
from geoeval.taxonomy import ExpressionKind, TaxonomyType, TopLevel, top_level

LIT = TopLevel.LITERAL
ASSOC = TopLevel.ASSOCIATIVE


# The eleven type-table rows, with the group each row belongs to.
TABLE_ROWS = [
    ("Literal", LIT),
    ("LiteralModifier", LIT),
    ("Mixed", LIT),
    ("Coercion", LIT),
    ("EmbeddedLiteral", LIT),
    ("EmbeddedAssociative", ASSOC),
    ("Metonymy", ASSOC),
    ("Language", ASSOC),
    ("Demonym", ASSOC),
    ("NonLitModifier", ASSOC),
    ("Homonym", ASSOC),
]


@pytest.mark.parametrize("name,expected", TABLE_ROWS)
def test_type_table_rows(name, expected):
    assert top_level(TaxonomyType(name)) == expected


def test_eleven_rows():
    assert len(TABLE_ROWS) == 11
    assert {name for name, _ in TABLE_ROWS} == {t.value for t in TaxonomyType}


def test_top_level_mapping():
    assert top_level(TaxonomyType.COERCION) == LIT
    assert top_level(TaxonomyType.MIXED) == LIT
    assert top_level(TaxonomyType.METONYMY) == ASSOC
    literals = [t for t in TaxonomyType if top_level(t) == LIT]
    associatives = [t for t in TaxonomyType if top_level(t) == ASSOC]
    assert len(literals) == 5
    assert len(associatives) == 6


def test_expression_kinds_share_the_type_table():
    assert top_level(ExpressionKind.LITERAL) == LIT
    assert top_level(ExpressionKind.ASSOCIATIVE) == ASSOC
    # The BRAT labels and the name corpus exports are unchanged.
    assert corpus.ExpressionKind is ExpressionKind
    assert [k.value for k in ExpressionKind] == ["LiteralExpression", "AssociativeExpression"]
