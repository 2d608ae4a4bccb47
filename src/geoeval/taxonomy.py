"""The toponym type system and its literal/associative grouping.

Eleven fine-grained toponym types collapse onto two top-level groups:
LITERAL (the referent is the physical place) and ASSOCIATIVE (the referent
is merely associated with a place: metonyms, demonyms, languages, homonyms
and associative modifiers). The group comes from the annotated type label
through one fixed table, never from raw text; the two expression kinds
that augmentation uses sit in the same table.
"""

from __future__ import annotations

from enum import Enum


class TopLevel(Enum):
    LITERAL = "Literal"
    ASSOCIATIVE = "Associative"


class TaxonomyType(Enum):
    """Fine-grained toponym types; values double as annotation label strings."""

    LITERAL = "Literal"
    LITERAL_MODIFIER = "LiteralModifier"
    MIXED = "Mixed"
    COERCION = "Coercion"
    EMBEDDED_LITERAL = "EmbeddedLiteral"
    EMBEDDED_ASSOCIATIVE = "EmbeddedAssociative"
    METONYMY = "Metonymy"
    LANGUAGE = "Language"
    DEMONYM = "Demonym"
    NON_LIT_MODIFIER = "NonLitModifier"
    HOMONYM = "Homonym"


class ExpressionKind(Enum):
    """Noun-phrase expression labels for augmentation; values are annotation labels."""

    LITERAL = "LiteralExpression"
    ASSOCIATIVE = "AssociativeExpression"


# Fixed top-level grouping: the first five types are literal, the rest
# associative, and each expression kind belongs to its namesake group.
_TOP_LEVEL = {
    TaxonomyType.LITERAL: TopLevel.LITERAL,
    TaxonomyType.LITERAL_MODIFIER: TopLevel.LITERAL,
    TaxonomyType.MIXED: TopLevel.LITERAL,
    TaxonomyType.COERCION: TopLevel.LITERAL,
    TaxonomyType.EMBEDDED_LITERAL: TopLevel.LITERAL,
    TaxonomyType.EMBEDDED_ASSOCIATIVE: TopLevel.ASSOCIATIVE,
    TaxonomyType.METONYMY: TopLevel.ASSOCIATIVE,
    TaxonomyType.LANGUAGE: TopLevel.ASSOCIATIVE,
    TaxonomyType.DEMONYM: TopLevel.ASSOCIATIVE,
    TaxonomyType.NON_LIT_MODIFIER: TopLevel.ASSOCIATIVE,
    TaxonomyType.HOMONYM: TopLevel.ASSOCIATIVE,
    ExpressionKind.LITERAL: TopLevel.LITERAL,
    ExpressionKind.ASSOCIATIVE: TopLevel.ASSOCIATIVE,
}

# Types with no physical referent of their own; excluded from geocoding
# when they carry no coordinates.
NON_LOCATIONAL_TYPES = frozenset(
    {TaxonomyType.DEMONYM, TaxonomyType.HOMONYM, TaxonomyType.LANGUAGE}
)


def top_level(label: TaxonomyType | ExpressionKind) -> TopLevel:
    """Map a toponym type or an expression kind onto its literal/associative group."""
    return _TOP_LEVEL[label]
