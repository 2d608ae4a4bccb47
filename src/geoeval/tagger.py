"""Baseline geotaggers: dictionary lookup and oracle span generation.

The dictionary tagger is an end-to-end stand-in for external NER systems:
it scans token n-grams left to right, longest match first, and emits any
span whose case-folded surface is a gazetteer hit. Precision lives or
dies by the blocklist, which suppresses common words that happen to be
place names ("nice", "of", "mobile"); this module owns the default list
and the blocklist file format (`load_blocklist`). The oracle tagger
copies gold spans verbatim and exists to isolate geocoding performance
from NER quality.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .corpus import Document, PredictionRecord, ToponymAnnotation
from .gazetteer import GazetteerIndex

LOCATION_LABEL = "Location"

DEFAULT_MAX_NGRAM = 4

# Tokens are maximal runs of letters/digits: hyphens and other punctuation
# split, underscores too. N-gram surfaces are taken from the raw text, so
# internal hyphens/apostrophes survive ("Stratford-upon-Avon").
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)

# Common lowercase words that collide with gazetteer names; seed list,
# extend via the blocklist argument.
DEFAULT_BLOCKLIST = frozenset(
    """
    a an and are as at bath be best bill buffalo but by can come cook date
    deal derby early face fair for from had has have he her his home hope
    how i in industry is it its jobs male man march may mobile most much
    nice no normal not of on or over page police read reading sale says
    she so split sun that the their they this to union was we were why
    will with york young
    """.split()
)


def load_blocklist(lines: Iterable[str]) -> frozenset[str]:
    """Parse a blocklist: one surface per line, case-folded; blank lines are skipped."""
    return frozenset(line.strip().casefold() for line in lines if line.strip())


def token_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) offsets of every token in reading order."""
    return [m.span() for m in _TOKEN.finditer(text)]


def gazetteer_tag(
    doc: Document,
    index: GazetteerIndex,
    blocklist: Optional[frozenset[str]] = DEFAULT_BLOCKLIST,
    max_ngram: int = DEFAULT_MAX_NGRAM,
) -> list[PredictionRecord]:
    """Emit non-overlapping gazetteer-hit spans over one document.

    Longest match wins at each position; matching resumes after the end
    of an emitted span, so spans never overlap. Matches whose case-folded
    surface is blocklisted are suppressed.

    A position is probed only when its case-folded token starts a
    gazetteer name, and only up to that name's token count. That is exact
    when case folding keeps every token whole (a name's folded tokens are
    then a surface's raw tokens, folded); a document where it does not
    (`İ` folds to `i` plus a combining dot, U+0345 to a letter) is probed
    at every position for every n-gram length.
    """
    if max_ngram < 1:
        raise ValueError("max_ngram must be >= 1")
    blocked = blocklist or frozenset()
    tokens = token_spans(doc.text)
    folded = [doc.text[start:end].casefold() for start, end in tokens]
    if folded == _TOKEN.findall(doc.text.casefold()):
        max_tokens = index.max_tokens_by_first_token(_TOKEN)
        limits = [max_tokens.get(token, 0) for token in folded]
    else:
        limits = [max_ngram] * len(tokens)
    records: list[PredictionRecord] = []
    i = 0
    while i < len(tokens):
        matched = False
        for n in range(min(max_ngram, len(tokens) - i, limits[i]), 0, -1):
            start = tokens[i][0]
            end = tokens[i + n - 1][1]
            surface = doc.text[start:end]
            key = surface.casefold()
            if key in blocked or not index.has_name(key):
                continue
            records.append(PredictionRecord(doc.doc_id, start, end, surface, LOCATION_LABEL))
            i += n
            matched = True
            break
        if not matched:
            i += 1
    return records


def oracle_spans(gold: Iterable[tuple[str, ToponymAnnotation]]) -> list[PredictionRecord]:
    """One prediction per (doc_id, annotation) gold span, copied verbatim.

    Pass the exclusion policy's `kept` spans when the oracle should cover
    only the geocodable subset, or `corpus.gold_spans(docs)` for all gold.
    """
    return [PredictionRecord(doc_id, ann.start, ann.end, ann.surface, LOCATION_LABEL) for doc_id, ann in gold]
