"""Toponym resolution baselines and cross-knowledge-base alignment.

The population heuristic resolves each extracted surface to its most
populous gazetteer candidate: crude, but a strong baseline that every
geocoder evaluation should include. Alignment post-edits coordinates
produced against a foreign knowledge base by snapping them to the nearest
same-name gazetteer entry, making error distances comparable across
systems built on different databases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus import Document, ExclusionResult, PredictionRecord, apply_exclusion_policy
from .gazetteer import GazetteerIndex, nearest_entry
from .geodesy import Coordinate
from .tagger import gazetteer_tag, oracle_spans

log = logging.getLogger(__name__)


@dataclass
class ResolutionResult:
    records: list[PredictionRecord]
    n_resolved: int
    n_unresolved: int


@dataclass
class AlignmentResult:
    records: list[PredictionRecord]
    n_aligned: int
    flagged: list[int]  # indices of records with no same-name candidate


def _with_coord(rec: PredictionRecord, coord: Coordinate) -> PredictionRecord:
    """`rec` with other predicted coordinates, validated again by the constructor.

    Built directly: `dataclasses.replace` costs about twice as much per record.
    """
    return PredictionRecord(
        doc_id=rec.doc_id, start=rec.start, end=rec.end, surface=rec.surface,
        predicted_label=rec.predicted_label, predicted_coord=coord,
    )


def load_lexicon(lines: Iterable[str]) -> dict[str, str]:
    """Parse a normalization lexicon: tab-separated surface -> canonical name.

    Maps non-standard surface forms (adjectives like "Russian") to
    gazetteer names; keys are casefolded. Blank lines and #-comments are
    skipped; other malformed lines are logged and skipped.
    """
    lexicon: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            log.warning("lexicon: skipping malformed line %d: %r", line_no, line)
            continue
        lexicon[parts[0].strip().casefold()] = parts[1].strip()
    return lexicon


def load_lexicon_path(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8-sig") as fh:
        return load_lexicon(fh)


def resolve_population(
    records: Sequence[PredictionRecord],
    index: GazetteerIndex,
    lexicon: Optional[dict[str, str]] = None,
    populated_only: bool = False,
) -> ResolutionResult:
    """Assign each record the coordinates of its most populous candidate.

    Ties break to the lowest gazetteer id. Surfaces are normalized via
    the lexicon first when one is supplied; populated_only leaves out
    candidates of population 0. Records with no candidate pass through
    unresolved.
    """
    out: list[PredictionRecord] = []
    n_resolved = 0
    for rec in records:
        name = rec.surface
        if lexicon is not None:
            name = lexicon.get(name.casefold(), name)
        # The most populous candidate is the heuristic's pick, and if it is
        # unpopulated, all are.
        best = index.top(name)
        if best is None or (populated_only and best.population == 0):
            out.append(rec)
            continue
        out.append(_with_coord(rec, best.coord))
        n_resolved += 1
    return ResolutionResult(records=out, n_resolved=n_resolved, n_unresolved=len(out) - n_resolved)


def run_baseline(
    docs: Sequence[Document], index: GazetteerIndex, oracle: bool, blocklist: Optional[frozenset[str]],
    lexicon: Optional[dict[str, str]], max_ngram: int, populated_only: bool,
) -> tuple[ResolutionResult, ExclusionResult]:
    """The baseline system: tag `docs`, then resolve each span by population.

    The oracle tagger copies the gold the exclusion policy keeps; the
    dictionary tagger reads every document. Returns the resolution and the
    exclusion result.
    """
    excl = apply_exclusion_policy(docs, index)
    if oracle:
        records = oracle_spans(excl.kept)
    else:
        records = [rec for doc in docs for rec in gazetteer_tag(doc, index, blocklist, max_ngram)]
    return resolve_population(records, index, lexicon=lexicon, populated_only=populated_only), excl


def align_to_gazetteer(
    records: Sequence[PredictionRecord],
    index: GazetteerIndex,
) -> AlignmentResult:
    """Snap foreign-knowledge-base coordinates onto gazetteer entries.

    Each record's coordinates are replaced by those of the nearest
    same-name entry. Records without a same-name candidate (or without
    coordinates to measure from) pass through unchanged and are flagged.
    """
    out: list[PredictionRecord] = []
    flagged: list[int] = []
    for i, rec in enumerate(records):
        coord = rec.predicted_coord
        entry = None if coord is None else nearest_entry(index, rec.surface, coord)
        if entry is None:
            out.append(rec)
            flagged.append(i)
        else:
            out.append(_with_coord(rec, entry.coord))
    return AlignmentResult(records=out, n_aligned=len(out) - len(flagged), flagged=flagged)
