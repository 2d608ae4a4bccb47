"""Training-data augmentation by recombining annotated NP contexts and heads.

Annotated expressions split each source sentence into an interchangeable
context and head. Substituting compatible heads, or gold toponyms of the
matching literal/associative group, into a context slot yields synthetic
training sentences in token/tag column format. Literal contexts only ever
receive literal fillers and associative contexts associative ones. The
module also renders the `contexts:`/`heads:` summary of the expressions
it drew from (`summary_lines`).
"""

from __future__ import annotations

import logging
import random
import re
from collections import Counter
from typing import Iterable, Sequence, TextIO

from .corpus import Document, ExpressionAnnotation, ExpressionRole
from .tagger import token_spans
from .taxonomy import ExpressionKind, TopLevel, top_level

log = logging.getLogger(__name__)

TaggedSentence = list[tuple[str, str]]

OUTSIDE_TAG = "O"

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Approximate sentence (start, end) spans covering the whole text."""
    spans = []
    start = 0
    for m in _SENTENCE_BOUNDARY.finditer(text):
        spans.append((start, m.start()))
        start = m.end()
    if start < len(text):
        spans.append((start, len(text)))
    return spans


def _containing_sentence(sentences: list[tuple[int, int]], start: int, end: int) -> tuple[int, int]:
    """Smallest run of the sentence spans covering [start, end)."""
    lo, hi = start, end
    for s_start, s_end in sentences:
        if s_end <= start or s_start >= end:
            continue
        lo = min(lo, s_start)
        hi = max(hi, s_end)
    return lo, hi


def expression_counts(
    expressions: Iterable[ExpressionAnnotation],
) -> Counter[tuple[ExpressionRole, ExpressionKind]]:
    """Counts per (role, kind), e.g. how many literal contexts exist."""
    return Counter((expr.role, expr.kind) for expr in expressions)


def summary_lines(expressions: Iterable[ExpressionAnnotation]) -> list[str]:
    """One line per role counting its expressions by kind, e.g. `contexts: Literal=2, Associative=1`."""
    counts = expression_counts(expressions)
    lines = []
    for role in ExpressionRole:
        per_kind = ", ".join(f"{kind.value}={counts[role, kind]}" for kind in ExpressionKind)
        lines.append(f"{role.value.lower()}s: {per_kind}")
    return lines


def generate_augmented(
    docs: Sequence[Document],
    expressions: Sequence[ExpressionAnnotation],
    max_per_source: int,
    seed: int,
) -> list[TaggedSentence]:
    """Synthesise tagged sentences by filling context slots.

    For every Context expression, up to max_per_source fillers are drawn
    (seeded, per-context) from the gold toponyms and Head surfaces of the
    context's top-level group (`taxonomy.top_level`). Toponym fills are
    tagged B-/I- plus the group's value, Literal or Associative; head
    fills produce all-O negative sentences. Sentence-initial fills are
    capitalised; no other morphological adjustment is attempted.
    """
    if max_per_source < 1:
        raise ValueError("max_per_source must be >= 1")
    doc_map = {doc.doc_id: doc for doc in docs}

    pools: dict[TopLevel, dict[tuple[str, bool], None]] = {group: {} for group in TopLevel}
    for doc in docs:
        for ann in doc.annotations:
            pools[top_level(ann.toponym_type)][ann.surface, True] = None
    for expr in expressions:
        if expr.role is ExpressionRole.HEAD:
            pools[top_level(expr.kind)][expr.surface, False] = None
    fillers = {group: list(pool) for group, pool in pools.items()}

    out: list[TaggedSentence] = []
    sentences: dict[str, list[tuple[int, int]]] = {}  # doc_id -> spans, split once per document
    contexts = [e for e in expressions if e.role is ExpressionRole.CONTEXT]
    for ctx_index, ctx in enumerate(contexts):
        doc = doc_map.get(ctx.doc_id)
        if doc is None:
            log.warning("augment: context %d references unknown document %r", ctx_index, ctx.doc_id)
            continue
        if doc.text[ctx.start : ctx.end] != ctx.surface:
            log.warning(
                "augment: context %d span does not match document text; skipping", ctx_index
            )
            continue
        group = top_level(ctx.kind)
        pool = fillers[group]
        if not pool:
            continue
        if doc.doc_id not in sentences:
            sentences[doc.doc_id] = sentence_spans(doc.text)
        sent_start, sent_end = _containing_sentence(sentences[doc.doc_id], ctx.start, ctx.end)
        prefix = doc.text[sent_start : ctx.start]
        suffix = doc.text[ctx.end : sent_end]
        rng = random.Random(f"{seed}:{ctx_index}")
        picks = rng.sample(pool, min(max_per_source, len(pool)))
        for fill, is_toponym in picks:
            if not prefix.strip():
                fill = fill[:1].upper() + fill[1:]
            sentence = prefix + fill + suffix
            fill_start = len(prefix)
            fill_end = fill_start + len(fill)
            tagged: TaggedSentence = []
            inside = False  # the tokens overlapping the fill are contiguous, so it never resets
            for tok_start, tok_end in token_spans(sentence):
                tag = OUTSIDE_TAG
                if is_toponym and tok_start < fill_end and tok_end > fill_start:
                    tag = ("I-" if inside else "B-") + group.value
                    inside = True
                tagged.append((sentence[tok_start:tok_end], tag))
            out.append(tagged)
    return out


def write_tagged(sentences: Iterable[TaggedSentence], fh: TextIO) -> None:
    """Token/tag column output: one token per line, blank line per sentence."""
    for sentence in sentences:
        for token, tag in sentence:
            fh.write(f"{token}\t{tag}\n")
        fh.write("\n")
