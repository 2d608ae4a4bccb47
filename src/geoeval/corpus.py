"""Gold-annotation and prediction I/O.

Three file formats live here:

* BRAT standoff (.txt + .ann): T-lines carry toponym or expression spans,
  A-lines the modifier_type / non_locational attributes (checked on every
  span, kept only as an expression's head kind), N-lines gazetteer links
  ("Geonames:<id>") or explicit coordinates ("Coordinates:<lat>,<lon>").
  Offsets are Unicode code-point offsets. A span takes one value per
  attribute and resource: a repeat must agree.
* The prediction interchange format: one record per line, seven
  tab-separated fields (doc_id, start, end, surface, label, lat, lon),
  designed so external taggers/geocoders can append-stream it.
* The exclusion policy that reduces gold annotations to the geocodable
  subset: non-locational types without coordinates go, and so does
  anything without a usable gazetteer link (facilities, street names).
"""

from __future__ import annotations

import logging
import os
import re
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, TextIO

from .gazetteer import GazetteerIndex
from .geodesy import Coordinate, ascii_float, ascii_number
from .taxonomy import NON_LOCATIONAL_TYPES, ExpressionKind, TaxonomyType

log = logging.getLogger(__name__)

MODIFIER_VALUES = ("Adjective", "Noun")

# Attribute and normalization-resource names used in the .ann files.
MODIFIER_ATTRIBUTE = "modifier_type"
NON_LOCATIONAL_ATTRIBUTE = "non_locational"
GAZETTEER_RESOURCE = "Geonames"
COORDINATE_RESOURCE = "Coordinates"

EXCLUDED_NON_LOCATIONAL = "non-locational type"
EXCLUDED_NOT_IN_GAZETTEER = "not in gazetteer"

# Annotated coordinates may disagree with the linked gazetteer entry by at
# most this much (degrees) before we warn.
COORD_AGREEMENT_DEG = 0.01


class BratParseError(ValueError):
    """A gold .txt or .ann file that cannot be read as BRAT standoff."""

    def __init__(self, message: str, line_no: Optional[int] = None, path: Optional[str] = None):
        self.line_no = line_no
        self.reason = message
        where = f"{path}:{line_no}" if path is not None else f"line {line_no}"
        super().__init__(f"{where}: {message}" if line_no is not None else message)


class ExpressionRole(Enum):
    CONTEXT = "Context"
    HEAD = "Head"


@dataclass(frozen=True)
class ToponymAnnotation:
    """One gold toponym span with its taxonomy type and link data."""

    start: int
    end: int
    surface: str
    toponym_type: TaxonomyType
    gazetteer_id: Optional[int] = None
    coord: Optional[Coordinate] = None

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class ExpressionAnnotation:
    """A noun-phrase expression span used for training-data augmentation.

    Each annotated expression contributes a Context record (the sentence
    around the span, kinded by the expression label) and a Head record
    (the span itself, kinded by its non_locational attribute).
    """

    doc_id: str
    start: int
    end: int
    surface: str
    kind: ExpressionKind
    role: ExpressionRole

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass(frozen=True)
class PredictionRecord:
    """A system's extracted span and/or predicted coordinates."""

    doc_id: str
    start: int
    end: int
    surface: str
    predicted_label: Optional[str] = None
    predicted_coord: Optional[Coordinate] = None

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")
        # The interchange format is one tab-separated record per line.
        if "\t" in self.doc_id or "\n" in self.doc_id or "\r" in self.doc_id:
            raise ValueError(f"document id {self.doc_id!r} contains a tab or line break")
        for name, value in (("surface", self.surface), ("label", self.predicted_label or "")):
            if "\t" in value or "\n" in value or "\r" in value:
                raise ValueError(
                    f"{self.doc_id} ({self.start}, {self.end}): {name} {value!r} contains a tab or line break"
                )

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)


@dataclass
class Document:
    doc_id: str
    text: str
    annotations: list[ToponymAnnotation] = field(default_factory=list)
    expressions: list[ExpressionAnnotation] = field(default_factory=list)


# Span labels are the TaxonomyType and ExpressionKind values.
_LABELS = {member.value: member for member in (*TaxonomyType, *ExpressionKind)}

# Offsets are ASCII digits: int() would also read other decimal digits, such as "٥".
_T_LINE = re.compile(r"^(T\d+)\t(\S+) ([0-9]+) ([0-9]+)\t(.*)$")
_A_LINE = re.compile(r"^A\d+\t(?P<name>\S+) (?P<tid>T\d+)(?: (?P<value>\S+))?\s*$")
_N_LINE = re.compile(r"^N\d+\tReference (?P<tid>T\d+) (?P<name>[^:\t]+):(?P<value>\S+)(?:\t.*)?$")


def _parse_value(kind: str, name: str, raw: Optional[str]):
    """The value an A-line (`kind` "A") or N-line ("N") gives attribute or resource `name`.

    Returns None for a name geoeval does not model; a bad value raises ValueError.
    """
    if kind == "A" and name == MODIFIER_ATTRIBUTE:
        if raw not in MODIFIER_VALUES:
            raise ValueError(f"{MODIFIER_ATTRIBUTE} must be one of {MODIFIER_VALUES}, got {raw!r}")
        return raw
    if kind == "A" and name == NON_LOCATIONAL_ATTRIBUTE:
        if raw not in (None, "True", "False"):
            raise ValueError(f"{NON_LOCATIONAL_ATTRIBUTE} must be True or False, got {raw!r}")
        return raw != "False"
    if kind == "N" and name == GAZETTEER_RESOURCE:
        try:
            return int(ascii_number(raw))
        except ValueError:
            raise ValueError(f"bad gazetteer id {reprlib.repr(raw)}") from None
    if kind == "N" and name == COORDINATE_RESOURCE:
        try:
            lat_s, lon_s = raw.split(",")
            return Coordinate(ascii_float(lat_s), ascii_float(lon_s))
        except ValueError as exc:
            raise ValueError(f"bad coordinate value {reprlib.repr(raw)}: {exc}") from None
    return None


def load_brat(text: str, ann: str, doc_id: str = "") -> Document:
    """Parse BRAT standoff content into a Document.

    Raises BratParseError (with the offending line number) on grammar
    violations, bad offsets, surface mismatches and dangling references.
    Relation/event/comment lines are ignored.
    """
    spans: dict[str, tuple] = {}  # span id -> (label, start, end, surface)
    refs: list[tuple[str, int, str, str, Optional[str]]] = []  # (kind, line, span id, name, raw)

    # Lines end at LF only, as the writer's do: str.splitlines would also
    # break a surface at \x0b, \x85, U+2028 and the like.
    for line_no, raw in enumerate(ann.split("\n"), start=1):
        line = raw.removesuffix("\r")
        if not line.strip():
            continue
        kind = line[0]
        if kind == "T":
            m = _T_LINE.match(line)
            if not m:
                raise BratParseError(f"unparseable T-line: {line!r}", line_no)
            tid, label, start_s, end_s, surface = m.groups()
            if tid in spans:
                raise BratParseError(f"duplicate annotation id {tid}", line_no)
            try:
                start, end = int(start_s), int(end_s)
            except ValueError:  # more digits than int() converts
                raise BratParseError(f"{tid}: an offset has too many digits", line_no) from None
            if not (0 <= start < end <= len(text)):
                raise BratParseError(
                    f"{tid}: span ({start}, {end}) outside text of length {len(text)}",
                    line_no,
                )
            if text[start:end] != surface:
                raise BratParseError(
                    f"{tid}: surface {surface!r} does not match text "
                    f"{text[start:end]!r} at ({start}, {end})",
                    line_no,
                )
            if label not in _LABELS:
                raise BratParseError(f"{tid}: unknown annotation type {label!r}", line_no)
            spans[tid] = (_LABELS[label], start, end, surface)
        elif kind in "AN":
            m = (_A_LINE if kind == "A" else _N_LINE).match(line)
            if not m:
                raise BratParseError(f"unparseable {kind}-line: {line!r}", line_no)
            refs.append((kind, line_no, *m.group("tid", "name", "value")))
        elif kind in "REM#*":
            log.debug("%s: ignoring unmodelled line %d: %s", doc_id, line_no, line)
        else:
            raise BratParseError(f"unrecognised line: {line!r}", line_no)

    # Every A-line applies before any N-line, each kind in line order. A span
    # takes one value per name: a repeat must agree with the first.
    values: dict[tuple[str, str], tuple[object, int]] = {}  # (span id, name) -> (value, line)
    for kind, line_no, tid, name, raw in sorted(refs):
        what = "attribute" if kind == "A" else "normalization"
        if tid not in spans:
            raise BratParseError(f"{what} references missing span {tid}", line_no)
        try:
            value = _parse_value(kind, name, raw)
        except ValueError as exc:
            raise BratParseError(str(exc), line_no) from None
        if value is None:
            log.debug("%s: ignoring unmodelled %s %r (line %d)", doc_id, what, name, line_no)
            continue
        first, first_line = values.get((tid, name), (value, line_no))
        if first != value:
            raise BratParseError(
                f"{tid}: {name} {value!r} conflicts with {first!r} from line {first_line}", line_no
            )
        values[tid, name] = (value, first_line)

    def stored(tid: str, name: str):
        return values.get((tid, name), (None,))[0]

    annotations: list[ToponymAnnotation] = []
    expressions: list[ExpressionAnnotation] = []
    for tid, (label, start, end, surface) in spans.items():
        if isinstance(label, TaxonomyType):
            annotations.append(ToponymAnnotation(
                start, end, surface, label,
                gazetteer_id=stored(tid, GAZETTEER_RESOURCE),
                coord=stored(tid, COORDINATE_RESOURCE),
            ))
            continue
        # Context is kinded by the label, Head by non_locational when it is set.
        non_locational = stored(tid, NON_LOCATIONAL_ATTRIBUTE)
        head_kind = label if non_locational is None else (
            ExpressionKind.ASSOCIATIVE if non_locational else ExpressionKind.LITERAL
        )
        for role, kind in ((ExpressionRole.CONTEXT, label), (ExpressionRole.HEAD, head_kind)):
            expressions.append(ExpressionAnnotation(doc_id, start, end, surface, kind, role))

    annotations.sort(key=lambda a: (a.start, a.end))
    expressions.sort(key=lambda e: (e.start, e.end, e.role.value))
    return Document(doc_id=doc_id, text=text, annotations=annotations, expressions=expressions)


def serialize_brat(doc: Document) -> tuple[str, str]:
    """Render a Document back to (text, ann) BRAT standoff content."""
    for span in (*doc.annotations, *doc.expressions):
        if "\t" in span.surface or "\r" in span.surface or "\n" in span.surface:
            raise ValueError(f"cannot serialize surface containing a tab, CR or LF: {span.surface!r}")
    lines: list[str] = []
    counts = dict.fromkeys("TAN", 0)

    def emit(kind: str, body: str) -> str:
        """Append the next `kind` ("T", "A" or "N") line and return its id."""
        counts[kind] += 1
        line_id = f"{kind}{counts[kind]}"
        lines.append(f"{line_id}\t{body}")
        return line_id

    for ann in doc.annotations:
        tid = emit("T", f"{ann.toponym_type.value} {ann.start} {ann.end}\t{ann.surface}")
        if ann.gazetteer_id is not None:
            emit("N", f"Reference {tid} {GAZETTEER_RESOURCE}:{ann.gazetteer_id}\t{ann.surface}")
        if ann.coord is not None:
            coord = f"{ann.coord.lat!r},{ann.coord.lon!r}"
            emit("N", f"Reference {tid} {COORDINATE_RESOURCE}:{coord}\t{ann.surface}")

    by_span: dict[tuple[int, int], dict[ExpressionRole, ExpressionAnnotation]] = {}
    for expr in doc.expressions:
        by_span.setdefault(expr.span, {})[expr.role] = expr
    for span in sorted(by_span):
        roles = by_span[span]
        context = roles.get(ExpressionRole.CONTEXT)
        head = roles.get(ExpressionRole.HEAD)
        base = context or head
        assert base is not None
        tid = emit("T", f"{base.kind.value} {base.start} {base.end}\t{base.surface}")
        if head is not None:
            emit("A", f"{NON_LOCATIONAL_ATTRIBUTE} {tid} {head.kind is ExpressionKind.ASSOCIATIVE}")

    ann_text = "".join(line + "\n" for line in lines)
    return doc.text, ann_text


def load_document_pair(txt_path: str, ann_path: str) -> Document:
    doc_id = os.path.splitext(os.path.basename(txt_path))[0]
    # newline="" keeps "\r\n" as two code points, as BRAT offsets count
    # them; a UTF-8 BOM is kept as U+FEFF and counted too. The .ann holds
    # no offsets into itself, so its BOM is dropped; it is read with
    # newline="" too, as load_brat ends its lines at LF only.
    try:
        with open(txt_path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        with open(ann_path, encoding="utf-8-sig", newline="") as fh:
            ann = fh.read()
    except UnicodeDecodeError as exc:
        raise BratParseError(f"{fh.name}: {exc}") from exc
    try:
        return load_brat(text, ann, doc_id=doc_id)
    except BratParseError as exc:
        raise BratParseError(exc.reason, exc.line_no, path=ann_path) from exc


def load_directory(path: str) -> list[Document]:
    """Load every .txt/.ann pair under `path`, sorted by document id; a file without its pair is logged.

    So is one whose extension is .txt or .ann in another case, such as .TXT.
    """
    docs = []
    for name in sorted(os.listdir(path)):
        stem, ext = os.path.join(path, name[:-4]), name[-4:]
        pair = stem + (".ann" if ext == ".txt" else ".txt")
        if ext.lower() in (".txt", ".ann") and ext not in (".txt", ".ann"):
            log.warning("%s: only lower-case .txt and .ann files are read; skipping", stem + ext)
        elif ext in (".txt", ".ann") and not os.path.exists(pair):
            log.warning("no %s file for %s; skipping", pair[-4:], stem + ext)
        elif ext == ".txt":
            docs.append(load_document_pair(stem + ext, pair))
    return docs


def gold_spans(docs: Iterable[Document]) -> list[tuple[str, ToponymAnnotation]]:
    """Flatten documents into (doc_id, annotation) gold span pairs."""
    return [(doc.doc_id, ann) for doc in docs for ann in doc.annotations]


@dataclass(frozen=True)
class ExcludedAnnotation:
    doc_id: str
    annotation: ToponymAnnotation
    reason: str


@dataclass
class ExclusionResult:
    kept: list[tuple[str, ToponymAnnotation]]  # coordinates filled, in document order
    excluded: list[ExcludedAnnotation]


def apply_exclusion_policy(docs: Iterable[Document], index: GazetteerIndex) -> ExclusionResult:
    """Partition gold annotations into the geocodable subset and the rest.

    Excluded are (a) demonym/homonym/language annotations without any
    coordinate source, and (b) annotations lacking a resolvable gazetteer
    link: facilities, street names and venues with no entry, or dangling
    ids. Kept annotations have their coordinates filled from the
    gazetteer when not explicitly annotated. `kept` is the scored gold
    set, and the oracle tagger copies it, so the oracle scores F = 1.
    """
    kept: list[tuple[str, ToponymAnnotation]] = []
    excluded: list[ExcludedAnnotation] = []

    for doc in docs:
        for ann in doc.annotations:
            entry = index.entry(ann.gazetteer_id) if ann.gazetteer_id is not None else None
            has_coord = ann.coord is not None or entry is not None
            if ann.toponym_type in NON_LOCATIONAL_TYPES and not has_coord:
                excluded.append(ExcludedAnnotation(doc.doc_id, ann, EXCLUDED_NON_LOCATIONAL))
                continue
            if entry is None:
                excluded.append(ExcludedAnnotation(doc.doc_id, ann, EXCLUDED_NOT_IN_GAZETTEER))
                continue
            if ann.coord is None:
                # Built directly: dataclasses.replace costs about twice as much.
                ann = ToponymAnnotation(
                    start=ann.start, end=ann.end, surface=ann.surface, toponym_type=ann.toponym_type,
                    gazetteer_id=ann.gazetteer_id, coord=entry.coord,
                )
            elif (
                abs(ann.coord.lat - entry.coord.lat) > COORD_AGREEMENT_DEG
                or abs(ann.coord.lon - entry.coord.lon) > COORD_AGREEMENT_DEG
            ):
                log.warning("%s: annotated coordinates %s disagree with gazetteer entry %d %s; "
                            "keeping the annotated value", doc.doc_id, ann.coord, entry.id, entry.coord)
            kept.append((doc.doc_id, ann))
    return ExclusionResult(kept=kept, excluded=excluded)


@dataclass(frozen=True)
class PredictionError:
    line_no: int
    message: str


PREDICTION_FIELDS = 7
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)  # what int() reads, less "1_0", "٥" and Unicode spaces


def load_predictions(lines: Iterable[str]) -> tuple[list[PredictionRecord], list[PredictionError]]:
    """Parse prediction interchange lines.

    Malformed lines never abort the parse: they are collected as
    PredictionErrors and the caller decides whether to be strict.
    """
    records: list[PredictionRecord] = []
    errors: list[PredictionError] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != PREDICTION_FIELDS:
            errors.append(
                PredictionError(line_no, f"expected {PREDICTION_FIELDS} fields, got {len(fields)}")
            )
            continue
        doc_id, start_s, end_s, surface, label, lat_s, lon_s = fields
        if not (_INTEGER.fullmatch(start_s) and _INTEGER.fullmatch(end_s)):
            reason = f"non-integer span: {reprlib.repr(start_s)}, {reprlib.repr(end_s)}"
            errors.append(PredictionError(line_no, reason))
            continue
        try:
            start, end = int(start_s), int(end_s)
        except ValueError:  # more digits than int() converts
            errors.append(PredictionError(line_no, "an offset has too many digits"))
            continue
        if (lat_s == "") != (lon_s == ""):
            errors.append(PredictionError(line_no, "lat and lon must both be present or both empty"))
            continue
        try:
            coord = Coordinate(ascii_float(lat_s), ascii_float(lon_s)) if lat_s else None
            records.append(PredictionRecord(doc_id, start, end, surface, label or None, coord))
        except ValueError as exc:
            errors.append(PredictionError(line_no, str(exc)))
    return records, errors


def write_predictions(records: Iterable[PredictionRecord], fh: TextIO) -> None:
    """Write records in the interchange format (coordinates to 6 decimals)."""
    for rec in records:
        if rec.predicted_coord is not None:
            lat_s = f"{rec.predicted_coord.lat:.6f}"
            lon_s = f"{rec.predicted_coord.lon:.6f}"
        else:
            lat_s = lon_s = ""
        label = rec.predicted_label or ""
        fh.write(f"{rec.doc_id}\t{rec.start}\t{rec.end}\t{rec.surface}\t{label}\t{lat_s}\t{lon_s}\n")
