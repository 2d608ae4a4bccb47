"""Geonames-style gazetteer ingest and case-folded name lookup.

The index keeps each record's id, coordinate, population and names as
columns, one row per entry in ascending id order, so `entry(id)` is a
binary search of the ids column. Its first name query maps every canonical
and alternate name (Unicode-casefolded, no diacritic stripping) to the
rows of its candidates, ranked by descending population, then ascending
id; a load or an ingest that no name query follows files and ranks none.
It is immutable once built and can be persisted to a cache of those
columns keyed by the dump checksum, so repeated evaluations skip
re-parsing the dump. An entry object, the id, coordinate and population
that evaluation reads, is built only when a query returns it; a record's
feature class is read only by the ingest filter, and its other codes not
at all.

Each rule on the data is checked once, where it enters (by `_parse_row` and
`_dump_columns` for a dump, by `_read_cache` for a cache), and both ways hand
the index's one constructor columns in id order.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import logging
import math
import os
import re
import reprlib
import sys
from array import array
from dataclasses import astuple, dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .geodesy import Coordinate, ascii_number, great_circle_distance

log = logging.getLogger(__name__)

# Geonames main-table layout ("allCountries" dump): 19 tab-separated columns.
GEONAMES_FIELD_COUNT = 19

# Format 6 is one JSON header line (see _HEADER_CHECKS), then the raw bytes of
# each column in _SECTIONS order, in the writer's byte order, then the names
# column as UTF-8, each row's line ended by a line feed. The rows are in
# ascending id order (format 4 kept them in rank order).
CACHE_FORMAT_VERSION = 6
_CHECKSUM = re.compile(r"sha256:[0-9a-f]{16}")  # what dump_checksum writes, and reports print
_SECTIONS = ("ids", "populations", "latitudes", "longitudes", "names")
_INT64 = 2**63

# Malformed lines and duplicate ids of each kind logged at WARNING; the rest go to DEBUG.
_LOGGED_SKIPS = 5


class GazetteerError(Exception):
    """Unreadable dump or unusable cache file."""


@dataclass(frozen=True)
class GazetteerEntry:
    """A record as evaluation reads it: the id that gold links to, its point, and its population."""

    id: int
    coord: Coordinate
    population: int


@dataclass
class IngestSummary:
    ingested: int = 0
    skipped: int = 0   # malformed lines and duplicate ids
    filtered: int = 0  # valid lines dropped by the feature-class filter


class _Columns:
    """Entries as parallel columns, one row per entry, in ascending id order.

    Ids and populations are int64, latitudes and longitudes float64.
    `names` holds each row's names as its line in the cache: the canonical
    name, then the sorted alternate names, joined by tabs; they are read
    only to file the name map.
    """

    __slots__ = ("ids", "populations", "lats", "lons", "names")

    def __init__(self):
        self.ids, self.populations = array("q"), array("q")
        self.lats, self.lons = array("d"), array("d")
        self.names: list[str] = []

    def arrays(self) -> tuple[array, ...]:
        """The fixed-width columns, in _SECTIONS order."""
        return self.ids, self.populations, self.lats, self.lons


class GazetteerIndex:
    """Immutable name -> candidates index over gazetteer columns.

    The one constructor takes columns in strictly increasing id order
    (`ingest` passes `_dump_columns` of the dump's lines, `load_cache` a
    cache's checked columns), checks nothing again and files no name. It
    records the dump checksum (`version`) and the feature-class filter the
    rows passed. `entry(id)` finds its row by binary search of the ids.

    The first name query (`has_name`, `lookup`, `top`, `by_latitude` or
    `max_tokens_by_first_token`) files each row under its distinct
    case-folded names: a row position, or, when rows share the name, a
    tuple of them ranked by descending population, then ascending id.
    Queries build a row's GazetteerEntry when they first return it, then
    hand out that object.
    """

    def __init__(self, columns: _Columns, version: str, summary: IngestSummary,
                 feature_classes: Optional[Iterable[str]]):
        self._columns = columns
        self.version = version
        self.summary = summary
        self.feature_classes = frozenset(feature_classes) if feature_classes is not None else None
        # Memos filled on first use: the name map, entries by position, lookup
        # results, and the by_latitude and max_tokens_by_first_token tables.
        self._name_map: Optional[dict[str, int | tuple[int, ...]]] = None
        self._entries: dict[int, GazetteerEntry] = {}
        self._lookups: dict[str, tuple[GazetteerEntry, ...]] = {}
        self._by_latitude: dict[str, tuple[tuple[int, ...], array, array]] = {}
        self._max_tokens: dict[re.Pattern, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._columns.ids)

    def _names(self) -> dict[str, int | tuple[int, ...]]:
        if self._name_map is None:
            name_map: dict = {}
            shared = []  # keys filed under more than one row, kept as lists until the end
            for pos, row in enumerate(self._columns.names):
                for key in row.casefold().split("\t"):
                    found = name_map.setdefault(key, pos)
                    if found is not pos:  # filed under an earlier row (a list may end with this one)
                        if type(found) is int:
                            name_map[key] = [found, pos]
                            shared.append(key)
                        elif found[-1] != pos:
                            found.append(pos)
            # Rank each shared name's rows, filed in id order; the stable sort keeps ties so.
            rank = self._columns.populations.__getitem__
            for key in shared:
                name_map[key] = tuple(sorted(name_map[key], key=rank, reverse=True))
            self._name_map = name_map
        return self._name_map

    def _rows_of(self, key: str) -> tuple[int, ...]:
        found = self._names().get(key, ())
        return (found,) if type(found) is int else found

    def _entry(self, pos: int) -> GazetteerEntry:
        entry = self._entries.get(pos)
        if entry is None:
            c = self._columns
            entry = self._entries[pos] = GazetteerEntry(
                c.ids[pos], Coordinate(c.lats[pos], c.lons[pos]), c.populations[pos])
        return entry

    def entry(self, entry_id: int) -> Optional[GazetteerEntry]:
        """The entry with id `entry_id`, found by binary search of the ids, or None."""
        ids = self._columns.ids
        pos = bisect.bisect_left(ids, entry_id)
        return self._entry(pos) if pos < len(ids) and ids[pos] == entry_id else None

    def entries(self) -> list[GazetteerEntry]:
        """Every entry, in ascending id order (building each one not yet built)."""
        return [self._entry(pos) for pos in range(len(self))]

    def has_name(self, name: str) -> bool:
        """Whether any row's canonical or alternate name casefolds to `name`."""
        return name.casefold() in self._names()

    def lookup(self, name: str) -> tuple[GazetteerEntry, ...]:
        """The entries of the rows whose canonical or alternate name casefolds to `name`.

        The name map's ranking, in descending-population order (ties by
        ascending id), memoised per case-folded name; empty when the name
        is unknown.
        """
        key = name.casefold()
        found = self._lookups.get(key)
        if found is None:
            rows = self._rows_of(key)
            if not rows:
                return ()
            found = self._lookups[key] = tuple(map(self._entry, rows))
        return found

    def top(self, name: str) -> Optional[GazetteerEntry]:
        """The head of `lookup(name)`, its most populous candidate (ties to the lower id), or None."""
        rows = self._rows_of(name.casefold())
        return self._entry(rows[0]) if rows else None

    def by_latitude(self, name: str) -> tuple[tuple[int, ...], array, array]:
        """`name`'s candidates in ascending latitude, for nearest_entry.

        Returns (their entry ids, their latitudes in radians, their unit
        vectors as one flat x, y, z array), computed from the columns and
        memoised per case-folded name; equal latitudes keep the lookup
        ranking.
        """
        key = name.casefold()
        found = self._by_latitude.get(key)
        if found is None:
            c = self._columns
            ordered = sorted(self._rows_of(key), key=c.lats.__getitem__)
            ids = tuple(map(c.ids.__getitem__, ordered))
            lats = array("d", [math.radians(c.lats[pos]) for pos in ordered])
            xyz = array("d", [v for pos in ordered for v in _unit_vector(c.lats[pos], c.lons[pos])])
            found = self._by_latitude[key] = (ids, lats, xyz)
        return found

    def max_tokens_by_first_token(self, token: re.Pattern) -> dict[str, int]:
        """Each case-folded name's first token -> the most tokens of any name it starts.

        A name's tokens are the matches of `token` in its case-folded form;
        names without one are left out. Memoised per pattern.
        """
        found = self._max_tokens.get(token)
        if found is None:
            found = self._max_tokens[token] = {}
            for key in self._names():
                tokens = token.findall(key)
                if tokens and len(tokens) > found.get(tokens[0], 0):
                    found[tokens[0]] = len(tokens)
        return found


def _parse_row(line: str) -> Optional[tuple]:
    """One Geonames main-table record as a row; None when malformed.

    A row is (id, names, lat, lon, population, feature class), where
    `names` is the row's line in the cache: the stripped canonical name,
    then the sorted, distinct, stripped alternate names, joined by tabs.
    It has an id and a population >= 0 that fit in 64 bits, a finite
    latitude and longitude in range, each written as an ascii_number, and
    names that hold no line feed (a field split on tabs holds no tab).
    """
    # Columns past the population (the 15th) are not read: they stay unsplit, holding 3 tabs.
    fields = line.split("\t", 15)
    if len(fields) < 16 or fields[15].count("\t") < GEONAMES_FIELD_COUNT - 16:
        return None
    names = fields[1].strip()  # the canonical name; the alternates are joined on last
    if not names:
        return None
    try:
        ascii_number(fields[0] + fields[4] + fields[5] + fields[14])
        eid = int(fields[0])
        lat, lon = float(fields[4]), float(fields[5])
        population = int(fields[14]) if fields[14].strip() else 0
    except ValueError:
        return None
    # NaN and infinities fail these comparisons too.
    if not (-_INT64 <= eid < _INT64 and 0 <= population < _INT64
            and -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        return None
    if fields[3]:
        names = "\t".join([names, *sorted({a.strip() for a in fields[3].split(",")} - {""})])
    return None if "\n" in names else (eid, names, lat, lon, population, fields[6])


def _dump_columns(
    lines: Iterable[str], feature_classes: Optional[set[str]], summary: IngestSummary
) -> _Columns:
    """The well-formed, kept records, first of each id, as columns in id order.

    Counts skipped and filtered lines in `summary` as it goes. The first
    _LOGGED_SKIPS malformed lines and duplicate ids are logged at WARNING
    with their line numbers, the rest at DEBUG, then both totals at WARNING.
    """
    c = _Columns()
    seen: set[int] = set()
    malformed = duplicates = 0
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():
            continue
        row = _parse_row(line)
        if row is None:
            malformed += 1
            log.log(logging.WARNING if malformed <= _LOGGED_SKIPS else logging.DEBUG,
                    "gazetteer: skipping malformed line %d", line_no)
            continue
        eid, names, lat, lon, population, feature_class = row
        if feature_classes is not None and feature_class not in feature_classes:
            summary.filtered += 1
            continue
        if eid in seen:
            duplicates += 1
            log.log(logging.WARNING if duplicates <= _LOGGED_SKIPS else logging.DEBUG,
                    "gazetteer: skipping duplicate id %d (line %d)", eid, line_no)
            continue
        seen.add(eid)
        c.ids.append(eid)
        c.populations.append(population)
        c.lats.append(lat)
        c.lons.append(lon)
        c.names.append(names)
    del seen  # freed before the columns are gathered in id order, so it does not add to their peak
    summary.skipped = malformed + duplicates
    if summary.skipped:
        log.warning("gazetteer: skipped %d malformed lines and %d duplicate ids in all",
                    malformed, duplicates)
    order = sorted(range(len(c.ids)), key=c.ids.__getitem__)
    # One gather per column; itemgetter returns a tuple only for two or more indices.
    gather = itemgetter(*order) if len(order) > 1 else lambda column: [column[i] for i in order]
    c.ids, c.populations = array("q", gather(c.ids)), array("q", gather(c.populations))
    c.lats, c.lons = array("d", gather(c.lats)), array("d", gather(c.lons))
    c.names = list(gather(c.names))
    return c


def ingest(
    lines: Iterable[str],
    feature_classes: Optional[set[str]] = None,
    version: str = "unversioned",
) -> GazetteerIndex:
    """Build an index from Geonames-format lines.

    Malformed lines (a name holding a line feed among them) and duplicate
    ids are logged and counted in the summary, never fatal.
    `feature_classes`, when given, keeps only records whose single-letter
    feature class is in the set.
    """
    summary = IngestSummary()
    index = GazetteerIndex(_dump_columns(lines, feature_classes, summary), version, summary, feature_classes)
    summary.ingested = len(index)
    return index


def dump_checksum(path: str) -> str:
    """sha256 of the raw dump bytes, used as the gazetteer version."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()[:16]}"


def ingest_path(path: str, feature_classes: Optional[set[str]] = None) -> GazetteerIndex:
    """Ingest a dump file; the index version records the dump checksum."""
    try:
        version = dump_checksum(path)
        # Lines end at LF only: a lone CR inside a field must not split its record.
        with open(path, encoding="utf-8-sig", newline="\n") as fh:
            return ingest(fh, feature_classes=feature_classes, version=version)
    except (OSError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"cannot read gazetteer dump {path}: {exc}") from exc


def save_cache(index: GazetteerIndex, path: str) -> None:
    """Write the index's columns as they are, in id order, so one dump gives one file."""
    if not _CHECKSUM.fullmatch(index.version):
        raise GazetteerError(f"cannot cache index version {index.version!r}: not a dump checksum")
    c = index._columns
    names = "\n".join([*c.names, ""]).encode("utf-8")  # the last row ends with a line feed too
    header = {
        "format": CACHE_FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "checksum": index.version,
        "feature_classes": sorted(index.feature_classes) if index.feature_classes is not None else None,
        "counts": list(astuple(index.summary)),
        "sections": dict(zip(_SECTIONS, [len(a) * a.itemsize for a in c.arrays()] + [len(names)])),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, separators=(",", ":")).encode("ascii") + b"\n")
        for column in c.arrays():
            column.tofile(fh)
        fh.write(names)


def _strs(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


def _sizes(value, length: int) -> bool:
    return type(value) is list and len(value) == length and all(type(n) is int and n >= 0 for n in value)


# What load_cache accepts in each header field; no other field is allowed.
_HEADER_CHECKS = {
    "format": lambda v: type(v) is int and v == CACHE_FORMAT_VERSION,
    "byteorder": lambda v: v == sys.byteorder,
    "checksum": lambda v: type(v) is str and _CHECKSUM.fullmatch(v),
    "feature_classes": lambda v: v is None or _strs(v),
    "counts": lambda v: _sizes(v, 3),  # ingested, skipped, filtered
    "sections": lambda v: type(v) is dict and list(v) == list(_SECTIONS) and _sizes(list(v.values()), 5),
}


def _read_cache(fh, file_size: int) -> GazetteerIndex:
    """The index in an open format-6 cache, each column checked whole; ValueError when it is unusable."""
    first = fh.readline()
    if first.startswith(b"\x80"):
        raise ValueError("a pickled cache, as formats 1 to 3 were, is not allowed")
    header = json.loads(first)
    if type(header) is not dict or not _HEADER_CHECKS["format"](header.get("format")):
        raise ValueError(f"not a format {CACHE_FORMAT_VERSION} cache")
    for key in header:
        if key not in _HEADER_CHECKS:
            raise ValueError(f"header key {key!r} is not allowed")
    for key, check in _HEADER_CHECKS.items():
        if key not in header:
            raise ValueError(f"header field {key!r} is missing")
        if not check(header[key]):
            raise ValueError(f"header field {key!r} is {reprlib.repr(header[key])}")
    sizes = list(header["sections"].values())
    if len(first) + sum(sizes) != file_size:
        raise ValueError(f"the header and sections take {len(first) + sum(sizes)} bytes, "
                         f"the file {file_size}")

    c = _Columns()
    n = header["counts"][0]  # the ingested rows
    if sizes[:-1] != [n * column.itemsize for column in c.arrays()]:
        raise ValueError(f"the column sizes {sizes[:-1]} do not hold the {n} ingested rows")
    for column, size in zip(c.arrays(), sizes):
        column.frombytes(fh.read(size))
    for what, column, bound in (("latitude", c.lats, 90.0), ("longitude", c.lons, 180.0)):
        # fsum is NaN or infinite, or raises ValueError, when a value is.
        if (not math.isfinite(math.fsum(column))
                or min(column, default=0) < -bound or max(column, default=0) > bound):
            raise ValueError(f"a {what} is not finite or out of range")
    if min(c.populations, default=0) < 0:
        raise ValueError("a population is negative")
    for a, b in zip(c.ids, c.ids[1:]):  # strictly increasing
        if a >= b:
            raise ValueError(f"duplicate gazetteer id {a}" if a == b else "the ids are out of order")

    c.names = fh.read(sizes[-1]).decode("utf-8").split("\n")
    if len(c.names) != n + 1 or c.names.pop():
        raise ValueError(f"the names section does not hold {n} lines")
    return GazetteerIndex(c, header["checksum"], IngestSummary(*header["counts"]), header["feature_classes"])


def load_cache(path: str) -> GazetteerIndex:
    """The cached index, every column checked; GazetteerError when the file is unusable."""
    try:
        with open(path, "rb") as fh:
            return _read_cache(fh, os.fstat(fh.fileno()).st_size)
    # A deeply nested header gives RecursionError.
    except (OSError, ValueError, OverflowError, MemoryError, RecursionError) as exc:
        raise GazetteerError(
            f"cannot use gazetteer cache {path} ({exc}); rerun `geoeval ingest` to rebuild it"
        ) from exc


def load_or_ingest(
    dump_path: str,
    cache_path: str,
    feature_classes: Optional[set[str]] = None,
) -> tuple[GazetteerIndex, bool]:
    """Return (index, cache_hit): reuse the cache when it matches the dump.

    A cache matches when its index version equals the dump checksum and
    it was built with the same feature-class filter.
    """
    checksum = dump_checksum(dump_path)
    try:
        index = load_cache(cache_path)
        if index.version == checksum and index.feature_classes == feature_classes:
            return index, True
        del index  # a stale index is freed before the dump is ingested again
    except GazetteerError:
        pass
    index = ingest_path(dump_path, feature_classes=feature_classes)
    save_cache(index, cache_path)
    return index, False


def _unit_vector(lat_deg: float, lon_deg: float) -> tuple[float, float, float]:
    lat, lon = math.radians(lat_deg), math.radians(lon_deg)
    cos_lat = math.cos(lat)
    return cos_lat * math.cos(lon), cos_lat * math.sin(lon), math.sin(lat)


# How far below the largest dot product a candidate may fall and still be
# measured by haversine. The dot product of two unit vectors is
# cos(d/R) = 1 - 2h, where h is the haversine term that
# great_circle_distance turns into a distance through the nondecreasing
# 2R*asin(sqrt(h)); so both rank candidates alike, and each is computed to
# within a few 1e-16 of 1 - 2h. The candidate with the smallest computed
# distance, and any tied with it, thus has a computed dot product within
# about 1e-15 of the largest: far inside this absolute margin.
_NEAR_DOT = 1e-9


def nearest_entry(index: GazetteerIndex, name: str, coord: Coordinate) -> Optional[GazetteerEntry]:
    """The same-name candidate closest to `coord` by haversine distance; ties break to lower id.

    Candidates are visited outward from `coord`'s latitude, the smaller
    latitude gap first. The dot product of two unit vectors is at most the
    cosine of their latitude gap, so the walk stops once that cosine falls
    more than _NEAR_DOT below the largest dot product seen: no candidate
    left can come near it. The dot product only pre-selects: the visited
    candidates within _NEAR_DOT of the largest one are built as entries and
    measured by great_circle_distance, so the answer is the haversine
    minimum over all candidates.
    """
    if not index.has_name(name):  # keeps unknown names out of the by_latitude memo
        return None
    ids, lats, xyz = index.by_latitude(name)
    lat = math.radians(coord.lat)
    qx, qy, qz = _unit_vector(coord.lat, coord.lon)
    hi = bisect.bisect_left(lats, lat)
    lo = hi - 1
    best = -2.0
    seen: list[tuple[float, int]] = []
    while lo >= 0 or hi < len(lats):
        if hi == len(lats) or (lo >= 0 and lat - lats[lo] <= lats[hi] - lat):
            j, gap = lo, lat - lats[lo]
            lo -= 1
        else:
            j, gap = hi, lats[hi] - lat
            hi += 1
        if math.cos(gap) < best - _NEAR_DOT:
            break
        dot = qx * xyz[3 * j] + qy * xyz[3 * j + 1] + qz * xyz[3 * j + 2]
        seen.append((dot, j))
        if dot > best:
            best = dot
    cutoff = best - _NEAR_DOT
    near = [index.entry(ids[j]) for dot, j in seen if dot >= cutoff]
    return min(near, key=lambda e: (great_circle_distance(e.coord, coord), e.id))
