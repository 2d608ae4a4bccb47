"""Geonames-style gazetteer ingest and case-folded name lookup.

The index keeps one plain row per entry and maps every canonical and
alternate name (Unicode-casefolded, no diacritic stripping) to its
candidate rows. It is immutable once built and can be persisted to a cache
of those rows keyed by the dump checksum, so repeated evaluations skip
re-parsing the dump. An entry object is built only when a query returns it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import logging
import math
import pickle
import re
from array import array
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .geodesy import Coordinate, great_circle_distance

log = logging.getLogger(__name__)

# Geonames main-table layout ("allCountries" dump): 19 tab-separated columns.
GEONAMES_FIELD_COUNT = 19

CACHE_FORMAT_VERSION = 3
_CHECKSUM = re.compile(r"sha256:[0-9a-f]{16}")  # what dump_checksum writes, and reports print

# A row is one entry as the cache stores it: (id, name, sorted alternate
# names, lat, lon, population, feature class, feature code, country code).
_ID, _LAT, _POPULATION = itemgetter(0), itemgetter(3), itemgetter(5)


class GazetteerError(Exception):
    """Unreadable dump or unusable cache file."""


@dataclass(frozen=True)
class GazetteerEntry:
    id: int
    canonical_name: str
    alternate_names: frozenset[str]
    coord: Coordinate
    population: int
    feature_class: str
    feature_code: str
    country_code: str

    def __post_init__(self):
        if type(self.id) is not int or type(self.population) is not int or self.population < 0:
            raise ValueError(f"gazetteer entry {self.id!r}: bad id or population {self.population!r}")


@dataclass
class IngestSummary:
    ingested: int = 0
    skipped: int = 0   # malformed lines
    filtered: int = 0  # valid lines dropped by the feature-class filter


def _checked_row(row: tuple) -> tuple:
    """`row`, when the GazetteerEntry and Coordinate constructors would accept it.

    Nine fields, an int id, an int population >= 0, and a finite latitude
    and longitude in range; ValueError (TypeError for uncomparable
    coordinates) otherwise. Names are checked when the index files them.
    """
    eid, _, _, lat, lon, population, _, _, _ = row
    if type(eid) is not int or type(population) is not int or population < 0:
        raise ValueError(f"gazetteer row {eid!r}: bad id or population {population!r}")
    # NaN and infinities fail these comparisons too.
    if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
        raise ValueError(f"gazetteer row {eid}: coordinate ({lat}, {lon}) out of range")
    return row


@contextmanager
def _collector_paused():
    """Pause the cyclic collector, if it runs, for the block.

    Rows and the index that files them are acyclic, so a collection while
    they are built would free nothing, and each would walk the objects
    built so far again.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _entry_of(row: tuple) -> GazetteerEntry:
    eid, name, alternates, lat, lon, population, fclass, fcode, country = row
    return GazetteerEntry(
        eid, name, frozenset(alternates), Coordinate(lat, lon), population, fclass, fcode, country
    )


class GazetteerIndex:
    """Immutable name -> candidates index over checked gazetteer rows.

    The constructor ranks the rows once, by descending population, then
    ascending id, and files each under its distinct case-folded names in
    that order, so every name's candidates come out ranked; a duplicate id
    raises ValueError, and a name that is not a string TypeError or
    AttributeError. It records the dump checksum (`version`) and the
    feature-class filter the rows passed.

    Queries build a row's GazetteerEntry the first time they return it and
    hand out that same object from then on.
    """

    def __init__(
        self,
        rows: Iterable[tuple],
        version: str,
        summary: IngestSummary,
        feature_classes: Optional[Iterable[str]],
    ):
        # Descending population, then ascending id. A cache's rows come
        # ranked, so the stable sort by population keeps them in order; only
        # rows whose tied populations are out of id order (a dump's) need
        # sorting by id first.
        ranked = sorted(rows, key=_POPULATION, reverse=True)
        if any(a[5] == b[5] and a[0] > b[0] for a, b in zip(ranked, ranked[1:])):
            ranked.sort(key=_ID)
            ranked.sort(key=_POPULATION, reverse=True)
        by_id: dict[int, tuple] = {}
        name_map: dict = {}
        for row in ranked:
            if row[0] in by_id:
                raise ValueError(f"duplicate gazetteer id {row[0]}")
            by_id[row[0]] = row
            name = row[1].casefold()
            # Most rows have no alternate name. The test is `!= ()`, not
            # truth, so that alternates that are not iterable (None in a
            # crafted cache) still raise here.
            for key in {name, *map(str.casefold, row[2])} if row[2] != () else (name,):
                found = name_map.get(key)
                if found is None:
                    name_map[key] = [row]
                else:
                    found.append(row)
        # Converted in place, so each list is freed as its tuple is made.
        for key, found in name_map.items():
            name_map[key] = tuple(found)
        self._rows = by_id
        self._name_map: dict[str, tuple[tuple, ...]] = name_map
        self.version = version
        self.summary = summary
        self.feature_classes = frozenset(feature_classes) if feature_classes is not None else None
        # Memos filled on first use: entries by id, lookup results, and the
        # by_latitude and max_tokens_by_first_token tables.
        self._entries: dict[int, GazetteerEntry] = {}
        self._lookups: dict[str, tuple[GazetteerEntry, ...]] = {}
        self._by_latitude: dict[str, tuple[tuple[int, ...], array, array]] = {}
        self._max_tokens: dict[re.Pattern, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._rows

    def _entry(self, row: tuple) -> GazetteerEntry:
        entry = self._entries.get(row[0])
        if entry is None:
            entry = self._entries[row[0]] = _entry_of(row)
        return entry

    def entry(self, entry_id: int) -> Optional[GazetteerEntry]:
        row = self._rows.get(entry_id)
        return None if row is None else self._entry(row)

    def entries(self) -> list[GazetteerEntry]:
        """Every entry, in rank order (building each one not yet built)."""
        return [self._entry(row) for row in self._rows.values()]

    def has_name(self, name: str) -> bool:
        """Whether any entry's canonical or alternate name casefolds to `name`."""
        return name.casefold() in self._name_map

    def lookup(self, name: str) -> tuple[GazetteerEntry, ...]:
        """All entries whose canonical or alternate name casefolds to `name`.

        The stored ranking, in descending-population order (ties by
        ascending id), memoised per case-folded name; empty when the name
        is unknown.
        """
        key = name.casefold()
        found = self._lookups.get(key)
        if found is None:
            rows = self._name_map.get(key)
            if rows is None:
                return ()
            found = self._lookups[key] = tuple(map(self._entry, rows))
        return found

    def top(self, name: str) -> Optional[GazetteerEntry]:
        """The head of `lookup(name)`, its most populous candidate (ties to the lower id), or None."""
        rows = self._name_map.get(name.casefold())
        return None if rows is None else self._entry(rows[0])

    def by_latitude(self, name: str) -> tuple[tuple[int, ...], array, array]:
        """`name`'s candidates in ascending latitude, for nearest_entry.

        Returns (their entry ids, their latitudes in radians, their unit
        vectors as one flat x, y, z array), computed from the rows and
        memoised per case-folded name; equal latitudes keep the lookup
        ranking.
        """
        key = name.casefold()
        found = self._by_latitude.get(key)
        if found is None:
            ordered = sorted(self._name_map.get(key, ()), key=_LAT)
            ids = tuple(map(_ID, ordered))
            lats = array("d", [math.radians(row[3]) for row in ordered])
            xyz = array("d", [c for row in ordered for c in _unit_vector(row[3], row[4])])
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
            for key in self._name_map:
                tokens = token.findall(key)
                if tokens and len(tokens) > found.get(tokens[0], 0):
                    found[tokens[0]] = len(tokens)
        return found


def _parse_row(line: str) -> Optional[tuple]:
    """One Geonames main-table record as a checked row; None when malformed."""
    if line.count("\t") < GEONAMES_FIELD_COUNT - 1:
        return None
    # Columns past the population (the 15th) are not read: leave them unsplit.
    fields = line.split("\t", 15)
    name = fields[1].strip()
    if not name:
        return None
    alternates = fields[3]
    try:
        return _checked_row((
            int(fields[0]),
            name,
            tuple(sorted({a.strip() for a in alternates.split(",") if a.strip()})) if alternates else (),
            float(fields[4]),
            float(fields[5]),
            int(fields[14]) if fields[14].strip() else 0,
            fields[6],
            fields[7],
            fields[8],
        ))
    except ValueError:
        return None


def ingest(
    lines: Iterable[str],
    feature_classes: Optional[set[str]] = None,
    version: str = "unversioned",
) -> GazetteerIndex:
    """Build an index from Geonames-format lines.

    Malformed lines (and duplicate ids) are logged and counted in the
    summary, never fatal. `feature_classes`, when given, keeps only
    records whose single-letter feature class is in the set.
    """
    rows: dict[int, tuple] = {}
    summary = IngestSummary()

    with _collector_paused():
        for line_no, line in enumerate(lines, start=1):
            if not line or line.isspace():
                continue
            row = _parse_row(line)
            if row is None:
                summary.skipped += 1
                log.warning("gazetteer: skipping malformed line %d", line_no)
                continue
            if feature_classes is not None and row[6] not in feature_classes:
                summary.filtered += 1
                continue
            if row[0] in rows:
                summary.skipped += 1
                log.warning("gazetteer: skipping duplicate id %d (line %d)", row[0], line_no)
                continue
            rows[row[0]] = row
        summary.ingested = len(rows)
        return GazetteerIndex(rows.values(), version, summary, feature_classes)


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
        with open(path, encoding="utf-8-sig") as fh:
            return ingest(fh, feature_classes=feature_classes, version=version)
    except (OSError, UnicodeDecodeError) as exc:
        raise GazetteerError(f"cannot read gazetteer dump {path}: {exc}") from exc


def save_cache(index: GazetteerIndex, path: str) -> None:
    """Write the index's rows as they are, in rank order, so one dump gives one file."""
    if not _CHECKSUM.fullmatch(index.version):
        raise GazetteerError(f"cannot cache index version {index.version!r}: not a dump checksum")
    classes = tuple(sorted(index.feature_classes)) if index.feature_classes is not None else None
    rows = list(index._rows.values())
    payload = (CACHE_FORMAT_VERSION, index.version, classes, astuple(index.summary), rows)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)


class _CacheUnpickler(pickle.Unpickler):
    """Admits no global at all: a cache is builtin rows, so it cannot run code."""

    # As small as a plain Unpickler: on CPython 3.11 a larger instance gave
    # 2.5 MB more peak RSS when loading a cache right after an ingest.
    __slots__ = ()

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")


def load_cache(path: str) -> GazetteerIndex:
    """The cached index, every row checked; GazetteerError when the file is unusable."""
    # The loaded index is long-lived, so once it is built it is frozen (with
    # every object alive then) out of the collector's later scans, which
    # would otherwise walk all of its objects again in each generation. A
    # frozen object is still freed when its last reference goes.
    with _collector_paused():
        try:
            with open(path, "rb") as fh:
                fmt, checksum, classes, counts, rows = _CacheUnpickler(fh).load()
            if (fmt != CACHE_FORMAT_VERSION or type(checksum) is not str or not _CHECKSUM.fullmatch(checksum)
                    or [type(n) for n in counts] != [int] * 3):
                raise ValueError(f"not a format {CACHE_FORMAT_VERSION} cache")
            index = GazetteerIndex(map(_checked_row, rows), checksum, IngestSummary(*counts), classes)
            gc.freeze()
            return index
        # A crafted length field gives OverflowError or MemoryError before anything is read.
        except (OSError, pickle.UnpicklingError, EOFError, TypeError, ValueError, AttributeError,
                OverflowError, MemoryError) as exc:
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
