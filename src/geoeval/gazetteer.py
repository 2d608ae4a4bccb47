"""Geonames-style gazetteer ingest and case-folded name lookup.

The index maps every canonical and alternate name (Unicode-casefolded,
no diacritic stripping) to its candidate entries. It is immutable once
built and can be persisted to a cache of plain rows keyed by the dump
checksum, so repeated evaluations skip re-parsing the dump.
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
from dataclasses import astuple, dataclass
from typing import Iterable, Optional

from .geodesy import Coordinate, great_circle_distance

log = logging.getLogger(__name__)

# Geonames main-table layout ("allCountries" dump): 19 tab-separated columns.
GEONAMES_FIELD_COUNT = 19

CACHE_FORMAT_VERSION = 3


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


class GazetteerIndex:
    """Immutable name -> candidates index over gazetteer entries.

    The constructor ranks the entries once, by descending population, then
    ascending id, and files each under its case-folded names in that order,
    so every name's candidates come out ranked; a duplicate id raises
    ValueError. It records the dump checksum (`version`) and the
    feature-class filter the entries passed.
    """

    def __init__(
        self,
        entries: Iterable[GazetteerEntry],
        version: str,
        summary: IngestSummary,
        feature_classes: Optional[Iterable[str]],
    ):
        ranked = sorted(entries, key=lambda e: (-e.population, e.id))
        self._entries: dict[int, GazetteerEntry] = {}
        name_map: dict = {}
        for entry in ranked:
            if entry.id in self._entries:
                raise ValueError(f"duplicate gazetteer id {entry.id}")
            self._entries[entry.id] = entry
            for name in {entry.canonical_name, *entry.alternate_names}:
                name_map.setdefault(name.casefold(), []).append(entry)
        # Converted in place, so each list is freed as its tuple is made.
        for name, found in name_map.items():
            name_map[name] = tuple(found)
        self._name_map: dict[str, tuple[GazetteerEntry, ...]] = name_map
        self.version = version
        self.summary = summary
        self.feature_classes = frozenset(feature_classes) if feature_classes is not None else None
        # Memos filled on first use by by_latitude and max_tokens_by_first_token.
        self._by_latitude: dict[str, tuple[tuple[GazetteerEntry, ...], array, array]] = {}
        self._max_tokens: dict[re.Pattern, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: int) -> bool:
        return entry_id in self._entries

    def entry(self, entry_id: int) -> Optional[GazetteerEntry]:
        return self._entries.get(entry_id)

    def entries(self) -> Iterable[GazetteerEntry]:
        """Every entry, in rank order."""
        return self._entries.values()

    def lookup(self, name: str) -> tuple[GazetteerEntry, ...]:
        """All entries whose canonical or alternate name casefolds to `name`.

        The stored ranking, in descending-population order (ties by
        ascending id); empty when the name is unknown.
        """
        return self._name_map.get(name.casefold(), ())

    def by_latitude(self, name: str) -> tuple[tuple[GazetteerEntry, ...], array, array]:
        """`name`'s candidates in ascending latitude, for nearest_entry.

        Returns (entries, their latitudes in radians, their unit vectors as
        one flat x, y, z array), memoised per case-folded name; equal
        latitudes keep the lookup ranking.
        """
        key = name.casefold()
        found = self._by_latitude.get(key)
        if found is None:
            ordered = tuple(sorted(self._name_map.get(key, ()), key=lambda e: e.coord.lat))
            lats = array("d", [math.radians(e.coord.lat) for e in ordered])
            xyz = array("d", [c for e in ordered for c in _unit_vector(e.coord)])
            found = self._by_latitude[key] = (ordered, lats, xyz)
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


def parse_geonames_line(line: str) -> Optional[GazetteerEntry]:
    """Parse one Geonames main-table record; None when malformed."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) < GEONAMES_FIELD_COUNT:
        return None
    try:
        entry_id = int(fields[0])
        name = fields[1].strip()
        if not name:
            return None
        alternates = frozenset(a.strip() for a in fields[3].split(",") if a.strip())
        coord = Coordinate(float(fields[4]), float(fields[5]))
        population = int(fields[14]) if fields[14].strip() else 0
        return GazetteerEntry(entry_id, name, alternates, coord, population, fields[6], fields[7], fields[8])
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
    entries: dict[int, GazetteerEntry] = {}
    summary = IngestSummary()

    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        entry = parse_geonames_line(line)
        if entry is None:
            summary.skipped += 1
            log.warning("gazetteer: skipping malformed line %d", line_no)
            continue
        if feature_classes is not None and entry.feature_class not in feature_classes:
            summary.filtered += 1
            continue
        if entry.id in entries:
            summary.skipped += 1
            log.warning("gazetteer: skipping duplicate id %d (line %d)", entry.id, line_no)
            continue
        entries[entry.id] = entry
        summary.ingested += 1
    return GazetteerIndex(entries.values(), version, summary, feature_classes)


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
    """Write the index as builtin rows, in rank order, so one dump gives one file."""
    classes = tuple(sorted(index.feature_classes)) if index.feature_classes is not None else None
    rows = [
        (e.id, e.canonical_name, tuple(sorted(e.alternate_names)), e.coord.lat, e.coord.lon,
         e.population, e.feature_class, e.feature_code, e.country_code)
        for e in index.entries()
    ]
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
    """The cached index, every row validated; GazetteerError when the file is unusable."""
    # The rows, entries and coordinates are acyclic, so a collection while
    # they are allocated would free nothing: pause the cyclic collector.
    # The loaded index is long-lived, so once it is built it is frozen (with
    # every object alive then) out of the collector's later scans, which
    # would otherwise walk all of its objects again in each generation. A
    # frozen object is still freed when its last reference goes.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as fh:
            fmt, checksum, classes, counts, rows = _CacheUnpickler(fh).load()
        if fmt != CACHE_FORMAT_VERSION or type(checksum) is not str or [type(n) for n in counts] != [int] * 3:
            raise ValueError(f"not a format {CACHE_FORMAT_VERSION} cache")
        entries = [
            GazetteerEntry(eid, name, frozenset(alts), Coordinate(lat, lon), pop, fclass, fcode, country)
            for eid, name, alts, lat, lon, pop, fclass, fcode, country in rows
        ]
        del rows  # freed before the index is built
        index = GazetteerIndex(entries, checksum, IngestSummary(*counts), classes)
        gc.freeze()
        return index
    # A crafted length field gives OverflowError or MemoryError before anything is read.
    except (OSError, pickle.UnpicklingError, EOFError, TypeError, ValueError, AttributeError,
            OverflowError, MemoryError) as exc:
        raise GazetteerError(
            f"cannot use gazetteer cache {path} ({exc}); rerun `geoeval ingest` to rebuild it"
        ) from exc
    finally:
        if collecting:
            gc.enable()


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


def _unit_vector(coord: Coordinate) -> tuple[float, float, float]:
    lat, lon = math.radians(coord.lat), math.radians(coord.lon)
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
    candidates within _NEAR_DOT of the largest one are measured by
    great_circle_distance, so the answer is the haversine minimum over all
    candidates.
    """
    if not index.lookup(name):  # keeps unknown names out of the by_latitude memo
        return None
    ordered, lats, xyz = index.by_latitude(name)
    lat = math.radians(coord.lat)
    qx, qy, qz = _unit_vector(coord)
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
    near = [ordered[j] for dot, j in seen if dot >= cutoff]
    return min(near, key=lambda e: (great_circle_distance(e.coord, coord), e.id))
