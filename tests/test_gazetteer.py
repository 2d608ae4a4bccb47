import gc
import json
import logging
import math
import os
import pickle
import random
import re
import sys
import tempfile
import tracemalloc
import weakref
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoeval import cli, gazetteer
from geoeval.corpus import Document, PredictionRecord, ToponymAnnotation
from geoeval.gazetteer import (
    GazetteerError,
    dump_checksum,
    ingest,
    ingest_path,
    load_cache,
    load_or_ingest,
    nearest_entry,
    save_cache,
)
from geoeval.geodesy import Coordinate, great_circle_distance
from geoeval.metrics import MatchMode, evaluate, render_report
from geoeval.resolver import align_to_gazetteer, resolve_population
from geoeval.tagger import gazetteer_tag
from geoeval.taxonomy import TaxonomyType

from conftest import TOY_DUMP_LINES, geonames_line


def test_single_record_ingest():
    index = ingest([geonames_line(42, "Springfield", 42.1, -72.6, population=153060)])
    assert index.summary.ingested == 1
    hits = index.lookup("springfield")
    assert [e.id for e in hits] == [42]
    assert hits[0].population == 153060


def test_empty_stream():
    index = ingest([])
    assert len(index) == 0
    assert index.lookup("anything") == ()


def test_multiple_same_name_entries_found_by_linear_scan():
    rng = random.Random(7)
    lines = []
    paris_ids = []
    for i in range(1000):
        if i % 333 == 0 and len(paris_ids) < 3:
            paris_ids.append(5000 + i)
            lines.append(geonames_line(5000 + i, "Paris", 10.0, 20.0, population=rng.randrange(10**6)))
        else:
            lines.append(geonames_line(5000 + i, f"Town{i}", 1.0, 2.0, population=rng.randrange(10**4)))
    index = ingest(lines)
    assert index.summary.ingested == 1000

    # Independent oracle: linear scan of the raw dump.
    expected = {
        int(line.split("\t")[0])
        for line in lines
        if line.split("\t")[1].casefold() == "paris"
    }
    assert expected == set(paris_ids)
    assert {e.id for e in index.lookup("PARIS")} == expected


def test_lookup_order_population_then_id(toy_index):
    hits = toy_index.lookup("melbourne")
    assert [e.id for e in hits] == [1001, 1002]  # AU (4M) before FL (80k)


def test_lookup_tie_breaks_on_id():
    index = ingest(
        [
            geonames_line(9, "Twinsburg", 1.0, 1.0, population=500),
            geonames_line(3, "Twinsburg", 2.0, 2.0, population=500),
        ]
    )
    assert [e.id for e in index.lookup("twinsburg")] == [3, 9]


def test_lookup_unknown_name(toy_index):
    assert toy_index.lookup("atlantis") == ()


def test_lookup_returns_the_stored_ranking(toy_index):
    assert toy_index.lookup("melbourne") is toy_index.lookup("MELBOURNE")


def test_lookup_is_case_insensitive(toy_index):
    assert toy_index.lookup("MELBOURNE") == toy_index.lookup("melbourne")
    assert toy_index.lookup("mElBoUrNe") == toy_index.lookup("Melbourne")


def test_alternate_names_indexed(toy_index):
    assert [e.id for e in toy_index.lookup("russian federation")] == [1009]


def test_no_diacritic_stripping(toy_index):
    assert [e.id for e in toy_index.lookup("münster")] == [1013]
    assert toy_index.lookup("munster") == ()


def test_names_that_differ_only_by_case_give_an_entry_once():
    index = ingest(
        [
            geonames_line(1, "Paris", 48.8, 2.3, population=5, alternates="PARIS,paris,Lutetia"),
            geonames_line(2, "Paris", 33.6, -95.5, population=3),
        ]
    )
    assert [e.id for e in index.lookup("paris")] == [1, 2]
    assert [e.id for e in index.lookup("LUTETIA")] == [1]
    assert index.by_latitude("Paris")[0] == (2, 1)


def test_has_name_and_top(toy_index):
    assert toy_index.has_name("MELBOURNE") and toy_index.has_name("russian federation")
    assert not toy_index.has_name("atlantis")
    assert toy_index.top("melbourne").id == 1001  # AU (4M) before FL (80k)
    assert toy_index.top("Russian Federation").id == 1009
    assert toy_index.top("atlantis") is None
    tied = ingest(
        [
            geonames_line(9, "Twinsburg", 1.0, 1.0, population=5),
            geonames_line(3, "Twinsburg", 2.0, 2.0, population=5),
        ]
    )
    assert tied.top("twinsburg").id == 3


def test_malformed_lines_skipped_and_counted(caplog):
    lines = [
        geonames_line(1, "Goodtown", 1.0, 2.0),
        "not\ta\tvalid\tline",
        geonames_line(2, "Badcoord", 95.0, 2.0),  # latitude out of range
        "\t".join(["x"] * 19),  # non-integer id
        geonames_line(3, "Othertown", 3.0, 4.0),
        # int() and float() read "_" between digits and other decimal digits: (42, 10.5, 5.0, 1000).
        geonames_line("4_2", "Looseville", "1_0.5", "٥", population="1_000"),
        geonames_line("4_2", "Looseville", 10.5, 5.0, population=1000),
        geonames_line(42, "Looseville", "1_0.5", 5.0, population=1000),
        geonames_line(42, "Looseville", 10.5, "٥", population=1000),
        geonames_line(42, "Looseville", 10.5, 5.0, population="1_000"),
    ]
    with caplog.at_level(logging.DEBUG, logger="geoeval.gazetteer"):
        index = ingest(lines)
    assert index.summary.ingested == 2
    assert index.summary.skipped == 8
    assert index.entry(42) is None and not index.has_name("looseville")
    assert [r.getMessage() for r in caplog.records][:-1] == [
        f"gazetteer: skipping malformed line {n}" for n in (2, 3, 4, *range(6, 11))]


@pytest.mark.parametrize("tabs", [15, 16, 17, 18])
@pytest.mark.parametrize("end", ["", "\n"])
def test_a_line_needs_all_18_tabs(tabs, end):
    line = "\t".join(geonames_line(1, "Goodtown", 1.0, 2.0, population=7).split("\t")[:tabs + 1]) + end
    assert (gazetteer._parse_row(line) is not None) == (tabs == 18)
    index = ingest([line])
    assert (index.summary.ingested, index.summary.skipped) == ((1, 0) if tabs == 18 else (0, 1))


def test_duplicate_id_skipped():
    index = ingest(
        [
            geonames_line(7, "Alpha", 1.0, 1.0),
            geonames_line(7, "Beta", 2.0, 2.0),
        ]
    )
    assert index.summary.ingested == 1
    assert index.summary.skipped == 1
    assert index.lookup("beta") == ()


def test_skipped_lines_are_logged_five_of_each_kind_then_totalled(caplog):
    lines = [geonames_line(1, "Alpha", 1.0, 1.0)]
    lines += ["not\ta\tvalid\tline"] * 7  # lines 2 to 8
    lines += [geonames_line(1, "Again", 2.0, 2.0)] * 6  # lines 9 to 14
    with caplog.at_level(logging.DEBUG, logger="geoeval.gazetteer"):
        index = ingest(lines)
    assert (index.summary.ingested, index.summary.skipped) == (1, 13)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert warnings == (
        [f"gazetteer: skipping malformed line {n}" for n in range(2, 7)]
        + [f"gazetteer: skipping duplicate id 1 (line {n})" for n in range(9, 14)]
        + ["gazetteer: skipped 7 malformed lines and 6 duplicate ids in all"]
    )
    assert debug == ["gazetteer: skipping malformed line 7", "gazetteer: skipping malformed line 8",
                     "gazetteer: skipping duplicate id 1 (line 14)"]


def test_a_clean_dump_logs_nothing(caplog):
    with caplog.at_level(logging.DEBUG, logger="geoeval.gazetteer"):
        ingest(TOY_DUMP_LINES)
    assert caplog.records == []


def test_feature_class_filter():
    lines = [
        geonames_line(1, "Placeville", 1.0, 1.0, feature_class="P"),
        geonames_line(2, "Adminia", 2.0, 2.0, feature_class="A"),
        geonames_line(3, "Jailhouse", 3.0, 3.0, feature_class="S"),
    ]
    index = ingest(lines, feature_classes={"P", "A"})
    assert index.summary.ingested == 2
    assert index.summary.filtered == 1
    assert index.lookup("jailhouse") == ()


def test_every_entry_reachable_under_canonical_name(toy_index):
    assert len(toy_index.entries()) == len(TOY_DUMP_LINES)
    for line in TOY_DUMP_LINES:
        entry_id, name = line.split("\t")[:2]
        assert toy_index.has_name(name)
        assert int(entry_id) in {e.id for e in toy_index.lookup(name)}


def test_ingest_idempotent():
    first = ingest(TOY_DUMP_LINES)
    second = ingest(TOY_DUMP_LINES)
    for line in TOY_DUMP_LINES:
        name = line.split("\t")[1]
        assert [e.id for e in first.lookup(name)] == [e.id for e in second.lookup(name)]


def test_parse_geonames_line_roundtrip():
    index = ingest(
        [geonames_line(11, "Testville", 10.5, -20.25, "P", "PPL", "GB", 1234, alternates="Tville,试镇")]
    )
    entry = index.entry(11)
    assert entry == gazetteer.GazetteerEntry(11, Coordinate(10.5, -20.25), 1234)
    for name in ("Testville", "Tville", "试镇"):
        assert index.has_name(name) and index.lookup(name) == (entry,)
    assert not index.has_name("Tville,试镇") and not index.has_name("GB")


def test_nearest_entry_picks_closest(toy_index):
    # Distances frozen from the independent geodesy oracle:
    # (49.26, -123.1) is ~2.9 km from Vancouver CA, ~404 km from Vancouver US.
    entry = nearest_entry(toy_index, "Vancouver", Coordinate(49.26, -123.1))
    assert entry is not None and entry.id == 1006


def test_nearest_entry_single_candidate(toy_index):
    entry = nearest_entry(toy_index, "Springfield", Coordinate(-40.0, 100.0))
    assert entry is not None and entry.id == 1003


def test_nearest_entry_absent(toy_index):
    assert nearest_entry(toy_index, "Nowhereville", Coordinate(0, 0)) is None


def test_cache_roundtrip(tmp_path, toy_index):
    cache = tmp_path / "toy.cache"
    save_cache(toy_index, str(cache))
    loaded = load_cache(str(cache))
    assert loaded.version == toy_index.version
    assert [e.id for e in loaded.lookup("melbourne")] == [1001, 1002]


@pytest.mark.parametrize("version", ["unversioned", "sha256:0123456789abcdef\nn_gold: 999"])
def test_save_cache_refuses_a_version_load_cache_would_refuse(tmp_path, version):
    cache = tmp_path / "toy.cache"
    with pytest.raises(GazetteerError, match="not a dump checksum"):
        save_cache(ingest(TOY_DUMP_LINES, version=version), str(cache))
    assert not cache.exists()


@pytest.mark.parametrize("name, alternates", [("New\nYork", ""), ("York", "Big Apple,New\nYork")],
                         ids=["line-feed-in-a-name", "line-feed-in-an-alternate"])
def test_save_cache_refuses_a_name_its_names_section_could_not_split(tmp_path, caplog, name, alternates):
    # A dump read from a file cannot hold one; a line handed to ingest can, and is malformed,
    # so no index, and no cache, holds it.
    lines = [geonames_line(1, "Goodtown", 1.0, 2.0), geonames_line(2, name, 3.0, 4.0, alternates=alternates)]
    with caplog.at_level(logging.DEBUG, logger="geoeval.gazetteer"):
        index = ingest(lines, version="sha256:0123456789abcdef")
    assert (index.summary.ingested, index.summary.skipped) == (1, 1)
    assert [r.getMessage() for r in caplog.records] == [
        "gazetteer: skipping malformed line 2", "gazetteer: skipped 1 malformed lines and 0 duplicate ids in all"]
    cache = tmp_path / "g.cache"
    save_cache(index, str(cache))
    assert [e.id for e in load_cache(str(cache)).entries()] == [1]
    assert not index.has_name("york") and not index.has_name("big apple")


def test_cache_rejects_bad_format(tmp_path):
    cache = tmp_path / "bogus.cache"
    cache.write_bytes(b"not a pickle")
    with pytest.raises(GazetteerError):
        load_cache(str(cache))


_TYPECODES = {"ids": "q", "populations": "q", "latitudes": "d", "longitudes": "d"}
_DROP = object()


def _cache_parts(data):
    """A format-6 cache read apart: its header, and each section as an array or a list of name lines."""
    first, rest = data.split(b"\n", 1)
    header = json.loads(first)
    parts, at = {}, 0
    for name, size in header["sections"].items():
        chunk = rest[at:at + size]
        at += size
        if name in _TYPECODES:
            parts[name] = array(_TYPECODES[name], chunk)
        else:
            parts[name] = chunk.decode("utf-8").split("\n")[:-1]
    return header, parts


def _cache_bytes(header, parts, resize=True):
    """The cache of `header` and `parts`; section sizes are recomputed unless `resize` is false.

    A part may be raw bytes, written as they are.
    """
    blobs = {}
    for name, part in parts.items():
        if isinstance(part, array):
            part = part.tobytes()
        elif isinstance(part, list):
            part = "".join(line + "\n" for line in part).encode("utf-8")
        blobs[name] = part
    if resize:
        header = {**header, "sections": {name: len(blob) for name, blob in blobs.items()}}
    return json.dumps(header).encode("ascii") + b"\n" + b"".join(blobs.values())


_EMPTY_HEADER = {
    "format": gazetteer.CACHE_FORMAT_VERSION, "byteorder": sys.byteorder, "checksum": "sha256:0123456789abcdef",
    "feature_classes": None, "counts": [0, 0, 0], "sections": dict.fromkeys(gazetteer._SECTIONS, 0),
}


def _empty_cache(**changes):
    """A cache of no entries, with header fields changed (or dropped, given _DROP)."""
    header = {key: value for key, value in {**_EMPTY_HEADER, **changes}.items() if value is not _DROP}
    return json.dumps(header).encode("ascii") + b"\n"


def test_the_crafted_empty_cache_loads(tmp_path):
    cache = tmp_path / "empty.cache"
    cache.write_bytes(_empty_cache())
    assert len(load_cache(str(cache))) == 0


def _toy_payload(tmp_path):
    """The dump file and the header and sections save_cache writes for it."""
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "toy.cache"
    save_cache(ingest_path(str(dump)), str(cache))
    return dump, _cache_parts(cache.read_bytes())


def _assert_refused_and_rebuilt(tmp_path, capsys, cache, dump=None):
    """load_cache refuses `cache`, align exits 1 naming it, load_or_ingest rebuilds it."""
    with pytest.raises(GazetteerError, match="rerun `geoeval ingest`"):
        load_cache(str(cache))

    # The CLI reports it as an input error, not a traceback.
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8\t2.3\n", encoding="utf-8")
    assert cli.main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert str(cache) in err and "ingest" in err and "Traceback" not in err

    if dump is None:
        dump = tmp_path / "dump.tsv"
        dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    index, hit = load_or_ingest(str(dump), str(cache))
    assert hit is False and len(index) == len(TOY_DUMP_LINES)
    assert _cache_parts(cache.read_bytes())[0]["format"] == gazetteer.CACHE_FORMAT_VERSION
    assert load_cache(str(cache)).version == index.version


@pytest.mark.parametrize(
    "payload",
    [
        b'["not", "a", "dict"]\n',
        _empty_cache(format=gazetteer.CACHE_FORMAT_VERSION + 1),
        _empty_cache(sections=_DROP),
        _empty_cache(sections={"melbourne": [1001]}),
        _empty_cache(counts=["lots", [], None]),
        _empty_cache(counts=[0, 0]),
        # Format 5's code tables, one that its entries could not be built from.
        _empty_cache(codes=[[1, "PPL", "US"]]),
        _empty_cache(codes=[["P", "PPL"]]),
        _empty_cache(feature_classes={"P": 1}),
    ],
    ids=["not-a-dict", "wrong-version", "missing-index", "index-not-an-index",
         "counts-not-integers", "two-counts", "bad-arguments-type", "bad-arguments-value", "bad-state"],
)
def test_cache_rejects_bad_payload_shape(tmp_path, payload, capsys):
    cache = tmp_path / "shape.cache"
    cache.write_bytes(payload)
    _assert_refused_and_rebuilt(tmp_path, capsys, cache)


def _with_header(header, parts, **changes):
    return _cache_bytes({**header, **changes}, parts)


@pytest.mark.parametrize(
    "make",
    [
        lambda header, parts: _with_header(header, parts, format=3),
        lambda header, parts: _with_header(header, parts, format=4),  # rows in rank order
        lambda header, parts: _with_header(header, parts, format=5),  # with a codes column
        lambda header, parts: _with_header(header, parts, format=gazetteer.CACHE_FORMAT_VERSION + 1),
        lambda header, parts: _cache_bytes({k: v for k, v in header.items() if k != "format"}, parts),
        # The format-1 layout: the index inside an object that repeats its checksum.
        lambda header, parts: json.dumps(
            {"format_version": 1, "checksum": header["checksum"], "feature_classes": None, "index": header}
        ).encode("ascii") + b"\n",
        lambda header, parts: _with_header(header, parts, checksum=0),
        # Columns without the names that the name map is filed from.
        lambda header, parts: _cache_bytes(header, {**parts, "names": []}),
        # The checksum is printed as a report line, so a line break would forge another.
        lambda header, parts: _with_header(header, parts, checksum="sha256:x\nn_gold: 999"),
        lambda header, parts: _with_header(header, parts, checksum=header["checksum"] + "\n"),
        lambda header, parts: _with_header(header, parts, checksum=header["checksum"][:-1]),
        lambda header, parts: _with_header(header, parts, checksum=header["checksum"].upper()),
    ],
    ids=["older", "format-4", "format-5", "newer", "no-version", "format-1-payload", "no-checksum", "no-name-map",
         "checksum-forging-a-line", "checksum-and-a-newline", "short-checksum", "upper-case-checksum"],
)
def test_cache_of_another_format_version_is_refused_and_rebuilt(tmp_path, capsys, make):
    # Same dump and filter: only `make` makes the cache unusable.
    dump, (header, parts) = _toy_payload(tmp_path)
    cache = tmp_path / "old.cache"
    cache.write_bytes(make(header, parts))
    _assert_refused_and_rebuilt(tmp_path, capsys, cache, dump)


def _set(parts, section, value, at=0):
    parts[section][at] = value
    return parts


def _in_every_section(parts, edit):
    for name in gazetteer._SECTIONS:
        parts[name] = edit(parts[name])
    return parts


def _short_first_code(header, parts):
    header["codes"] = [["P", "PPL"]]  # format 5's code table, its one triple a field short
    return parts


@pytest.mark.parametrize(
    "make",
    [
        lambda header, parts: _set(parts, "latitudes", 999.0),
        # Populations stored as decimal text, not as int64.
        lambda header, parts: {**parts, "populations": " ".join(map(str, parts["populations"])).encode("ascii")},
        lambda header, parts: _in_every_section(parts, lambda section: section[:1] + section),
        lambda header, parts: _short_first_code(header, parts),
        lambda header, parts: {**parts, "names": b"\xff" + "".join(n + "\n" for n in parts["names"]).encode()},
        lambda header, parts: {**parts, "names": parts["names"][:-1]},
        lambda header, parts: _set(parts, "longitudes", float("nan")),
        # Every column is checked whole as the cache loads, not when a query
        # first reaches the row: a bad last row, and a bad row under a name
        # that nothing asks for, are refused by load_cache itself.
        lambda header, parts: _set(parts, "latitudes", 999.0, at=-1),
        lambda header, parts: _set(parts, "populations", -1, at=-1),
        lambda header, parts: _set(_set(parts, "names", "Unasked", at=5), "latitudes", float("inf"), at=5),
        # Ids of 32 bits, not 64.
        lambda header, parts: {**_set(parts, "names", "Unasked", at=5), "ids": array("i", parts["ids"])},
    ],
    ids=["latitude-999", "string-population", "duplicate-id", "eight-fields",
         "name-not-a-string", "alternate-not-a-string", "longitude-nan", "last-row-latitude-999",
         "last-row-negative-population", "unasked-name-infinite-latitude", "unasked-name-float-id"],
)
def test_cache_with_a_bad_row_is_refused_and_rebuilt(tmp_path, capsys, make):
    dump, (header, parts) = _toy_payload(tmp_path)
    cache = tmp_path / "rows.cache"
    cache.write_bytes(_cache_bytes(header, make(header, parts)))
    _assert_refused_and_rebuilt(tmp_path, capsys, cache, dump)


def _other_byte_order(header, parts):
    for name in _TYPECODES:
        parts[name].byteswap()
    return _cache_bytes({**header, "byteorder": "big" if sys.byteorder == "little" else "little"}, parts)


def _swap_first_two_rows(parts):
    for name in gazetteer._SECTIONS:
        parts[name][0], parts[name][1] = parts[name][1], parts[name][0]
    return parts


@pytest.mark.parametrize(
    "make, reason",
    [
        (_other_byte_order, "byteorder"),
        (lambda header, parts: _cache_bytes(header, parts)[:-3], "bytes, the file"),
        (lambda header, parts: _cache_bytes(header, {**parts, "ids": parts["ids"] + array("q", [7])}, resize=False),
         "bytes, the file"),
        (lambda header, parts: _cache_bytes(header, _set(parts, "latitudes", float("nan"))), "latitude"),
        (lambda header, parts: _cache_bytes(header, _set(parts, "populations", -1, at=-1)), "negative"),
        (lambda header, parts: _cache_bytes(header, _swap_first_two_rows(parts)), "out of order"),
        (lambda header, parts: _cache_bytes(header, _set(parts, "ids", parts["ids"][0], at=1)), "duplicate"),
        (lambda header, parts: _cache_bytes(header, {**parts, "names": "".join(
            n + "\n" for n in parts["names"]).encode("utf-8").replace(b"M", b"\xc3(")}), "utf-8"),
        (lambda header, parts: pickle.dumps((3, header["checksum"], None, (14, 0, 0), [])), "pickle"),
        # A field that may be null must still be there.
        (lambda header, parts: _cache_bytes({k: v for k, v in header.items() if k != "feature_classes"}, parts),
         "'feature_classes' is missing"),
        (lambda header, parts: _cache_bytes({**header, "os.remove": None, "eval": None}, parts), "'os.remove'"),
        # The header's ingested count is the row count; it may not read another.
        (lambda header, parts: _cache_bytes({**header, "counts": [999, 0, 0]}, parts), "the 999 ingested rows"),
    ],
    ids=["other-byte-order", "truncated-section", "over-long-section", "nan-latitude", "negative-population",
         "out-of-id-order", "duplicate-id", "names-not-utf-8", "format-3-pickle",
         "no-feature-classes", "first-foreign-key-named", "ingested-count-not-the-row-count"],
)
def test_a_damaged_cache_is_refused_for_its_reason_and_rebuilt(tmp_path, capsys, make, reason):
    dump, (header, parts) = _toy_payload(tmp_path)
    cache = tmp_path / "damaged.cache"
    cache.write_bytes(make(header, parts))
    with pytest.raises(GazetteerError, match=reason):
        load_cache(str(cache))
    _assert_refused_and_rebuilt(tmp_path, capsys, cache, dump)


def test_cache_naming_a_missing_module_is_input_error(tmp_path, capsys):
    cache = tmp_path / "foreign.cache"
    cache.write_bytes(_empty_cache(**{"nosuchmodule.thing": None}))
    with pytest.raises(GazetteerError, match="nosuchmodule.thing"):
        load_cache(str(cache))
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8\t2.3\n", encoding="utf-8")
    assert cli.main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "make",
    [
        lambda path: _empty_cache(**{"os.remove": [path]}),
        # Builtins are refused too.
        lambda path: _empty_cache(**{"builtins.len": []}),
    ],
    ids=["foreign-function", "builtin"],
)
def test_cache_naming_any_global_is_refused_and_rebuilt(tmp_path, capsys, make):
    target = tmp_path / "keep.txt"
    target.write_text("still here", encoding="utf-8")
    cache = tmp_path / "global.cache"
    cache.write_bytes(make(str(target)))
    with pytest.raises(GazetteerError, match="not allowed"):
        load_cache(str(cache))
    _assert_refused_and_rebuilt(tmp_path, capsys, cache)
    assert target.read_text(encoding="utf-8") == "still here"


def test_cache_calling_a_foreign_function_runs_nothing(tmp_path):
    target = tmp_path / "keep.txt"
    target.write_text("still here", encoding="utf-8")
    cache = tmp_path / "hostile.cache"
    cache.write_bytes(json.dumps({"format": gazetteer.CACHE_FORMAT_VERSION,
                                  "index": {"os.remove": [str(target)]}}).encode("ascii") + b"\n")
    with pytest.raises(GazetteerError, match="not allowed"):
        load_cache(str(cache))
    assert target.read_text(encoding="utf-8") == "still here"


def test_cache_bytes_depend_only_on_the_dump(tmp_path):
    dump = tmp_path / "dump.tsv"
    # Dump order differs from rank order, and one entry has two alternates.
    lines = list(reversed(TOY_DUMP_LINES)) + [
        geonames_line(1020, "Twotown", 1.0, 1.0, alternates="Zeta,Alpha")
    ]
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    first, second, resaved = tmp_path / "a.cache", tmp_path / "b.cache", tmp_path / "c.cache"
    save_cache(ingest_path(str(dump)), str(first))
    save_cache(ingest_path(str(dump)), str(second))
    loaded = load_cache(str(first))
    assert nearest_entry(loaded, "Zeta", Coordinate(0.0, 0.0)).id == 1020  # fills the unit-vector memo
    save_cache(loaded, str(resaved))
    assert first.read_bytes() == second.read_bytes() == resaved.read_bytes()


@pytest.mark.parametrize("good", [True, False], ids=["good-cache", "refused-cache"])
@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_load_cache_leaves_the_collector_as_it_found_it(tmp_path, toy_index, good, collecting):
    cache = tmp_path / "toy.cache"
    if good:
        save_cache(toy_index, str(cache))
    else:
        cache.write_bytes(b"not a pickle")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        if good:
            load_cache(str(cache))
        else:
            with pytest.raises(GazetteerError):
                load_cache(str(cache))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_ingest_leaves_the_collector_as_it_found_it(collecting):
    def unreadable_lines():
        yield TOY_DUMP_LINES[0]
        raise OSError("read error")

    was_enabled = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        assert len(ingest(TOY_DUMP_LINES)) == len(TOY_DUMP_LINES)
        assert gc.isenabled() is collecting
        with pytest.raises(OSError):
            ingest(unreadable_lines())
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_cycle_made_after_load_cache_is_collected(tmp_path, toy_index):
    cache = tmp_path / "toy.cache"
    save_cache(toy_index, str(cache))
    loaded = load_cache(str(cache))

    class Node:
        pass

    node = Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    assert loaded.lookup("paris")


@pytest.mark.parametrize("case", ["good-cache", "refused-cache", "ingest"])
def test_neither_loading_nor_ingesting_freezes_the_collector(tmp_path, toy_index, case):
    cache = tmp_path / "toy.cache"
    if case == "good-cache":
        save_cache(toy_index, str(cache))
    else:
        cache.write_bytes(b"not a pickle")
    frozen = gc.get_freeze_count()
    if case == "good-cache":
        load_cache(str(cache))
    elif case == "refused-cache":
        with pytest.raises(GazetteerError):
            load_cache(str(cache))
    else:
        ingest(TOY_DUMP_LINES)
    assert gc.get_freeze_count() == frozen


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects()) + gc.get_freeze_count()


def test_loading_a_cache_adds_few_objects_for_the_collector_to_track(tmp_path):
    lines = [geonames_line(i, f"Town{i}", 1.0, 1.0, alternates=f"Burgh{i},Ville{i}") for i in range(1, 301)]
    cache = tmp_path / "alternates.cache"
    save_cache(ingest(lines, version="sha256:0123456789abcdef"), str(cache))
    before = _tracked_objects()
    loaded = load_cache(str(cache))
    assert _tracked_objects() - before < 50
    assert [e.id for e in loaded.lookup("ville300")] == [300]


def _bytes_retained(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", ["ingest", "load_cache", "miss", "hit"])
def test_an_index_files_no_name_before_its_first_name_query(tmp_path, source):
    lines = [geonames_line(i, f"Town{i}", 1.0, 1.0, alternates=f"Burgh{i},Ville{i}") for i in range(1, 301)]
    dump, cache = tmp_path / "dump.tsv", tmp_path / "dump.cache"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if source in ("load_cache", "hit"):
        load_or_ingest(str(dump), str(cache))  # writes the cache
    if source == "ingest":
        index = ingest(lines)
    elif source == "load_cache":
        index = load_cache(str(cache))
    else:
        index, hit = load_or_ingest(str(dump), str(cache))
        assert hit == (source == "hit")
    assert index.entry(300) == gazetteer.GazetteerEntry(300, Coordinate(1.0, 1.0), 0)  # what eval-* asks
    # Filing keeps a new string for each of the 900 distinct folded names; once filed, a query keeps none.
    assert _bytes_retained(lambda: index.has_name("ville300")) > 900 * sys.getsizeof("")
    assert _bytes_retained(lambda: index.has_name("ville299")) < sys.getsizeof("")


def test_load_or_ingest_cache_hit(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "dump.cache"
    index1, hit1 = load_or_ingest(str(dump), str(cache))
    index2, hit2 = load_or_ingest(str(dump), str(cache))
    assert (hit1, hit2) == (False, True)
    assert index1.version == index2.version == dump_checksum(str(dump))

    # Touching the dump invalidates the cache.
    dump.write_text("\n".join(TOY_DUMP_LINES + [geonames_line(9999, "Newplace", 0.0, 0.0)]), encoding="utf-8")
    index3, hit3 = load_or_ingest(str(dump), str(cache))
    assert hit3 is False
    assert index3.lookup("newplace")


def test_load_or_ingest_respects_filter_change(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "dump.cache"
    load_or_ingest(str(dump), str(cache), feature_classes={"P"})
    index, hit = load_or_ingest(str(dump), str(cache))
    assert hit is False
    assert index.lookup("maine")  # A-class entry present without the filter


def test_rebuild_frees_the_stale_index_before_ingesting(tmp_path, monkeypatch):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "dump.cache"
    load_or_ingest(str(dump), str(cache), {"A"})

    loaded = []

    def recording_load_cache(path):
        index = load_cache(path)
        loaded.append(weakref.ref(index))
        return index

    def checking_ingest_path(path, feature_classes=None):
        gc.collect()
        assert loaded and loaded[0]() is None, "stale index still alive during the rebuild"
        return ingest_path(path, feature_classes)

    monkeypatch.setattr(gazetteer, "load_cache", recording_load_cache)
    monkeypatch.setattr(gazetteer, "ingest_path", checking_ingest_path)
    index, hit = load_or_ingest(str(dump), str(cache), None)
    assert hit is False and index.feature_classes is None


def test_index_records_its_filter(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "dump.cache"
    built, _ = load_or_ingest(str(dump), str(cache), {"P"})
    assert built.feature_classes == {"P"}
    assert load_cache(str(cache)).feature_classes == {"P"}
    assert load_or_ingest(str(dump), str(cache), {"P"})[1] is True
    assert load_or_ingest(str(dump), str(cache))[0].feature_classes is None


def test_dump_with_a_bom_ingests_its_first_row(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_bytes(b"\xef\xbb\xbf" + ("\n".join(TOY_DUMP_LINES) + "\n").encode("utf-8"))
    index = ingest_path(str(dump))
    assert (index.summary.ingested, index.summary.skipped) == (len(TOY_DUMP_LINES), 0)
    assert [e.id for e in index.lookup("melbourne")] == [1001, 1002]
    assert index.version == dump_checksum(str(dump))  # the checksum still covers the raw bytes


def test_a_dump_line_ends_at_lf_only(tmp_path, caplog):
    # A lone CR inside a field stays in it: it neither splits the record nor shifts the line numbers.
    lines = [
        geonames_line(1, "Alpha", 1.0, 1.0),
        geonames_line(2, "Cr\rville", 2.0, 2.0),
        geonames_line(3, "Gamma", 3.0, 3.0).replace("2018-04", "2018\r-04"),
        "not\ta\tvalid\tline",
        geonames_line(5, "Epsilon", 5.0, 5.0),
    ]
    columns = []
    for name, end in (("lf.tsv", "\n"), ("crlf.tsv", "\r\n")):
        dump = tmp_path / name
        dump.write_bytes("".join(line + end for line in lines).encode("utf-8"))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="geoeval.gazetteer"):
            index = ingest_path(str(dump))
        assert (index.summary.ingested, index.summary.skipped) == (4, 1)
        assert caplog.messages[0] == "gazetteer: skipping malformed line 4"
        c = index._columns
        columns.append(([list(a) for a in c.arrays()], c.names))
    assert columns[0] == columns[1]
    assert columns[0][1] == ["Alpha", "Cr\rville", "Gamma", "Epsilon"]


def test_ingest_path_unreadable(tmp_path):
    with pytest.raises(GazetteerError):
        ingest_path(str(tmp_path / "missing.tsv"))


names = st.sampled_from(["Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta"])
entries_strategy = st.lists(
    st.tuples(
        names,
        st.integers(min_value=0, max_value=10**7),  # population
        st.floats(min_value=-89, max_value=89),
        st.floats(min_value=-179, max_value=179),
    ),
    min_size=1,
    max_size=25,
)


def _build(fixture):
    lines = [
        geonames_line(i + 1, name, lat, lon, population=pop)
        for i, (name, pop, lat, lon) in enumerate(fixture)
    ]
    return ingest(lines)


@given(fixture=entries_strategy, query=names)
@settings(max_examples=200)
def test_lookup_matches_brute_force(fixture, query):
    index = _build(fixture)
    brute = sorted(
        (i + 1 for i, (name, _, _, _) in enumerate(fixture) if name.casefold() == query.casefold()),
        key=lambda eid: (-fixture[eid - 1][1], eid),
    )
    assert [e.id for e in index.lookup(query)] == brute


def _nearest_oracle(candidates, coord):
    """The haversine minimum over every candidate, ties to the lower id."""
    return min(candidates, key=lambda e: (great_circle_distance(e.coord, coord), e.id))


@given(
    fixture=entries_strategy,
    query=names,
    lat=st.floats(min_value=-89, max_value=89),
    lon=st.floats(min_value=-179, max_value=179),
)
@settings(max_examples=200)
def test_nearest_entry_minimizes_distance(fixture, query, lat, lon):
    index = _build(fixture)
    coord = Coordinate(lat, lon)
    best = nearest_entry(index, query, coord)
    candidates = index.lookup(query)
    if not candidates:
        assert best is None
    else:
        assert best is not None
        d_best = great_circle_distance(best.coord, coord)
        for cand in candidates:
            assert d_best <= great_circle_distance(cand.coord, coord)
        assert best.id == _nearest_oracle(candidates, coord).id


@st.composite
def _points_near_anchors(draw):
    """A few anchor points, and a sampler of points equal to, within 1e-5° of, or antipodal to one."""
    anchors = draw(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=4))

    def point():
        lat, lon = draw(st.sampled_from(anchors))
        kind = draw(st.sampled_from(["same", "near", "antipode"]))
        if kind == "near":
            # At 1e-7° (about 1 cm) and below, rounding can order a dot product and a haversine apart.
            scale = draw(st.sampled_from([1e-5, 1e-7, 1e-9, 1e-12]))
            lat = min(90.0, max(-90.0, lat + scale * draw(st.floats(-1, 1))))
            lon = min(180.0, max(-180.0, lon + scale * draw(st.floats(-1, 1))))
        elif kind == "antipode":
            lat, lon = -lat, (lon - 180.0 if lon > 0 else lon + 180.0)
        return Coordinate(lat, lon)

    return point


@given(point=_points_near_anchors(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_nearest_entry_agrees_with_the_haversine_minimum(point, data):
    coords = [point() for _ in range(data.draw(st.integers(1, 12)))]
    # Ids are shuffled against coordinates, so the lower id is not also the first drawn.
    ids = data.draw(st.permutations(range(1, len(coords) + 1)))
    index = ingest([
        geonames_line(eid, "Alpha", coord.lat, coord.lon, population=data.draw(st.integers(0, 2)))
        for eid, coord in zip(ids, coords)
    ])
    for _ in range(3):  # the first query fills the unit-vector memo, later ones read it
        query = point()
        assert nearest_entry(index, "ALPHA", query).id == _nearest_oracle(index.lookup("alpha"), query).id


def _alpha_index(coords):
    return ingest([geonames_line(eid, "Alpha", lat, lon) for eid, (lat, lon) in enumerate(coords, start=1)])


@pytest.mark.parametrize(
    "coords, query, want",
    [
        # At a pole every longitude is one point, but rounding leaves haversine
        # distances that differ with longitude by under 1e-12 km: the answer
        # follows them, as the oracle does.
        ([(89.0, -60.0), (90.0, 120.0), (90.0, 0.0)], (90.0, -45.0), 3),
        ([(-89.5, 170.0), (-90.0, 10.0), (-89.5, -10.0)], (-89.9, -170.0), 2),
        ([(-89.5, 170.0), (-89.0, 10.0), (-89.5, -10.0)], (-90.0, 0.0), 3),
        # Across the antimeridian, 179.9 and -179.9 are 0.2 degrees apart.
        ([(10.0, 170.0), (10.0, 179.9), (10.0, -179.9)], (10.0, -179.99), 3),
        ([(0.5, 0.0), (0.0, 179.0), (0.0, -179.5)], (0.0, 179.8), 3),
        # Every candidate on one latitude, so the window cannot stop early.
        ([(45.0, float(lon)) for lon in range(-180, 180, 30)], (45.0, 95.0), 10),
        ([(45.0, float(lon)) for lon in range(-180, 180, 30)], (-45.0, -175.0), 1),
        # Equal latitudes at different longitudes, on both sides of the query.
        ([(21.0, 0.0), (20.0, -10.0), (20.0, 30.0), (20.0, 9.0), (19.0, 5.0)], (20.0, 5.0), 5),
        ([(20.0, 10.0), (20.0, -10.0), (20.0, 50.0)], (20.0, 0.0), 1),
    ],
    ids=["north-pole", "south-pole", "query-at-south-pole", "antimeridian-east",
         "antimeridian-west", "one-latitude", "one-latitude-far", "equal-latitudes", "equidistant-tie"],
)
def test_nearest_entry_edge_cases_agree_with_the_haversine_minimum(coords, query, want):
    index = _alpha_index(coords)
    query = Coordinate(*query)
    assert nearest_entry(index, "alpha", query).id == want
    assert _nearest_oracle(index.lookup("alpha"), query).id == want


@given(
    coords=st.lists(
        st.tuples(st.sampled_from([-90.0, -45.0, -0.5, 0.0, 0.5, 45.0, 89.9, 90.0]),
                  st.floats(-180, 180)),
        min_size=1, max_size=40,
    ),
    queries=st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_nearest_entry_over_shared_latitudes_agrees_with_the_haversine_minimum(coords, queries):
    index = _alpha_index(coords)
    for lat, lon in queries:
        query = Coordinate(lat, lon)
        assert nearest_entry(index, "Alpha", query).id == _nearest_oracle(index.lookup("alpha"), query).id


def test_by_latitude_orders_the_candidates_and_is_memoised(toy_index):
    ordered, lats, xyz = toy_index.by_latitude("MELBOURNE")
    assert list(ordered) == [1001, 1002]
    assert list(lats) == [math.radians(-37.8136), math.radians(28.0836)]
    assert len(xyz) == 6
    assert toy_index.by_latitude("melbourne")[0] is ordered
    assert toy_index.by_latitude("Nowhereville") == ((), array("d"), array("d"))


def test_max_tokens_by_first_token(toy_index):
    token = re.compile(r"[^\W_]+")
    found = toy_index.max_tokens_by_first_token(token)
    assert found["waldo"] == 3  # "Waldo" and "Waldo County Jail"
    assert found["russian"] == 2 and found["russia"] == 1
    assert "county" not in found
    assert toy_index.max_tokens_by_first_token(token) is found


malformed_lines = st.sampled_from([
    "not\ta\tvalid\tline",
    "\t".join(["x"] * 19),  # non-integer id
    geonames_line(5, "Badcoord", 95.0, 2.0),  # latitude out of range
    geonames_line(6, "Negative", 1.0, 2.0, population=-3),
])
dump_lines = st.lists(
    st.one_of(
        st.builds(
            lambda entry_id, name, pop, fclass, alternates: geonames_line(
                entry_id, name, 1.0 + entry_id, -2.0 - entry_id, feature_class=fclass,
                population=pop, alternates=",".join(alternates),
            ),
            st.integers(min_value=1, max_value=12),  # few ids, so duplicates are common
            names,
            st.integers(min_value=0, max_value=3),  # few populations, so ties are common
            st.sampled_from("PAS"),
            st.lists(st.sampled_from(["alpha", "ÄLPHA", "Straße", "strasse", "Gamma"]), max_size=3),
        ),
        malformed_lines,
    ),
    max_size=30,
)


@given(lines=dump_lines, classes=st.one_of(st.none(), st.sets(st.sampled_from("PAS"))))
@settings(max_examples=150, deadline=None)
def test_load_cache_after_save_cache_gives_back_the_ingested_index(lines, classes):
    index = ingest(lines, feature_classes=classes, version="sha256:0123456789abcdef")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.cache")
        save_cache(index, path)
        loaded = load_cache(path)
    assert len(loaded) == len(index)
    assert (loaded.version, loaded.feature_classes) == (index.version, index.feature_classes)
    assert vars(loaded.summary) == vars(index.summary)
    assert list(loaded.entries()) == list(index.entries())
    # The names the dump lines give, those of skipped and filtered lines too, which no index holds.
    fields = [line.split("\t") for line in lines]
    all_names = {name for f in fields for name in (f[1], *f[3].split(","))}
    for name in all_names | {"atlantis"}:
        assert [e.id for e in loaded.lookup(name)] == [e.id for e in index.lookup(name)]


# dump_lines with more casefold traps: alternates that repeat the canonical name
# after casefolding, "ß" against "SS", and "İ", which casefolds to two code points.
_CASEFOLD_TRAPS = ["alpha", "ALPHA", "Straße", "STRASSE", "strasse", "İstanbul", "istanbul", "I\u0307stanbul"]
casefold_dump_lines = st.lists(
    st.one_of(
        st.builds(
            lambda entry_id, name, pop, alternates: geonames_line(
                entry_id, name, 1.0 + entry_id, -2.0 - entry_id, population=pop,
                alternates=",".join(alternates),
            ),
            st.integers(min_value=1, max_value=12),  # few ids, so duplicates are common
            st.sampled_from(["Alpha", "Straße", "STRASSE", "İstanbul", "Alpha Beta", "Beta"]),
            st.integers(min_value=0, max_value=3),  # few populations, so ties are common
            st.lists(st.sampled_from(_CASEFOLD_TRAPS), max_size=3),
        ),
        malformed_lines,
    ),
    max_size=30,
)
_NAME_QUERIES = ("has_name", "lookup", "top", "by_latitude", "max_tokens", "nearest", "entry")
_QUERIED_NAMES = sorted({"Alpha", "Straße", "STRASSE", "İstanbul", "Alpha Beta", "Beta", "ss", "i\u0307stanbul",
                         "atlantis", *_CASEFOLD_TRAPS})


def _answer(index, query, coord):
    """What one kind of query returns for every queried name (or id), as plain values."""
    if query == "max_tokens":
        return index.max_tokens_by_first_token(re.compile(r"[^\W_]+"))
    if query == "entry":
        return [index.entry(eid) for eid in range(14)]
    ask = {"has_name": index.has_name, "lookup": index.lookup, "top": index.top,
           "by_latitude": index.by_latitude, "nearest": lambda name: nearest_entry(index, name, coord)}[query]
    return [ask(name) for name in _QUERIED_NAMES]


@given(
    lines=casefold_dump_lines,
    order=st.permutations(_NAME_QUERIES),
    cached=st.booleans(),
    lat=st.floats(min_value=-89, max_value=89),
    lon=st.floats(min_value=-179, max_value=179),
)
@settings(max_examples=100, deadline=None)
def test_every_query_answers_alike_whichever_runs_first(lines, order, cached, lat, lon):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.cache")
        save_cache(ingest(lines, version="sha256:0123456789abcdef"), path)

        def fresh():
            return load_cache(path) if cached else ingest(lines)

        coord = Coordinate(lat, lon)
        walked = fresh()
        answers = {query: _answer(walked, query, coord) for query in order}
        for query in _NAME_QUERIES:
            assert _answer(fresh(), query, coord) == answers[query], query


# One defect each, as geonames_line arguments; "too few columns" drops the last one.
_DEFECTS = {
    "id beyond int64": {"entry_id": 2**63},
    "id below int64": {"entry_id": -2**63 - 1},
    "id with an underscore": {"entry_id": "1_0"},
    "blank name": {"name": " "},
    "line feed in the name": {"name": "New\nYork"},
    "line feed in an alternate": {"alternates": "a,New\nYork"},
    "latitude out of range": {"lat": 90.5},
    "longitude not a number": {"lon": "nan"},
    "negative population": {"population": -1},
    "too few columns": {},
}

_ALPHA = {"entry_id": 1, "name": "Alpha", "lat": 1.0, "lon": 2.0, "feature_class": "P", "population": 0,
          "alternates": []}

_dump_records = st.lists(
    st.tuples(
        st.fixed_dictionaries({
            # Repeats common, and both ends of int64.
            "entry_id": st.one_of(st.integers(-3, 3), st.sampled_from([-2**63, 2**63 - 1]),
                                  st.integers(-2**63, 2**63 - 1)),
            "name": st.sampled_from(["Alpha", " Straße ", "İstanbul"]),
            "lat": st.floats(-90, 90),
            "lon": st.floats(-180, 180),
            "feature_class": st.sampled_from("PAS"),
            "population": st.one_of(st.integers(0, 2), st.integers(0, 2**63 - 1)),
            # Blanks, repeats and case variants.
            "alternates": st.lists(st.sampled_from(["a", " a", "A", "", "  ", "ß", "SS", "b "]), max_size=4),
        }),
        st.sampled_from([None, None, None, *_DEFECTS]),  # the line's defect, if any
    ),
    max_size=10,
)


@given(records=_dump_records, feature_classes=st.sampled_from([None, {"P", "A"}]))
@example(records=[], feature_classes=None)
@example(records=[({"entry_id": 2**63 - 1, "name": "Alpha", "lat": 1.5, "lon": -2.5, "feature_class": "P",
                    "population": 3, "alternates": ["b ", "a", " a", ""]}, None),
                  ({"entry_id": -2**63, "name": " Straße ", "lat": 90.0, "lon": -180.0, "feature_class": "A",
                    "population": 0, "alternates": []}, None),
                  ({"entry_id": 2**63 - 1, "name": "İstanbul", "lat": 0.0, "lon": 0.0, "feature_class": "P",
                    "population": 1, "alternates": []}, None)],
         feature_classes=None)
@example(records=[({**_ALPHA, "feature_class": "S"}, None), (_ALPHA, "line feed in the name"),
                  (_ALPHA, "line feed in an alternate"), ({**_ALPHA, "population": 2}, None)],
         feature_classes={"P", "A"})
@settings(max_examples=300)
def test_ingest_keeps_each_ids_first_valid_kept_line_sorted_by_id(records, feature_classes):
    lines, kept, seen = [], [], set()
    malformed = duplicates = filtered = 0
    for record, defect in records:
        line = geonames_line(**{**record, "alternates": ",".join(record["alternates"]), **_DEFECTS.get(defect, {})})
        lines.append(line.rsplit("\t", 1)[0] if defect == "too few columns" else line)
        if defect:
            malformed += 1
        elif feature_classes is not None and record["feature_class"] not in feature_classes:
            filtered += 1
        elif record["entry_id"] in seen:
            duplicates += 1
        else:
            seen.add(record["entry_id"])
            kept.append(record)
    kept.sort(key=lambda r: r["entry_id"])

    index = ingest(lines, feature_classes)
    c = index._columns
    assert [column.typecode for column in c.arrays()] == ["q", "q", "d", "d"]
    assert list(c.ids) == [r["entry_id"] for r in kept]
    assert list(c.populations) == [r["population"] for r in kept]
    assert list(c.lats) == [r["lat"] for r in kept] and list(c.lons) == [r["lon"] for r in kept]
    assert c.names == [
        "\t".join([r["name"].strip(), *sorted(set(filter(None, map(str.strip, r["alternates"]))))]) for r in kept]
    assert index.summary == gazetteer.IngestSummary(len(kept), malformed + duplicates, filtered)


_id_lines = st.lists(
    st.builds(
        lambda eid, pop: geonames_line(eid, f"Town{eid}", 1.0, 2.0, population=pop),
        st.one_of(st.integers(0, 30), st.integers(0, 2**63 - 1)),  # few small ids, so duplicates and gaps
        st.integers(0, 2),
    ),
    max_size=12,
)


@given(lines=_id_lines, probes=st.lists(st.integers(-2**70, 2**70), max_size=5))
@example(lines=[], probes=[0])
@settings(max_examples=150, deadline=None)
def test_entry_agrees_with_a_scan_of_the_rows(lines, probes):
    index = ingest(lines, version="sha256:0123456789abcdef")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.cache")
        save_cache(index, path)
        loaded = load_cache(path)
    ids = sorted(e.id for e in index.entries())
    # Absent ids: negative, beyond int64, and (given rows) below the smallest,
    # above the largest and between two.
    absent = [-1, -2**63 - 1, 2**63, 2**64]
    if ids:
        absent += [ids[0] - 1, ids[-1] + 1, *(a + 1 for a, b in zip(ids, ids[1:]) if b - a > 1)]
    absent = [eid for eid in absent if eid not in ids]
    for built in (index, loaded):
        rows = built.entries()
        for eid in [*ids, *absent, *probes]:
            assert built.entry(eid) is next((e for e in rows if e.id == eid), None)
        assert [built.entry(eid) for eid in absent] == [None] * len(absent)


def test_load_cache_builds_no_entry_and_queries_build_each_once(tmp_path, toy_index, monkeypatch):
    cache = tmp_path / "toy.cache"
    save_cache(toy_index, str(cache))
    built = []
    entry_type = gazetteer.GazetteerEntry

    def counting_entry(eid, *fields):
        built.append(eid)
        return entry_type(eid, *fields)

    monkeypatch.setattr(gazetteer, "GazetteerEntry", counting_entry)
    loaded = load_cache(str(cache))
    assert built == []
    assert loaded.has_name("melbourne") and loaded.by_latitude("melbourne")[0] == (1001, 1002)
    assert built == []
    assert [e.id for e in loaded.lookup("Melbourne")] == [1001, 1002]
    assert loaded.top("melbourne").id == 1001
    assert nearest_entry(loaded, "melbourne", Coordinate(28.0, -80.0)).id == 1002
    assert loaded.entry(1001).id == 1001
    assert sorted(built) == [1001, 1002]


@given(
    fixture=entries_strategy,
    order=st.permutations(["lookup", "top", "entry", "nearest", "entries"]),
    lat=st.floats(min_value=-89, max_value=89),
    lon=st.floats(min_value=-179, max_value=179),
)
@settings(max_examples=100, deadline=None)
def test_every_query_hands_out_one_object_per_entry(fixture, order, lat, lon):
    index = _build(fixture)
    seen = {}

    def same(entry):
        assert seen.setdefault(entry.id, entry) is entry

    for query in order:  # whichever query builds an entry first, the others return it
        for name in {name for name, _, _, _ in fixture}:
            if query == "lookup":
                for entry in index.lookup(name):
                    same(entry)
            elif query == "top":
                same(index.top(name))
            elif query == "nearest":
                same(nearest_entry(index, name, Coordinate(lat, lon)))
            elif query == "entry":
                same(index.entry(index.top(name).id))
        if query == "entries":
            for entry in index.entries():
                same(entry)
    for name in {name for name, _, _, _ in fixture}:
        assert index.lookup(name)[0] is index.entry(index.top(name).id) is index.top(name)


_CORPUS_WORDS = ["Alpha", "alpha", "ÄLPHA", "Beta", "Gamma", "Straße", "STRASSE", "Zeta", "river", "of"]


@st.composite
def _scored_case(draw):
    """A dump, gold documents linking to its ids (some dangling), and coordinates for system B."""
    docs = []
    for d in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(_CORPUS_WORDS), min_size=1, max_size=10))
        annotations = []
        start = 0
        for word in words:
            if draw(st.booleans()):
                annotations.append(ToponymAnnotation(
                    start, start + len(word), word, draw(st.sampled_from(list(TaxonomyType))),
                    gazetteer_id=draw(st.one_of(st.none(), st.integers(1, 14))),
                ))
            start += len(word) + 1
        docs.append(Document(f"d{d}", " ".join(words), annotations))
    coords = draw(st.lists(st.tuples(st.floats(-89, 89), st.floats(-179, 179)), min_size=1, max_size=5))
    return draw(dump_lines), docs, [Coordinate(lat, lon) for lat, lon in coords]


def _reports(index, docs, coords, populated_only):
    """Every report of the tag, resolve, align and score pipeline over `index`."""
    tagged = [r for doc in docs for r in gazetteer_tag(doc, index)]
    pred = resolve_population(tagged, index, populated_only=populated_only).records
    moved = [
        PredictionRecord(r.doc_id, r.start, r.end, r.surface, r.predicted_label, coords[i % len(coords)])
        for i, r in enumerate(tagged)
    ]
    pred_b = align_to_gazetteer(moved, index).records
    return [
        render_report(evaluate(docs, pred, "d", index, mode, thresholds, pred_b))
        for mode in (MatchMode.EXACT, MatchMode.OVERLAP)
        for thresholds in (None, (161.0,))
    ]


@given(case=_scored_case(), populated_only=st.booleans())
@settings(max_examples=100, deadline=None)
def test_an_index_loaded_from_its_cache_scores_the_same_reports(case, populated_only):
    lines, docs, coords = case
    index = ingest(lines, version="sha256:0123456789abcdef")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.cache")
        save_cache(index, path)
        loaded = load_cache(path)
    assert _reports(loaded, docs, coords, populated_only) == _reports(index, docs, coords, populated_only)


def test_a_line_with_a_blank_name_is_skipped():
    blank = geonames_line(2, " ", 3.0, 4.0)
    assert gazetteer._parse_row(blank) is None
    index = ingest([geonames_line(1, "Goodtown", 1.0, 2.0), blank])
    assert (index.summary.ingested, index.summary.skipped) == (1, 1)
    assert index.lookup(" ") == () and index.lookup("") == ()
