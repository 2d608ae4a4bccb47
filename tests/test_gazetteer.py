import gc
import os
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval import cli, gazetteer
from geoeval.gazetteer import (
    GazetteerError,
    dump_checksum,
    ingest,
    ingest_path,
    load_cache,
    load_or_ingest,
    nearest_entry,
    parse_geonames_line,
    save_cache,
)
from geoeval.geodesy import Coordinate, great_circle_distance

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


def test_malformed_lines_skipped_and_counted():
    lines = [
        geonames_line(1, "Goodtown", 1.0, 2.0),
        "not\ta\tvalid\tline",
        geonames_line(2, "Badcoord", 95.0, 2.0),  # latitude out of range
        "\t".join(["x"] * 19),  # non-integer id
        geonames_line(3, "Othertown", 3.0, 4.0),
    ]
    index = ingest(lines)
    assert index.summary.ingested == 2
    assert index.summary.skipped == 3


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
    for entry in toy_index.entries():
        assert entry.id in {e.id for e in toy_index.lookup(entry.canonical_name)}


def test_ingest_idempotent():
    first = ingest(TOY_DUMP_LINES)
    second = ingest(TOY_DUMP_LINES)
    for line in TOY_DUMP_LINES:
        name = line.split("\t")[1]
        assert [e.id for e in first.lookup(name)] == [e.id for e in second.lookup(name)]


def test_parse_geonames_line_roundtrip():
    entry = parse_geonames_line(
        geonames_line(11, "Testville", 10.5, -20.25, "P", "PPL", "GB", 1234, alternates="Tville,试镇")
    )
    assert entry is not None
    assert entry.canonical_name == "Testville"
    assert entry.alternate_names == frozenset({"Tville", "试镇"})
    assert entry.coord == Coordinate(10.5, -20.25)
    assert entry.country_code == "GB"


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


def test_cache_rejects_bad_format(tmp_path):
    cache = tmp_path / "bogus.cache"
    cache.write_bytes(b"not a pickle")
    with pytest.raises(GazetteerError):
        load_cache(str(cache))


@pytest.mark.parametrize(
    "payload",
    [
        ["not", "a", "dict"],
        {"format_version": gazetteer.CACHE_FORMAT_VERSION + 1, "index": None},
        {"format_version": gazetteer.CACHE_FORMAT_VERSION},
        {"format_version": gazetteer.CACHE_FORMAT_VERSION, "index": {"melbourne": [1001]}},
        # Admitted classes called with bad arguments: TypeError, ValueError, AttributeError.
        b"cgeoeval.geodesy\nCoordinate\n(I1\ntR.",
        b"cgeoeval.geodesy\nCoordinate\n(I999\nI0\ntR.",
        b"\x80\x04cgeoeval.gazetteer\nGazetteerEntry\n)\x81N}X\x02\x00\x00\x00id\x94K\x01sb.",
    ],
    ids=["not-a-dict", "wrong-version", "missing-index", "index-not-an-index",
         "bad-arguments-type", "bad-arguments-value", "bad-state"],
)
def test_cache_rejects_bad_payload_shape(tmp_path, payload, capsys):
    cache = tmp_path / "shape.cache"
    cache.write_bytes(payload if isinstance(payload, bytes) else pickle.dumps(payload))
    with pytest.raises(GazetteerError):
        load_cache(str(cache))

    # The CLI reports it as an input error, not a traceback.
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8\t2.3\n", encoding="utf-8")
    assert cli.main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err

    # load_or_ingest rebuilds such a cache from the dump.
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    index, hit = load_or_ingest(str(dump), str(cache))
    assert hit is False and len(index) == len(TOY_DUMP_LINES)
    assert load_cache(str(cache)).version == index.version


def _set_format_version(index, version):
    if version is None:
        del index.format_version  # as written before the index carried one
    else:
        index.format_version = version
    return index


def _without(index, name):
    delattr(index, name)
    return index


@pytest.mark.parametrize(
    "wrap",
    [
        lambda index: _set_format_version(index, gazetteer.CACHE_FORMAT_VERSION - 1),
        lambda index: _set_format_version(index, gazetteer.CACHE_FORMAT_VERSION + 1),
        lambda index: _set_format_version(index, None),
        # The format-1 layout: the index inside a dict that repeats its checksum.
        lambda index: {"format_version": 1, "checksum": index.version, "feature_classes": None, "index": index},
        # A format-2 index that lacks an attribute `ingest` gives it.
        lambda index: _without(index, "version"),
        lambda index: _without(index, "_name_map"),
    ],
    ids=["older", "newer", "no-version", "format-1-payload", "no-checksum", "no-name-map"],
)
def test_cache_of_another_format_version_is_refused_and_rebuilt(tmp_path, capsys, wrap):
    dump = tmp_path / "dump.tsv"
    dump.write_text("\n".join(TOY_DUMP_LINES) + "\n", encoding="utf-8")
    cache = tmp_path / "old.cache"
    # Same dump and filter: only `wrap` makes the cache unusable.
    cache.write_bytes(pickle.dumps(wrap(ingest_path(str(dump)))))
    with pytest.raises(GazetteerError, match="rerun `geoeval ingest`"):
        load_cache(str(cache))

    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8\t2.3\n", encoding="utf-8")
    assert cli.main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert str(cache) in err and "ingest" in err and "Traceback" not in err

    index, hit = load_or_ingest(str(dump), str(cache))
    assert hit is False
    assert load_cache(str(cache)).format_version == gazetteer.CACHE_FORMAT_VERSION


def test_cache_naming_a_missing_module_is_input_error(tmp_path, capsys):
    cache = tmp_path / "foreign.cache"
    cache.write_bytes(b"cnosuchmodule\nthing\n.")
    with pytest.raises(GazetteerError, match="nosuchmodule.thing"):
        load_cache(str(cache))
    pred = tmp_path / "p.pred"
    pred.write_text("doc1\t0\t5\tParis\tLocation\t48.8\t2.3\n", encoding="utf-8")
    assert cli.main(["align", "--pred", str(pred), "--cache", str(cache), "--out", str(tmp_path / "o")]) == 1
    assert "Traceback" not in capsys.readouterr().err


class _RemoveOnLoad:
    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (os.remove, (self.path,))


def test_cache_calling_a_foreign_function_runs_nothing(tmp_path):
    target = tmp_path / "keep.txt"
    target.write_text("still here", encoding="utf-8")
    cache = tmp_path / "hostile.cache"
    cache.write_bytes(pickle.dumps({"format_version": gazetteer.CACHE_FORMAT_VERSION,
                                    "index": _RemoveOnLoad(str(target))}))
    with pytest.raises(GazetteerError, match="not allowed"):
        load_cache(str(cache))
    assert target.read_text(encoding="utf-8") == "still here"


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
