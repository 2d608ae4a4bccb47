import io
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from geoeval.corpus import Document, PredictionRecord, ToponymAnnotation, apply_exclusion_policy
from geoeval.gazetteer import ingest
from geoeval.geodesy import Coordinate, great_circle_distance
from geoeval.resolver import (
    align_to_gazetteer,
    load_lexicon,
    load_lexicon_path,
    resolve_population,
    run_baseline,
)
from geoeval.tagger import DEFAULT_BLOCKLIST, gazetteer_tag, oracle_spans
from geoeval.taxonomy import TaxonomyType

from conftest import geonames_line


def _rec(surface, doc_id="d", start=0, end=None, coord=None):
    end = end if end is not None else start + len(surface)
    return PredictionRecord(doc_id=doc_id, start=start, end=end, surface=surface, predicted_coord=coord)


def test_population_picks_most_populous(toy_index):
    result = resolve_population([_rec("Melbourne")], toy_index)
    assert result.n_resolved == 1
    assert result.records[0].predicted_coord == Coordinate(-37.8136, 144.9631)  # AU


def test_population_unknown_surface_unresolved(toy_index):
    result = resolve_population([_rec("Gondor")], toy_index)
    assert result.n_resolved == 0
    assert result.n_unresolved == 1
    assert result.records[0].predicted_coord is None


def test_population_tie_breaks_on_lower_id():
    index = ingest(
        [
            geonames_line(20, "Doppel", 1.0, 1.0, population=999),
            geonames_line(10, "Doppel", 2.0, 2.0, population=999),
        ]
    )
    result = resolve_population([_rec("Doppel")], index)
    assert result.records[0].predicted_coord == Coordinate(2.0, 2.0)  # id 10


def test_population_case_insensitive(toy_index):
    result = resolve_population([_rec("mELBOURNE")], toy_index)
    assert result.n_resolved == 1


def test_populated_only_flag():
    index = ingest(
        [
            geonames_line(1, "Ghosttown", 1.0, 1.0, population=0),
        ]
    )
    assert resolve_population([_rec("Ghosttown")], index).n_resolved == 1
    assert resolve_population([_rec("Ghosttown")], index, populated_only=True).n_resolved == 0


def test_lexicon_normalizes_adjectival_surfaces(toy_index):
    lexicon = load_lexicon(io.StringIO("Russian\tRussia\n# comment\n\nCongolese\tCongo\n"))
    assert lexicon == {"russian": "Russia", "congolese": "Congo"}
    result = resolve_population([_rec("Russian")], toy_index, lexicon=lexicon)
    assert result.n_resolved == 1
    assert result.records[0].predicted_coord == Coordinate(61.524, 105.3188)


def test_lexicon_skips_malformed_lines():
    lexicon = load_lexicon(io.StringIO("good\tGood Town\nbadline\nalso\t\t bad\n"))
    assert lexicon == {"good": "Good Town"}


def test_lexicon_file_with_a_bom_normalizes_its_first_line(tmp_path, toy_index):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes("\ufeffRussian\tRussia\n".encode("utf-8"))
    lexicon = load_lexicon_path(str(path))
    assert lexicon == {"russian": "Russia"}
    assert resolve_population([_rec("Russian")], toy_index, lexicon=lexicon).n_resolved == 1


def test_align_snaps_to_nearest_candidate(toy_index):
    # (49.28, -123.12) is metres from Vancouver CA, ~400 km from Vancouver US.
    rec = _rec("Vancouver", coord=Coordinate(49.28, -123.12))
    result = align_to_gazetteer([rec], toy_index)
    assert result.n_aligned == 1
    assert result.records[0].predicted_coord == Coordinate(49.2827, -123.1207)


def test_align_no_candidate_flagged(toy_index):
    rec = _rec("Gondor", coord=Coordinate(0, 0))
    result = align_to_gazetteer([rec], toy_index)
    assert result.n_aligned == 0
    assert result.flagged == [0]
    assert result.records[0].predicted_coord == Coordinate(0, 0)


def test_align_exact_hit_stays(toy_index):
    rec = _rec("Paris", coord=Coordinate(48.8566, 2.3522))
    result = align_to_gazetteer([rec], toy_index)
    assert result.records[0].predicted_coord == Coordinate(48.8566, 2.3522)


def test_align_record_without_coord_flagged(toy_index):
    result = align_to_gazetteer([_rec("Paris")], toy_index)
    assert result.flagged == [0]


def test_resolution_deterministic(toy_index):
    records = [_rec("Melbourne"), _rec("Gondor"), _rec("Paris")]
    first = resolve_population(records, toy_index)
    second = resolve_population(records, toy_index)
    assert first.records == second.records


# Randomised equivalence against brute-force scans.

_NAMES = ["Aa", "Bb", "Cc", "Dd", "Ee"]


def _random_fixture(rng):
    n = rng.randrange(1, 20)
    lines = []
    rows = []
    for i in range(n):
        name = rng.choice(_NAMES)
        pop = rng.randrange(0, 10**6)
        lat = rng.uniform(-80, 80)
        lon = rng.uniform(-170, 170)
        rows.append((i + 1, name, lat, lon, pop))
        lines.append(geonames_line(i + 1, name, lat, lon, population=pop))
    return ingest(lines), rows


def test_population_matches_brute_force_on_random_fixtures():
    rng = random.Random(20240408)
    for _ in range(200):
        index, rows = _random_fixture(rng)
        surface = rng.choice(_NAMES)
        result = resolve_population([_rec(surface)], index)
        matches = [r for r in rows if r[1].casefold() == surface.casefold()]
        if not matches:
            assert result.n_resolved == 0
            continue
        best = min(matches, key=lambda r: (-r[4], r[0]))
        assert result.records[0].predicted_coord == Coordinate(best[2], best[3])


def test_align_matches_brute_force_on_random_fixtures():
    rng = random.Random(11)
    for _ in range(200):
        index, rows = _random_fixture(rng)
        surface = rng.choice(_NAMES)
        coord = Coordinate(rng.uniform(-80, 80), rng.uniform(-170, 170))
        result = align_to_gazetteer([_rec(surface, coord=coord)], index)
        matches = [r for r in rows if r[1].casefold() == surface.casefold()]
        if not matches:
            assert result.flagged == [0]
            continue
        best = min(
            matches,
            key=lambda r: (great_circle_distance(Coordinate(r[2], r[3]), coord), r[0]),
        )
        assert result.records[0].predicted_coord == Coordinate(best[2], best[3])


@given(data=st.data())
@settings(max_examples=100)
def test_align_never_increases_distance_to_nearest(data):
    rows = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(_NAMES),
                st.integers(0, 10**6),
                st.floats(-80, 80),
                st.floats(-170, 170),
            ),
            min_size=1,
            max_size=15,
        )
    )
    index = ingest(
        [
            geonames_line(i + 1, name, lat, lon, population=pop)
            for i, (name, pop, lat, lon) in enumerate(rows)
        ]
    )
    surface = data.draw(st.sampled_from(_NAMES))
    coord = Coordinate(data.draw(st.floats(-80, 80)), data.draw(st.floats(-170, 170)))
    result = align_to_gazetteer([_rec(surface, coord=coord)], index)
    candidates = index.lookup(surface)
    if candidates:
        aligned = result.records[0].predicted_coord
        # Post-alignment coordinates exist in the gazetteer.
        assert any(c.coord == aligned for c in candidates)
        nearest = min(great_circle_distance(c.coord, coord) for c in candidates)
        assert great_circle_distance(aligned, coord) <= nearest + 1e-9


def test_run_baseline_is_exclusion_then_a_tagger_then_resolution(toy_index):
    text = "Paris and Nice met Russian Melbourne. FacHall shut."

    def ann(surface, gazetteer_id):
        start = text.index(surface)
        return ToponymAnnotation(start=start, end=start + len(surface), surface=surface,
                                 toponym_type=TaxonomyType.LITERAL, gazetteer_id=gazetteer_id)
    # FacHall's dangling id is excluded, so neither tagger sees it as gold.
    docs = [Document("d", text, [ann("Paris", 1004), ann("Melbourne", 1001), ann("FacHall", 999777)])]
    lexicon = {"russian": "Melbourne"}
    for oracle, blocklist, max_ngram, populated_only in [
        (True, DEFAULT_BLOCKLIST, 4, False),
        (False, DEFAULT_BLOCKLIST, 4, False),
        (False, frozenset(), 1, True),  # "Nice" is tagged only without the default blocklist
    ]:
        result, excl = run_baseline(docs, toy_index, oracle, blocklist, lexicon, max_ngram, populated_only)
        assert excl == apply_exclusion_policy(docs, toy_index)
        assert [a.surface for _, a in excl.kept] == ["Paris", "Melbourne"]
        tagged = oracle_spans(excl.kept) if oracle else gazetteer_tag(docs[0], toy_index, blocklist, max_ngram)
        assert result == resolve_population(tagged, toy_index, lexicon=lexicon, populated_only=populated_only)
        assert ("Nice" in [r.surface for r in result.records]) == (blocklist == frozenset())
