import pytest

from geoeval import gazetteer


def geonames_line(
    entry_id: int,
    name: str,
    lat: float,
    lon: float,
    feature_class: str = "P",
    feature_code: str = "PPL",
    country: str = "US",
    population: int = 0,
    alternates: str = "",
) -> str:
    """One 19-column Geonames main-table record."""
    fields = [
        str(entry_id),
        name,
        name,  # asciiname
        alternates,
        str(lat),
        str(lon),
        feature_class,
        feature_code,
        country,
        "",  # cc2
        "",  # admin1
        "",  # admin2
        "",  # admin3
        "",  # admin4
        str(population),
        "",  # elevation
        "",  # dem
        "Etc/UTC",
        "2018-04-01",
    ]
    return "\t".join(fields)


TOY_DUMP_LINES = [
    geonames_line(1001, "Melbourne", -37.8136, 144.9631, "P", "PPLA", "AU", 4_000_000),
    geonames_line(1002, "Melbourne", 28.0836, -80.6081, "P", "PPL", "US", 80_000),
    geonames_line(1003, "Springfield", 42.1015, -72.5898, "P", "PPL", "US", 153_060),
    geonames_line(1004, "Paris", 48.8566, 2.3522, "P", "PPLC", "FR", 2_138_551),
    geonames_line(1005, "London", 51.5074, -0.1278, "P", "PPLC", "GB", 8_961_989),
    geonames_line(1006, "Vancouver", 49.2827, -123.1207, "P", "PPLA", "CA", 631_486),
    geonames_line(1007, "Vancouver", 45.6387, -122.6615, "P", "PPL", "US", 175_673),
    geonames_line(1008, "Nice", 43.7102, 7.2620, "P", "PPLA", "FR", 342_522),
    geonames_line(
        1009, "Russia", 61.524, 105.3188, "A", "PCLI", "RU", 144_478_050,
        alternates="Russian Federation",
    ),
    geonames_line(1010, "Waldo", 44.5184, -69.0767, "P", "PPL", "US", 800),
    geonames_line(1011, "Waldo County Jail", 44.4259, -69.0064, "S", "BLDG", "US", 0),
    geonames_line(1012, "Maine", 45.5, -69.25, "A", "ADM1", "US", 1_338_404),
    geonames_line(1013, "Münster", 51.9625, 7.6256, "P", "PPLA2", "DE", 270_184),
    geonames_line(1014, "Sudan", 16.0, 30.0, "A", "PCLI", "SD", 41_801_533),
]


@pytest.fixture(scope="session")
def toy_index() -> gazetteer.GazetteerIndex:
    # A version of the shape dump_checksum writes, so that a saved copy loads.
    return gazetteer.ingest(TOY_DUMP_LINES, version="sha256:0123456789abcdef")


def write_brat_doc(directory, doc_id: str, text: str, ann: str) -> None:
    (directory / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    (directory / f"{doc_id}.ann").write_text(ann, encoding="utf-8")
