#!/usr/bin/env python3
"""Build a small self-contained demo dataset in a directory (default ./demo_data/).

Produces a Geonames-format gazetteer dump, a BRAT-annotated mini corpus
(including one excluded demonym, one excluded facility and two expression
annotations for augmentation), and a normalization lexicon. Everything is
deterministic; rerunning overwrites the same files.
"""

import argparse
import os

GAZETTEER_ROWS = [
    # id, name, lat, lon, fclass, fcode, country, population, alternates
    (2988507, "Paris", 48.8566, 2.3522, "P", "PPLC", "FR", 2138551, ""),
    (4717560, "Paris", 33.6609, -95.5555, "P", "PPL", "US", 24839, ""),
    (2643743, "London", 51.5074, -0.1278, "P", "PPLC", "GB", 8961989, ""),
    (6058560, "London", 42.9834, -81.2330, "P", "PPL", "CA", 346765, ""),
    (2158177, "Melbourne", -37.8136, 144.9631, "P", "PPLA", "AU", 4000000, ""),
    (4163971, "Melbourne", 28.0836, -80.6081, "P", "PPL", "US", 80000, ""),
    (6173331, "Vancouver", 49.2827, -123.1207, "P", "PPLA", "CA", 631486, ""),
    (5814616, "Vancouver", 45.6387, -122.6615, "P", "PPL", "US", 175673, ""),
    (2990440, "Nice", 43.7102, 7.2620, "P", "PPLA", "FR", 342522, ""),
    (2017370, "Russia", 61.5240, 105.3188, "A", "PCLI", "RU", 144478050, "Russian Federation"),
    (2077456, "Australia", -25.2744, 133.7751, "A", "PCLI", "AU", 24992860, ""),
    (4951788, "Springfield", 42.1015, -72.5898, "P", "PPL", "US", 153060, ""),
    (4950065, "Springfield", 39.7990, -89.6440, "P", "PPLA", "US", 116250, ""),
    (4975802, "Waldo County Jail", 44.4259, -69.0064, "S", "BLDG", "US", 0, ""),
    (4971068, "Maine", 45.5003, -69.2498, "A", "ADM1", "US", 1338404, ""),
]

# (doc_id, text, list of annotation builders)
# Annotation: (surface, brat_type, geonames_id or None, attributes list)
DOCUMENTS = [
    (
        "demo01",
        "Flooding hit Paris overnight. The Russian delegation left early.",
        [
            ("Paris", "Literal", 2988507, []),
            ("Russian", "NonLitModifier", 2017370, ["modifier_type Adjective"]),
        ],
    ),
    (
        "demo02",
        "A Springfield robber escaped from Waldo County Jail in Maine.",
        [
            ("Springfield", "Literal", 4951788, []),
            ("Waldo County Jail", "Coercion", 4975802, []),
            ("Maine", "Literal", 4971068, []),
        ],
    ),
    (
        "demo03",
        "Melbourne beat Vancouver in the final. Australians celebrated all night.",
        [
            ("Melbourne", "Metonymy", 2158177, []),
            ("Vancouver", "Metonymy", 6173331, []),
            ("Australians", "Demonym", None, []),  # no coordinates: excluded
        ],
    ),
    (
        "demo04",
        "The summit opened in London today. Nice hosted the previous one.",
        [
            ("London", "Literal", 2643743, []),
            ("Nice", "Literal", 2990440, []),
        ],
    ),
    (
        "demo05",
        "Crowds gathered at the Grand Arena downtown. The festival starts tomorrow.",
        [
            # Facility missing from the gazetteer: excluded by policy.
            ("Grand Arena", "Coercion", 99999901, []),
        ],
    ),
    (
        "demo06",
        "The concert took place in the city park. The deal was signed by the finance minister.",
        [],
    ),
]

# (doc_id, surface, expression label, non_locational)
EXPRESSIONS = [
    ("demo06", "the city park", "LiteralExpression", "False"),
    ("demo06", "the finance minister", "AssociativeExpression", "True"),
]

LEXICON = [
    ("Russian", "Russia"),
    ("Australians", "Australia"),
    ("Parisian", "Paris"),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="demo_data",
                        help="directory to write the dataset into (default %(default)s)")
    out_dir = parser.parse_args().directory
    gold_dir = os.path.join(out_dir, "gold")
    os.makedirs(gold_dir, exist_ok=True)

    dump_path = os.path.join(out_dir, "gazetteer.tsv")
    with open(dump_path, "w", encoding="utf-8") as fh:
        for gid, name, lat, lon, fclass, fcode, cc, pop, alts in GAZETTEER_ROWS:
            fields = [
                str(gid), name, name, alts, str(lat), str(lon), fclass, fcode,
                cc, "", "", "", "", "", str(pop), "", "", "Etc/UTC", "2018-04-01",
            ]
            fh.write("\t".join(fields) + "\n")
    print(f"wrote {dump_path} ({len(GAZETTEER_ROWS)} records)")

    expr_by_doc = {}
    for doc_id, surface, label, non_loc in EXPRESSIONS:
        expr_by_doc.setdefault(doc_id, []).append((surface, label, non_loc))

    n_annotations = 0
    for doc_id, text, annotations in DOCUMENTS:
        lines = []
        t_id = a_id = n_id = 0
        for surface, brat_type, geonames_id, attributes in annotations:
            start = text.index(surface)
            t_id += 1
            lines.append(f"T{t_id}\t{brat_type} {start} {start + len(surface)}\t{surface}")
            for attribute in attributes:
                a_id += 1
                lines.append(f"A{a_id}\t{attribute.split()[0]} T{t_id} {attribute.split()[1]}")
            if geonames_id is not None:
                n_id += 1
                lines.append(f"N{n_id}\tReference T{t_id} Geonames:{geonames_id}\t{surface}")
            n_annotations += 1
        for surface, label, non_loc in expr_by_doc.get(doc_id, []):
            start = text.index(surface)
            t_id += 1
            lines.append(f"T{t_id}\t{label} {start} {start + len(surface)}\t{surface}")
            a_id += 1
            lines.append(f"A{a_id}\tnon_locational T{t_id} {non_loc}")
        with open(os.path.join(gold_dir, f"{doc_id}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(gold_dir, f"{doc_id}.ann"), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    print(f"wrote {len(DOCUMENTS)} documents, {n_annotations} toponym annotations -> {gold_dir}")

    lexicon_path = os.path.join(out_dir, "lexicon.tsv")
    with open(lexicon_path, "w", encoding="utf-8") as fh:
        for surface, canonical in LEXICON:
            fh.write(f"{surface}\t{canonical}\n")
    print(f"wrote {lexicon_path}")


if __name__ == "__main__":
    main()
