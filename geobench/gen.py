"""Seeded input generator for the geoeval benchmark.

Everything the program reads is written here from a seed: a Geonames-format
dump, BRAT gold corpora, prediction files and a normalization lexicon. The
generator also writes `manifest.json`, which holds the values it planted
(ingest counts, tagger spans, population picks, aligned coordinates, test
sizes). The checks compare the program's outputs against those values only.

Shape of the gazetteer (the property the tagger and aligner are most
sensitive to): a Zipf head in which the name of rank r has head/r
same-name candidates (the largest has `head`, about 2,000, as the most
common real Geonames names do) and a long tail of unique names. Same-name
candidates sit in distinct cells of a 4-degree grid between 56S and 56N,
with distinct populations, so that the most populous candidate and the
nearest candidate to a point jittered by at most 0.1 degree are both
unambiguous, and any two same-name candidates are more than 161 km apart.

The generator imports nothing from geoeval and nothing from the tests.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# Row counts and corpus sizes per scale. "full" is what the benchmark
# measures; "tiny" keeps the smoke test fast.
SCALES = {
    "full": {
        "ingest": {"rows": 60_000, "head": 2_000, "lookups": 12_000},
        "baseline": {"rows": 40_000, "head": 2_000, "docs": 350, "sentences": (14, 22)},
        "compare": {
            "rows": 40_000,
            "head": 2_000,
            "doc_spans": (1_400, 500, 200, 150, 120, 100, 80, 60, 50, 40),
            "expressions_per_doc": 25,
        },
    },
    "tiny": {
        "ingest": {"rows": 1_500, "head": 60, "lookups": 300},
        "baseline": {"rows": 1_500, "head": 60, "docs": 12, "sentences": (4, 6)},
        "compare": {
            "rows": 1_500,
            "head": 60,
            "doc_spans": (60, 30, 20, 20, 15, 10),
            "expressions_per_doc": 4,
        },
    },
}

FEATURE_CLASSES = ["A", "P"]
FILTERED_CLASSES = ["H", "T", "S"]

MALFORMED_SHARE = 0.005
DUPLICATE_SHARE = 0.003
FILTERED_SHARE = 0.05
ALTERNATE_SHARE = 0.2

# The dictionary tagger's default blocklist. Generated names avoid all of
# it, so every planted name mention is tagged.
TAGGER_BLOCKLIST = frozenset(
    """
    a an and are as at bath be best bill buffalo but by can come cook date
    deal derby early face fair for from had has have he her his home hope
    how i in industry is it its jobs male man march may mobile most much
    nice no normal not of on or over page police read reading sale says
    she so split sun that the their they this to union was we were why
    will with york young
    """.split()
)

# Blocklisted words that are also planted gazetteer names, so the
# blocklist, not a failed lookup, is what keeps them untagged.
BLOCKED_HOMONYMS = ("nice", "mobile", "reading", "bath", "split", "buffalo")

FILLER = tuple(
    """
    the of and to in a is that for it as was with be by on not he this are or
    his from at which but have an they you were her she there been one all we
    their has would when who will more if no out so said what up its about
    into than them can only other new some could time these two may then do
    first any my now such like our over man me even most made after also did
    many before must through back years where much your way well down should
    because each just those people how too little state good very make world
    still own see men work long get here between both life being under never
    day same another know while last might us great old year off come since
    against go came right used take three council market river bridge harbour
    report police office weekend morning evening road village county north
    south east west minister officials residents travel trade talks plan
    """.split()
)

_SYLLABLES = (
    "ka lo ri ma ven dor til sa bre mun zo pa le qui tor an el vi nor sel "
    "gra po fen du ko mar lis ber cha nu ost ib ra tek wen ul ga ros hil "
    "fa so ne jor val mi dre to kus ar pe lan shu bo vor im ta ges rin "
    "zu hal ek fi"
).split()

GRID_LATS = [-56.0 + 4.0 * i for i in range(29)]
GRID_LONS = [-178.0 + 4.0 * j for j in range(90)]
JITTER_DEG = 0.1
OFFSET_DEG = 0.2

# Rows written per malformed kind, cycled: each is rejected by a different
# rule of the Geonames row parser.
MALFORMED_KINDS = ("short", "bad_id", "bad_lat", "lat_range", "neg_pop", "empty_name")


def geonames_row(
    entry_id,
    name: str,
    lat: str,
    lon: str,
    feature_class: str,
    population: int,
    alternates=(),
    country: str = "ZZ",
) -> str:
    """One 19-column Geonames main-table record, tab-separated."""
    fields = [
        str(entry_id),
        name,
        name,
        ",".join(alternates),
        lat,
        lon,
        feature_class,
        "PPL" if feature_class == "P" else "ADM1",
        country,
        "", "", "", "", "",
        str(population),
        "", "",
        "Etc/UTC",
        "2018-04-01",
    ]
    return "\t".join(fields)


class Words:
    """Fresh capitalised pseudo-words, distinct after case-folding.

    None equals a filler word, so filler n-grams never hit the gazetteer,
    and none is blocklisted, so every planted name mention is tagged.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set(FILLER) | TAGGER_BLOCKLIST

    def fresh(self) -> str:
        while True:
            n = 2 if self.rng.random() < 0.4 else 3
            word = "".join(self.rng.choice(_SYLLABLES) for _ in range(n))
            if word not in self.used:
                self.used.add(word)
                return word.capitalize()

    def name(self) -> str:
        if self.rng.random() < 0.15:
            return f"{self.fresh()} {self.fresh()}"
        return self.fresh()


def _coord_str(value: float) -> str:
    return f"{value:.4f}"


class Gazetteer:
    """The planted gazetteer: what the dump says, and what ingest must keep."""

    def __init__(self, rng: random.Random, words: Words, rows: int, head: int):
        self.entries: dict[int, dict] = {}      # id -> entry fields (valid rows)
        self.by_name: dict[str, list[int]] = {}  # canonical name -> ids
        self.head_names: list[str] = []          # by rank, most candidates first
        self.filtered: list[tuple[int, str]] = []
        ids = iter(rng.sample(range(1_000_000, 9_999_999), rows + 16))

        n_malformed = max(len(MALFORMED_KINDS), int(rows * MALFORMED_SHARE))
        n_duplicate = max(2, int(rows * DUPLICATE_SHARE))
        n_filtered = max(3, int(rows * FILTERED_SHARE))
        n_valid = rows - n_malformed - n_duplicate - n_filtered

        valid_lines: list[tuple[int, str]] = []

        def add(name: str, coords: tuple[str, str], population: int, alternates=()) -> int:
            entry_id = next(ids)
            cls = rng.choice(FEATURE_CLASSES)
            self.entries[entry_id] = {
                "name": name, "lat": coords[0], "lon": coords[1], "population": population,
            }
            self.by_name.setdefault(name, []).append(entry_id)
            valid_lines.append(
                (entry_id, geonames_row(entry_id, name, coords[0], coords[1], cls, population, alternates))
            )
            return entry_id

        def grid_coords(count: int) -> list[tuple[str, str]]:
            cells = rng.sample(range(len(GRID_LATS) * len(GRID_LONS)), count)
            out = []
            for cell in cells:
                lat = GRID_LATS[cell // len(GRID_LONS)] + rng.uniform(-OFFSET_DEG, OFFSET_DEG)
                lon = GRID_LONS[cell % len(GRID_LONS)] + rng.uniform(-OFFSET_DEG, OFFSET_DEG)
                out.append((_coord_str(lat), _coord_str(lon)))
            return out

        def add_name(name: str, count: int, alt_share: float = 0.0) -> None:
            populations = rng.sample(range(1, 20_000_000), count)
            for coords, population in zip(grid_coords(count), populations):
                alternates = [words.fresh() for _ in range(rng.randint(1, 2))] if rng.random() < alt_share else []
                add(name, coords, population, alternates)

        budget = n_valid
        for homonym in BLOCKED_HOMONYMS:
            add_name(homonym.capitalize(), 2)
            budget -= 2
        rank = 1
        while head // rank >= 2 and budget > head // rank:
            name = words.name()
            self.head_names.append(name)
            add_name(name, head // rank, alt_share=0.1)
            budget -= head // rank
            rank += 1
        self.unique_names: list[str] = []
        for _ in range(budget):
            name = words.name()
            self.unique_names.append(name)
            add_name(name, 1, alt_share=ALTERNATE_SHARE)

        for i in range(n_filtered):
            entry_id = next(ids)
            name = words.name()
            self.filtered.append((entry_id, name))
            valid_lines.append(
                (entry_id, geonames_row(entry_id, name, "10.0000", "10.0000", FILTERED_CLASSES[i % 3], 5))
            )
        malformed = []
        for i in range(n_malformed):
            kind = MALFORMED_KINDS[i % len(MALFORMED_KINDS)]
            row = geonames_row(next(ids), words.name(), "1.0000", "2.0000", "P", 7).split("\t")
            if kind == "short":
                row = row[:10]
            elif kind == "bad_id":
                row[0] = "x" + row[0]
            elif kind == "bad_lat":
                row[4] = "north"
            elif kind == "lat_range":
                row[4] = "95.0000"
            elif kind == "neg_pop":
                row[14] = "-5"
            else:
                row[1] = ""
            malformed.append((0, "\t".join(row)))

        lines = valid_lines + malformed
        rng.shuffle(lines)
        # A duplicate id repeats a valid entry's id after it, so ingest keeps
        # the first row and counts the second as skipped.
        position = {eid: i for i, (eid, _) in enumerate(lines) if eid}
        after: dict[int, list[str]] = {}
        for dup_id in rng.sample(sorted(self.entries), n_duplicate):
            row = geonames_row(dup_id, words.name(), "3.0000", "4.0000", "P", 9)
            after.setdefault(rng.randint(position[dup_id], len(lines) - 1), []).append(row)
        self.lines = []
        for i, (_, line) in enumerate(lines):
            self.lines.append(line)
            self.lines.extend(after.get(i, ()))
        self.summary = {"ingested": n_valid, "skipped": n_malformed + n_duplicate, "filtered": n_filtered}
        self.counts = {
            "rows": rows, "malformed": n_malformed, "duplicates": n_duplicate, "filtered": n_filtered,
        }

    def top(self, name: str) -> int:
        """The most populous candidate (populations are distinct per name)."""
        return max(self.by_name[name], key=lambda i: self.entries[i]["population"])

    def coords(self, entry_id: int) -> list[str]:
        entry = self.entries[entry_id]
        return [entry["lat"], entry["lon"]]

    def properties(self) -> dict:
        sizes = sorted((len(ids) for ids in self.by_name.values()), reverse=True)
        valid = self.summary["ingested"]
        return {
            **self.counts,
            "valid": valid,
            "distinct_names": len(self.by_name),
            "largest_candidate_list": sizes[0],
            "unique_name_share": round(sum(1 for s in sizes if s == 1) / len(sizes), 4),
            "top10_row_share": round(sum(sizes[:10]) / valid, 4),
            "top100_row_share": round(sum(sizes[:100]) / valid, 4),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + "\n")


class DocText:
    """Accumulates document text while tracking code-point offsets."""

    def __init__(self):
        self.parts: list[str] = []
        self.pos = 0
        self.tokens = 0

    def word(self, text: str) -> tuple[int, int]:
        if self.parts and not self.parts[-1].endswith("\n"):
            self.parts.append(" ")
            self.pos += 1
        start = self.pos
        self.parts.append(text)
        self.pos += len(text)
        self.tokens += len(text.split())
        return start, self.pos

    def end_sentence(self) -> None:
        self.parts.append(".")
        self.pos += 1

    def text(self) -> str:
        return "".join(self.parts) + "\n"


class Ann:
    """BRAT .ann lines for one document."""

    def __init__(self):
        self.lines: list[str] = []
        self.t = self.a = self.n = 0

    def span(self, label: str, start: int, end: int, surface: str) -> str:
        self.t += 1
        self.lines.append(f"T{self.t}\t{label} {start} {end}\t{surface}")
        return f"T{self.t}"

    def attr(self, name: str, tid: str, value: str) -> None:
        self.a += 1
        self.lines.append(f"A{self.a}\t{name} {tid} {value}")

    def norm(self, tid: str, resource: str, entry: str, display: str) -> None:
        self.n += 1
        self.lines.append(f"N{self.n}\tReference {tid} {resource}:{entry}\t{display}")

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def _write_doc(gold_dir: str, doc_id: str, doc: DocText, ann: Ann) -> None:
    with open(os.path.join(gold_dir, doc_id + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(doc.text())
    with open(os.path.join(gold_dir, doc_id + ".ann"), "w", encoding="utf-8") as fh:
        fh.write(ann.text())


def _zipf_picker(rng: random.Random, n: int):
    cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, n + 1)))
    population = list(range(n))

    def pick() -> int:
        return rng.choices(population, cum_weights=cum_weights)[0]

    return pick


def gen_ingest(rng: random.Random, words: Words, out: str, cfg: dict) -> dict:
    gaz = Gazetteer(rng, words, cfg["rows"], cfg["head"])
    gaz.write(os.path.join(out, "dump.tsv"))
    top = gaz.head_names[:100]
    lookups = []
    for i in range(cfg["lookups"]):
        if i % 10 < 7:
            name = rng.choice(top)
            query = name.lower() if i % 2 else name.upper()
            lookups.append([query, len(gaz.by_name[name]), gaz.top(name)])
        else:
            lookups.append([words.fresh().lower(), 0, None])
    with open(os.path.join(out, "lookups.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(query + "\n" for query, _, _ in lookups)
    return {
        "gazetteer": gaz.properties(),
        "expected": {"summary": gaz.summary, "lookups": lookups},
    }


def _key(doc_id: str, start: int, end: int) -> str:
    return f"{doc_id}:{start}:{end}"


def gen_baseline(rng: random.Random, words: Words, out: str, cfg: dict) -> dict:
    """Many short news-like documents over a head-heavy mention mix.

    Slot kinds and the outcome each one plants:
      mention    head name, annotated and linked         -> tagger tp
      alias      unique name mapped by the lexicon       -> tagger tp, picks the head's top
      stray      head name, not annotated                -> tagger fp
      blocked    capitalised blocklisted homonym, linked -> kept gold, tagger fn
      homonym    lower-case blocklisted homonym          -> nothing
      demonym    Demonym/Homonym with no link or coord   -> excluded, non-locational
      facility   Literal with no link                    -> excluded, not in gazetteer
      dangling   Literal linked to a filtered row        -> excluded, not in gazetteer
    """
    gaz = Gazetteer(rng, words, cfg["rows"], cfg["head"])
    gaz.write(os.path.join(out, "dump.tsv"))
    gold_dir = os.path.join(out, "gold")
    os.makedirs(gold_dir)

    head = gaz.head_names
    pick_head = _zipf_picker(rng, len(head))
    aliases = {}
    for name in rng.sample(gaz.unique_names, 20):
        aliases[name] = rng.choice(head[:50])
    alias_names = list(aliases)
    with open(os.path.join(out, "lexicon.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# surface\tcanonical\n")
        for alias, target in aliases.items():
            fh.write(f"{alias}\t{target}\n")
        for _ in range(10):
            fh.write(f"{words.fresh()}\t{rng.choice(head)}\n")

    kinds = ["mention"] * 30 + ["alias", "stray", "stray", "blocked", "homonym", "demonym", "facility", "dangling"]
    tagger_spans: list[list] = []
    picks: dict[str, list[str]] = {}
    counts = dict.fromkeys(["tp", "fp", "fn", "correct_pick", "non_locational", "not_in_gazetteer", "tokens", "spans"], 0)
    lo, hi = cfg["sentences"]
    for d in range(cfg["docs"]):
        doc_id = f"news{d:05d}"
        doc, ann = DocText(), Ann()
        for _ in range(rng.randint(lo, hi)):
            special_next = False
            for _ in range(rng.randint(10, 18)):
                if special_next or rng.random() > 0.16:
                    doc.word(rng.choice(FILLER))
                    special_next = False
                    continue
                special_next = True
                kind = rng.choice(kinds)
                if kind in ("mention", "stray"):
                    name = head[pick_head()]
                    start, end = doc.word(name)
                    tagger_spans.append([doc_id, start, end])
                    picks[_key(doc_id, start, end)] = gaz.coords(gaz.top(name))
                    if kind == "stray":
                        counts["fp"] += 1
                        continue
                    ids = gaz.by_name[name]
                    gold_id = gaz.top(name) if rng.random() < 0.7 else rng.choice(ids)
                    tid = ann.span("Literal", start, end, name)
                    ann.norm(tid, "Geonames", str(gold_id), name)
                    counts["tp"] += 1
                    counts["correct_pick"] += gold_id == gaz.top(name)
                elif kind == "alias":
                    alias = rng.choice(alias_names)
                    start, end = doc.word(alias)
                    target_top = gaz.top(aliases[alias])
                    tagger_spans.append([doc_id, start, end])
                    picks[_key(doc_id, start, end)] = gaz.coords(target_top)
                    tid = ann.span("Literal", start, end, alias)
                    ann.norm(tid, "Geonames", str(target_top), alias)
                    counts["tp"] += 1
                    counts["correct_pick"] += 1
                elif kind == "blocked":
                    name = rng.choice(BLOCKED_HOMONYMS).capitalize()
                    start, end = doc.word(name)
                    tid = ann.span("Literal", start, end, name)
                    ann.norm(tid, "Geonames", str(gaz.by_name[name][0]), name)
                    counts["fn"] += 1
                elif kind == "homonym":
                    doc.word(rng.choice(BLOCKED_HOMONYMS))
                elif kind == "demonym":
                    surface = words.fresh()
                    start, end = doc.word(surface)
                    ann.span(rng.choice(["Demonym", "Homonym"]), start, end, surface)
                    counts["non_locational"] += 1
                elif kind == "facility":
                    surface = f"{words.fresh()} {words.fresh()}"
                    start, end = doc.word(surface)
                    ann.span("Literal", start, end, surface)
                    counts["not_in_gazetteer"] += 1
                else:
                    entry_id, surface = rng.choice(gaz.filtered)
                    start, end = doc.word(surface)
                    tid = ann.span("Literal", start, end, surface)
                    ann.norm(tid, "Geonames", str(entry_id), surface)
                    counts["not_in_gazetteer"] += 1
            doc.end_sentence()
        counts["tokens"] += doc.tokens
        counts["spans"] += ann.t
        _write_doc(gold_dir, doc_id, doc, ann)

    return {
        "gazetteer": gaz.properties(),
        "corpus": {
            "documents": cfg["docs"],
            "tokens": counts["tokens"],
            "gold_spans": counts["spans"],
            "spans_per_document": round(counts["spans"] / cfg["docs"], 2),
        },
        "expected": {
            "excluded": {"non-locational type": counts["non_locational"], "not in gazetteer": counts["not_in_gazetteer"]},
            "tagger_spans": tagger_spans,
            "picks": picks,
            "tp": counts["tp"], "fp": counts["fp"], "fn": counts["fn"],
            "correct_pick": counts["correct_pick"],
        },
    }


def _pred_line(doc_id: str, start: int, end: int, surface: str, lat: str, lon: str) -> str:
    return f"{doc_id}\t{start}\t{end}\t{surface}\tLocation\t{lat}\t{lon}\n"


def gen_compare(rng: random.Random, words: Words, out: str, cfg: dict) -> dict:
    """Few long documents; system A is an oracle, system B a foreign geocoder.

    A copies every gold span and predicts the most populous candidate. B
    covers 85% of gold spans with offsets shifted by one character (so only
    overlap matching pairs them), predicts the gold entry's coordinates
    jittered by up to 0.1 degree (so alignment restores them exactly), adds
    spurious spans on filler words with unknown surfaces (flagged by
    alignment, false positives in matching) and a few malformed lines.
    """
    gaz = Gazetteer(rng, words, cfg["rows"], cfg["head"])
    gaz.write(os.path.join(out, "dump.tsv"))
    gold_dir = os.path.join(out, "gold")
    os.makedirs(gold_dir)
    head = gaz.head_names
    pick_head = _zipf_picker(rng, len(head))

    lines_a: list[str] = []
    lines_b: list[str] = []
    aligned: dict[str, list[str]] = {}
    per_doc: dict[str, list[int]] = {}  # doc -> [gold, b_tp, b_fp]
    gold_x_pred = 0
    wilcoxon_n = 0
    literal_surfaces: set[str] = set()
    associative_surfaces: set[str] = set()
    head_surfaces = {"LiteralExpression": set(), "AssociativeExpression": set()}
    context_kinds: list[str] = []
    n_tokens = 0
    n_malformed = 0

    for d, n_spans in enumerate(cfg["doc_spans"]):
        doc_id = f"long{d:03d}"
        doc, ann = DocText(), Ann()
        b_tp = b_fp = 0
        placed = 0
        expressions_left = cfg["expressions_per_doc"]
        while placed < n_spans:
            for _ in range(rng.randint(2, 5)):
                doc.word(rng.choice(FILLER))
                if placed >= n_spans:
                    break
                doc.word(rng.choice(FILLER))
                name = head[pick_head()]
                start, end = doc.word(name)
                placed += 1
                gold_id = gaz.top(name) if rng.random() < 0.6 else rng.choice(gaz.by_name[name])
                label = "Metonymy" if rng.random() < 0.15 else "Literal"
                (associative_surfaces if label == "Metonymy" else literal_surfaces).add(name)
                tid = ann.span(label, start, end, name)
                ann.norm(tid, "Geonames", str(gold_id), name)
                lat, lon = gaz.coords(gold_id)
                ann.norm(tid, "Coordinates", f"{lat},{lon}", name)
                lines_a.append(_pred_line(doc_id, start, end, name, *gaz.coords(gaz.top(name))))
                if rng.random() < 0.85:
                    jlat = float(lat) + rng.uniform(-JITTER_DEG, JITTER_DEG)
                    jlon = float(lon) + rng.uniform(-JITTER_DEG, JITTER_DEG)
                    lines_b.append(_pred_line(doc_id, start + 1, end + 1, name, f"{jlat:.6f}", f"{jlon:.6f}"))
                    aligned[_key(doc_id, start + 1, end + 1)] = [lat, lon]
                    b_tp += 1
                    wilcoxon_n += gold_id != gaz.top(name)
                doc.word(rng.choice(FILLER))
            if rng.random() < 0.1:
                start, end = doc.word(rng.choice(FILLER))
                lines_b.append(_pred_line(doc_id, start, end, words.fresh(), "1.500000", "2.500000"))
                b_fp += 1
            if expressions_left and rng.random() < 0.3:
                expressions_left -= 1
                start, _ = doc.word(rng.choice(FILLER))
                _, end = doc.word(rng.choice(FILLER))
                surface = doc.text()[start:end]
                label = rng.choice(["LiteralExpression", "AssociativeExpression"])
                tid = ann.span(label, start, end, surface)
                head_kind = label
                if rng.random() < 0.5:
                    non_locational = rng.random() < 0.5
                    ann.attr("non_locational", tid, str(non_locational))
                    head_kind = "AssociativeExpression" if non_locational else "LiteralExpression"
                head_surfaces[head_kind].add(surface)
                context_kinds.append(label)
            doc.end_sentence()
        if d < 3:
            lines_b.append(f"{doc_id}\t5\tbroken line\n")
            lines_b.append(f"{doc_id}\tx\t9\tKalo\tLocation\t1.0\t2.0\n")
            n_malformed += 2
        n_tokens += doc.tokens
        per_doc[doc_id] = [n_spans, b_tp, b_fp]
        gold_x_pred += n_spans * n_spans + n_spans * (b_tp + b_fp)
        _write_doc(gold_dir, doc_id, doc, ann)

    with open(os.path.join(out, "pred_a.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines_a)
    with open(os.path.join(out, "pred_b.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(lines_b)

    pool = {
        "LiteralExpression": len(literal_surfaces) + len(head_surfaces["LiteralExpression"]),
        "AssociativeExpression": len(associative_surfaces) + len(head_surfaces["AssociativeExpression"]),
    }
    n_docs = len(cfg["doc_spans"])
    gold_total = sum(cfg["doc_spans"])
    b_fp_total = sum(v[2] for v in per_doc.values())
    return {
        "gazetteer": gaz.properties(),
        "corpus": {
            "documents": n_docs,
            "tokens": n_tokens,
            "gold_spans": gold_total,
            "spans_per_document": round(gold_total / n_docs, 2),
            "largest_document_spans": max(cfg["doc_spans"]),
            "expressions": len(context_kinds),
            "pred_b_malformed": n_malformed,
        },
        "expected": {
            "gold": gold_total,
            "per_doc": per_doc,
            "aligned": aligned,
            "flagged": b_fp_total,
            "b_tp": len(aligned),
            "b_fp": b_fp_total,
            "pred_errors_b": n_malformed,
            "wilcoxon_n": wilcoxon_n,
            "gold_x_pred": gold_x_pred,
            "contexts": len(context_kinds),
            "sentences": sum(min(3, pool[k]) for k in context_kinds),
        },
    }


GENERATORS = {"ingest": gen_ingest, "baseline": gen_baseline, "compare": gen_compare}


def generate(workload: str, seed: int, out: str, scale: str = "full") -> dict:
    """Write the workload's inputs under `out` and return its manifest."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"geobench:{workload}:{seed}")
    manifest = GENERATORS[workload](rng, Words(rng), out, SCALES[scale][workload])
    manifest.update({"workload": workload, "seed": seed, "scale": scale, "feature_classes": FEATURE_CLASSES})
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest
