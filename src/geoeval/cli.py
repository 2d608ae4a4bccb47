"""Operator surface for the evaluation pipeline.

Subcommands mirror the recommended evaluation steps: ingest a gazetteer,
run a baseline tagger/resolver, score geotagging with F-score (McNemar
for paired comparison), score geocoding with accuracy@X km / AUC / mean
error (Wilcoxon for paired comparison), align foreign coordinates, build
cross-validation folds and generate augmented training data.

Exit codes: 0 success, 1 input error, 2 internal error. All randomness
flows from explicit --seed flags.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import reprlib
import sys
import traceback
from typing import Optional, Sequence

from . import augment as augment_mod
from . import corpus, gazetteer, metrics, resolver, stats, tagger
from .geodesy import ascii_number

PROG = "geoeval"


class InputError(Exception):
    """Bad file, flag or data supplied by the operator."""


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as an InputError, so it exits 1 like other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


class _Input(str):
    """The value of a path flag whose file the command reads."""


class _InputDir(_Input):
    """The value of a path flag naming a directory the command reads, files and all."""


class _Output(str):
    """The value of a path flag whose file the command writes."""


class _Config(argparse.Action):
    """--config FILE: each key of the JSON object in FILE sets the default of every subcommand flag so named.

    It precedes the subcommand, so it is applied before any subcommand flag is
    parsed: the command line still overrides it, and a required flag it supplies
    is no longer required. A value goes through each such flag's type as if typed
    ({"k": "2"} gives 2) and must suit every one. Each --config is applied in turn.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        try:
            config = _read_operator_file("config", path, json.load)
        except (ValueError, RecursionError) as exc:  # bad JSON, an over-long integer, too deep a nesting
            raise InputError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError(f"config {path} must be a JSON object")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for key, value in config.items():
            dest = key.replace("-", "_")
            flags = [(p, a) for p in sub.choices.values() for a in p._actions
                     if a.dest == dest and dest != "help"]
            if not flags:
                raise InputError(f"config {path}: unknown key {key!r}")
            if dest == "thresholds" and isinstance(value, list):
                value = ",".join(str(t) for t in value)
            for p, action in flags:
                # An on/off flag takes true or false, any other flag a string or a number.
                if isinstance(value, bool) != (action.nargs == 0) or not isinstance(value, (str, int, float)):
                    raise InputError(f"config {path}: bad value {value!r} for {key!r}")
                typed = value
                if action.nargs != 0:
                    try:
                        typed = (action.type or str)(str(value))
                    except (ValueError, argparse.ArgumentTypeError) as exc:
                        raise InputError(f"config {path}: {key!r}: {exc}") from exc
                    if action.choices is not None and typed not in action.choices:
                        raise InputError(f"config {path}: {key!r} must be one of {list(action.choices)}")
                p.set_defaults(**{dest: typed})
                action.required = False  # the config supplies it
        setattr(namespace, self.dest, [*(getattr(namespace, self.dest) or []), path])


def build_parser() -> argparse.ArgumentParser:
    # A path flag's type is its role, so values from --config get it too.
    parser = _Parser(prog=PROG, description=__doc__)
    parser.add_argument("--config", type=_Input, action=_Config,
                        help="JSON file with default values for any subcommand's flags (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build and cache a gazetteer index")
    p.add_argument("--dump", required=True, type=_Input, help="Geonames-format tab-separated dump")
    p.add_argument("--cache", required=True, type=_Output, help="binary cache file to write/reuse")
    p.add_argument("--feature-classes", type=_feature_classes,
                   help="comma-separated feature classes to keep (default all)")
    p.set_defaults(func=cmd_ingest)

    for command, summary, test in [
        ("eval-tagging", "score span extraction with precision/recall/F", "McNemar"),
        ("eval-geocoding", "score resolution with acc@X km, AUC, mean error", "Wilcoxon"),
    ]:
        p = sub.add_parser(command, help=summary)
        p.add_argument("--gold", required=True, type=_InputDir, help="directory of BRAT .txt/.ann pairs")
        p.add_argument("--pred", required=True, type=_Input, help="prediction file")
        p.add_argument("--pred-b", type=_Input, help=f"second prediction file: adds a {test} comparison")
        if command == "eval-geocoding":
            p.add_argument("--thresholds", type=_thresholds, default=f"{metrics.DEFAULT_THRESHOLD_KM:g}",
                           help="comma-separated km thresholds (default %(default)s)")
        p.add_argument("--mode", choices=["exact", "overlap"], default="exact")
        p.add_argument("--cache", type=_Input,
                       help="gazetteer cache; enables the exclusion policy and gold coordinate fill")
        p.add_argument("--out", required=True, type=_Output, help="report file to write")
        p.add_argument("--csv", type=_Output, help="CSV file to append a summary row to")
        p.add_argument("--dataset-id", help="dataset id in the report (default the --gold directory's name)")
        p.add_argument("--lenient", action="store_true", help="skip malformed prediction lines")
        p.set_defaults(func=_evaluate)

    p = sub.add_parser("baseline", help="run a baseline tagger plus the population resolver")
    p.add_argument("--gold", required=True, type=_InputDir)
    p.add_argument("--cache", required=True, type=_Input, help="gazetteer cache built by ingest")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--oracle-ner", dest="ner", action="store_const", const="oracle",
                      help="copy gold spans (post-exclusion)")
    mode.add_argument("--dictionary-ner", dest="ner", action="store_const", const="dictionary",
                      help="gazetteer n-gram tagger")
    p.add_argument("--lexicon", type=_Input, help="normalization lexicon (surface<TAB>canonical)")
    p.add_argument("--blocklist", type=_Input, help="file of surfaces to suppress, one per line")
    p.add_argument("--max-ngram", type=_integer, default=tagger.DEFAULT_MAX_NGRAM)
    p.add_argument("--populated-only", action="store_true")
    p.add_argument("--out", required=True, type=_Output, help="prediction file to write")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("align", help="snap predicted coordinates to gazetteer entries")
    p.add_argument("--pred", required=True, type=_Input)
    p.add_argument("--cache", required=True, type=_Input)
    p.add_argument("--out", required=True, type=_Output)
    p.add_argument("--lenient", action="store_true")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("folds", help="deal documents into cross-validation folds")
    p.add_argument("--gold", required=True, type=_InputDir)
    p.add_argument("--k", type=_integer, default=5)
    p.add_argument("--seed", type=_integer, default=13)
    p.add_argument("--out", required=True, type=_Output, help="JSON fold plan to write")
    p.set_defaults(func=cmd_folds)

    p = sub.add_parser("augment", help="generate augmented training sentences")
    p.add_argument("--gold", required=True, type=_InputDir)
    p.add_argument("--max-per-source", type=_integer, default=3)
    p.add_argument("--seed", type=_integer, default=13)
    p.add_argument("--out", required=True, type=_Output, help="token/tag column file to write")
    p.set_defaults(func=cmd_augment)

    return parser


def _thresholds(value: str) -> list[float]:
    """A comma-separated list of finite km thresholds >= 0."""
    try:
        km = [float(ascii_number(t)) for t in value.split(",") if t.strip()]
    except ValueError:
        km = []
    if not km or not all(0 <= t < math.inf for t in km):
        raise argparse.ArgumentTypeError(f"bad value {reprlib.repr(value)}: need finite km thresholds >= 0")
    return [abs(t) for t in km]  # -0 passes the check above: read it as 0


def _integer(value: str) -> int:
    """An integer written in ASCII digits; int() alone also reads "1_3" and "٣"."""
    try:
        return int(ascii_number(value))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {reprlib.repr(value)}: need an integer in ASCII digits") from None


def _feature_classes(value: str) -> set[str]:
    """A comma-separated set of Geonames feature classes, each one of its nine capital letters."""
    classes = {c.strip() for c in value.split(",") if c.strip()}
    if not classes:
        raise argparse.ArgumentTypeError(f"{value!r} names no feature class")
    unknown = ", ".join(map(repr, sorted(classes.difference("AHLPRSTUV"))))
    if unknown:
        raise argparse.ArgumentTypeError(f"{unknown}: Geonames has only the feature classes AHLPRSTUV")
    return classes


def _read_operator_file(what: str, path: str, parse):
    """parse(fh) on the UTF-8 file at `path`; a file that cannot be read or decoded is named."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file, also when it does not exist yet."""
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def _refuse_output_over_input(args: argparse.Namespace) -> None:
    """Refuse an output that is no file in an existing directory, names an input or another output,
    or lies inside an input directory."""
    flags = [("--" + dest.replace("_", "-"), path) for dest, value in vars(args).items()
             for path in (value if isinstance(value, list) else [value])]  # one path per --config given
    inputs = [(flag, path) for flag, path in flags if isinstance(path, _Input)]
    outputs = [(flag, path) for flag, path in flags if isinstance(path, _Output)]
    for k, (out, path) in enumerate(outputs):
        if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"{out} {path} is not a file in an existing directory")
        for first, first_path in outputs[:k]:
            if _same_file(first_path, path):
                raise InputError(f"{first} {first_path} and {out} {path} name one file")
        for flag, inp in inputs:
            real = os.path.realpath(inp)
            if isinstance(inp, _InputDir) and os.path.commonpath([os.path.realpath(path), real]) == real:
                raise InputError(f"{out} {path} would write inside the input {flag} {inp}")
            if _same_file(path, inp):
                raise InputError(f"{out} {path} would write over the input {flag} {inp}")


def _load_gold(path: str) -> list[corpus.Document]:
    if not os.path.isdir(path):
        raise InputError(f"gold directory not found: {path}")
    docs = corpus.load_directory(path)
    if not docs:
        raise InputError(f"no .txt/.ann document pairs under {path}")
    return docs


def _load_predictions(path: str, lenient: bool) -> list[corpus.PredictionRecord]:
    records, errors = _read_operator_file("predictions", path, corpus.load_predictions)
    if errors:
        for err in errors[:10]:
            print(f"{path}:{err.line_no}: {err.message}", file=sys.stderr)
        if not lenient:
            raise InputError(f"{len(errors)} malformed prediction line(s) in {path}; "
                             "use --lenient to skip them")
    return records


def cmd_ingest(args: argparse.Namespace) -> int:
    if not os.path.exists(args.dump):
        raise InputError(f"dump file not found: {args.dump}")
    index, cache_hit = gazetteer.load_or_ingest(args.dump, args.cache, feature_classes=args.feature_classes)
    s = index.summary
    source = "cache hit, dump not re-parsed" if cache_hit else "parsed from dump"
    print(f"gazetteer version: {index.version} ({source})")
    print(f"records: {s.ingested} ingested, {s.skipped} skipped, {s.filtered} filtered")
    return 0


def _evaluate(args: argparse.Namespace) -> int:
    dataset_id = args.dataset_id or os.path.basename(os.path.normpath(args.gold))
    # The report is one "key: value" per line, so a line break would forge a line.
    if dataset_id.splitlines() != [dataset_id]:
        raise InputError(f"dataset id {dataset_id!r} must be one non-empty line")
    docs = _load_gold(args.gold)
    index = gazetteer.load_cache(args.cache) if args.cache else None
    records = _load_predictions(args.pred, args.lenient)
    records_b = _load_predictions(args.pred_b, args.lenient) if args.pred_b else None
    report = metrics.evaluate(
        docs, records, dataset_id, index=index, mode=metrics.MatchMode(args.mode),
        thresholds_km=getattr(args, "thresholds", None), pred_b=records_b,
    )
    for test in report.stat_tests:
        print(metrics.stat_test_line(test))
    sys.stdout.write(metrics.write_report(report, args.out, args.csv))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    if args.ner == "oracle":
        # The oracle tagger copies the gold: it reads no blocklist and forms no n-grams.
        if args.blocklist is not None:
            raise InputError("--blocklist applies to --dictionary-ner only")
        if args.max_ngram != tagger.DEFAULT_MAX_NGRAM:
            raise InputError("--max-ngram applies to --dictionary-ner only")
    docs = _load_gold(args.gold)
    index = gazetteer.load_cache(args.cache)
    blocklist = (_read_operator_file("blocklist", args.blocklist, tagger.load_blocklist)
                 if args.blocklist else tagger.DEFAULT_BLOCKLIST)
    lexicon = _read_operator_file("lexicon", args.lexicon, resolver.load_lexicon) if args.lexicon else None
    result, excl = resolver.run_baseline(
        docs, index, args.ner == "oracle", blocklist, lexicon, args.max_ngram, args.populated_only
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        corpus.write_predictions(result.records, fh)

    total = len(result.records)
    print(f"gold annotations: {len(corpus.gold_spans(docs))} total, {len(excl.kept)} kept")
    print(f"predictions: {total} spans, {result.n_resolved} resolved, {result.n_unresolved} unresolved")
    if total and result.n_resolved / total < metrics.MIN_RESOLVED_FRACTION:
        print(f"warning: resolved fraction {result.n_resolved / total:.0%} below "
              f"{metrics.MIN_RESOLVED_FRACTION:.0%}; geocoding sample may be unrepresentative",
              file=sys.stderr)
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    index = gazetteer.load_cache(args.cache)
    records = _load_predictions(args.pred, args.lenient)
    result = resolver.align_to_gazetteer(records, index)
    with open(args.out, "w", encoding="utf-8") as fh:
        corpus.write_predictions(result.records, fh)
    print(f"aligned {result.n_aligned} of {len(records)} records to gazetteer {index.version}")
    if result.flagged:
        print(f"flagged {len(result.flagged)} records with no same-name candidate")
    return 0


def cmd_folds(args: argparse.Namespace) -> int:
    docs = _load_gold(args.gold)
    plan = stats.make_folds([doc.doc_id for doc in docs], args.k, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(vars(plan), fh, indent=2)
        fh.write("\n")
    sizes = ", ".join(str(len(f)) for f in plan.folds)
    print(f"{len(docs)} documents dealt into {plan.k} folds of sizes [{sizes}] (seed {plan.seed})")
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    docs = _load_gold(args.gold)
    expressions = [expr for doc in docs for expr in doc.expressions]
    if not expressions:
        raise InputError(f"no expression annotations found under {args.gold}")
    sentences = augment_mod.generate_augmented(docs, expressions, args.max_per_source, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        augment_mod.write_tagged(sentences, fh)
    for line in augment_mod.summary_lines(expressions):
        print(line)
    print(f"wrote {len(sentences)} tagged sentences (seed {args.seed})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_output_over_input(args)
        return args.func(args)
    except (InputError, corpus.BratParseError, gazetteer.GazetteerError, OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
