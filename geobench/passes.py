"""One benchmark pass of one workload, in a fresh interpreter.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 geobench/passes.py pass    --workload W --workdir D --trace 0|1
    python3 geobench/passes.py prepare --workload W --workdir D

`pass` times one pass through geoeval's public functions, the ones the CLI
subcommands call, then checks every output against the generator's
manifest and prints one JSON line. `wall_s` runs from the start of this
process's own code, before geoeval is imported, to the end of the last
stage; the checks run after it. With `--trace 1` the pass runs with the
tracer installed and also reports per-layer figures and its spans.

`prepare` is set-up of the run, not of a pass, and is not timed: importing
geoeval compiles its bytecode, and for the eval workloads it builds the
gazetteer cache they open.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer as tracing  # noqa: E402

THRESHOLD_KM = 161.0
FOLDS = 5
MAX_PER_SOURCE = 3
PASS_SEED = 13


class Checker:
    """Counts operations and failures; keeps the first few messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def eq(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self._fail(f"{what}: got {got!r}, want {want!r}")

    def close(self, what: str, got: float, want: float, tol: float = 1e-9) -> None:
        self.attempted += 1
        if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
            self._fail(f"{what}: got {got!r}, want {want!r}")

    def stage_ok(self) -> None:
        self.attempted += 1

    def stage_failed(self, stage: str, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(f"stage {stage} raised {type(exc).__name__}: {exc}")


def _paths(workdir: str) -> dict:
    return {
        "dump": os.path.join(workdir, "dump.tsv"),
        "cache": os.path.join(workdir, "gazetteer.cache"),
        "gold": os.path.join(workdir, "gold"),
        "lexicon": os.path.join(workdir, "lexicon.tsv"),
        "lookups": os.path.join(workdir, "lookups.txt"),
        "pred": os.path.join(workdir, "baseline.pred"),
        "pred_a": os.path.join(workdir, "pred_a.tsv"),
        "pred_b": os.path.join(workdir, "pred_b.tsv"),
        "tagged": os.path.join(workdir, "augmented.tsv"),
        "manifest": os.path.join(workdir, "manifest.json"),
    }


def stages(tracer, checker: Checker):
    """A context-manager factory for the named stages of a pass.

    Each stage is one operation; an exception fails it and ends the pass.
    """

    @contextlib.contextmanager
    def stage(name: str):
        with tracer.stage_span(name):
            try:
                yield
            except Exception as exc:
                checker.stage_failed(name, exc)
                raise
        checker.stage_ok()

    return stage


def pass_ingest(g, p: dict, stage, traced_index):
    classes = set(gen.FEATURE_CLASSES)
    out = {}
    with stage("cache_miss"):
        t = time.perf_counter()
        index, hit = g.gazetteer.load_or_ingest(p["dump"], p["cache"], classes)
        out["setup_s"] = time.perf_counter() - t
        out["miss"] = (vars(index.summary), hit, index.version, len(index))
        del index  # one index alive at a time, as in separate CLI runs
    with stage("cache_hit"):
        index, hit = g.gazetteer.load_or_ingest(p["dump"], p["cache"], classes)
        out["hit"] = (vars(index.summary), hit, index.version, len(index))
        del index
    with stage("load_cache"):
        index = traced_index(g.gazetteer.load_cache(p["cache"]))
        out["load"] = (index.version, len(index))
    with stage("lookups"):
        with open(p["lookups"], encoding="utf-8") as fh:
            queries = fh.read().split("\n")[:-1]
        lookup = index.lookup
        out["lookups"] = [lookup(q) for q in queries]
    return out


def check_ingest(ck: Checker, out: dict, manifest: dict, p: dict) -> None:
    want = manifest["expected"]
    summary, hit, version, size = out["miss"]
    ck.eq("cache miss reported as hit", hit, False)
    ck.eq("cache miss summary", summary, want["summary"])
    ck.eq("cache miss entries", size, want["summary"]["ingested"])
    summary, hit, hit_version, size = out["hit"]
    ck.eq("cache hit reported as miss", hit, True)
    ck.eq("cache hit summary", summary, want["summary"])
    ck.eq("cache hit version", hit_version, version)
    ck.eq("load_cache version and size", list(out["load"]), [version, want["summary"]["ingested"]])
    for result, (query, count, first) in zip(out["lookups"], want["lookups"]):
        ck.eq(f"lookup {query!r}", (len(result), result[0].id if result else None), (count, first))
    ck.eq("lookup results", len(out["lookups"]), len(want["lookups"]))


def pass_baseline(g, p: dict, stage, traced_index):
    out = {}
    with stage("setup"):
        t = time.perf_counter()
        index = g.gazetteer.load_cache(p["cache"])
        docs = g.corpus.load_directory(p["gold"])
        out["setup_s"] = time.perf_counter() - t
    index = traced_index(index)
    with stage("exclusion"):
        excl = g.corpus.apply_exclusion_policy(docs, index)
    with stage("tag"):
        records = []
        for doc in docs:
            records.extend(g.tagger.gazetteer_tag(doc, index))
    with stage("resolve"):
        lexicon = g.resolver.load_lexicon_path(p["lexicon"])
        resolved = g.resolver.resolve_population(records, index, lexicon=lexicon)
    with stage("predictions_io"):
        with open(p["pred"], "w", encoding="utf-8") as fh:
            g.corpus.write_predictions(resolved.records, fh)
        with open(p["pred"], encoding="utf-8") as fh:
            loaded, errors = g.corpus.load_predictions(fh)
    with stage("match_exact"):
        match = g.metrics.match_spans(excl.kept, loaded, g.metrics.MatchMode.EXACT)
    with stage("errors"):
        dist, unresolved = g.metrics.geocoding_errors(match.pairs)
        geocoding = g.metrics.geocoding_metrics(dist, (THRESHOLD_KM,))
    with stage("report"):
        report = g.metrics.EvalReport(
            dataset_id="geobench",
            gazetteer_version=index.version,
            n_gold=len(excl.kept),
            n_predicted=len(loaded),
            n_resolved=dist.n,
            tagging=g.metrics.tagging_metrics(match.counts),
            geocoding=geocoding,
        )
        rendered = g.metrics.render_report(report)
    out.update(
        docs=len(docs), excl=excl, records=records, resolved=resolved, loaded=loaded,
        pred_errors=len(errors), match=match, dist=dist, unresolved=unresolved,
        geocoding=geocoding, rendered=rendered,
    )
    return out


def check_baseline(ck: Checker, out: dict, manifest: dict, p: dict) -> None:
    want = manifest["expected"]
    excluded: dict[str, int] = {}
    for item in out["excl"].excluded:
        excluded[item.reason] = excluded.get(item.reason, 0) + 1
    ck.eq("exclusions by reason", excluded, want["excluded"])
    ck.eq("kept gold", len(out["excl"].kept), want["tp"] + want["fn"])
    got_spans = [(r.doc_id, r.start, r.end) for r in out["records"]]
    want_spans = {tuple(s) for s in want["tagger_spans"]}
    ck.eq("tagger span count", len(got_spans), len(want_spans))
    for span in sorted(want_spans.difference(got_spans)):
        ck.eq(f"planted mention {span} tagged", False, True)
    for span in sorted(set(got_spans) - want_spans):
        ck.eq(f"tagged span {span} planted", False, True)
    ck.eq("resolved", (out["resolved"].n_resolved, out["resolved"].n_unresolved), (len(want_spans), 0))
    ck.eq("prediction read-back", (len(out["loaded"]), out["pred_errors"]), (len(got_spans), 0))
    picks = want["picks"]
    for rec in out["loaded"]:
        lat, lon = picks.get(f"{rec.doc_id}:{rec.start}:{rec.end}", ("nan", "nan"))
        coord = rec.predicted_coord
        ck.eq(f"population pick {rec.doc_id}:{rec.start}", (coord.lat, coord.lon) if coord else None,
              (float(lat), float(lon)))
    counts = out["match"].counts
    ck.eq("exact match tp/fp/fn", (counts.tp, counts.fp, counts.fn), (want["tp"], want["fp"], want["fn"]))
    ck.eq("geocoding errors", (out["dist"].n, out["unresolved"]), (want["tp"], 0))
    ck.close("accuracy@161km", out["geocoding"].accuracy_at_km[THRESHOLD_KM], want["correct_pick"] / want["tp"])
    lines = set(out["rendered"].splitlines())
    for field in ("tp", "fp", "fn"):
        ck.eq(f"report {field}", f"{field}: {want[field]}" in lines, True)


def _gold_key(pair):
    (doc_id, ann), _ = pair
    return (doc_id, ann.start, ann.end)


def _errors_by_gold_key(g, pairs) -> dict:
    distance = g.geodesy.great_circle_distance
    return {
        _gold_key(pair): distance(pair[1].predicted_coord, pair[0][1].coord)
        for pair in pairs
        if pair[0][1].coord is not None and pair[1].predicted_coord is not None
    }


def _fold_scores(g, folds, match, records, gold) -> list[float]:
    tp, pred, n_gold = {}, {}, {}
    for pair in match.pairs:
        tp[pair[0][0]] = tp.get(pair[0][0], 0) + 1
    for rec in records:
        pred[rec.doc_id] = pred.get(rec.doc_id, 0) + 1
    for doc_id, _ in gold:
        n_gold[doc_id] = n_gold.get(doc_id, 0) + 1
    scores = []
    for fold in folds:
        t = sum(tp.get(d, 0) for d in fold)
        counts = g.metrics.TaggingCounts(
            tp=t, fp=sum(pred.get(d, 0) for d in fold) - t, fn=sum(n_gold.get(d, 0) for d in fold) - t
        )
        scores.append(g.metrics.f_score(counts).f)
    return scores


def pass_compare(g, p: dict, stage, traced_index):
    out = {}
    overlap = g.metrics.MatchMode.OVERLAP
    with stage("setup"):
        t = time.perf_counter()
        index = g.gazetteer.load_cache(p["cache"])
        docs = g.corpus.load_directory(p["gold"])
        out["setup_s"] = time.perf_counter() - t
    index = traced_index(index)
    with stage("load_predictions"):
        with open(p["pred_a"], encoding="utf-8") as fh:
            records_a, errors_a = g.corpus.load_predictions(fh)
        with open(p["pred_b"], encoding="utf-8") as fh:
            records_b, errors_b = g.corpus.load_predictions(fh)
    with stage("align"):
        aligned = g.resolver.align_to_gazetteer(records_b, index)
    with stage("match_overlap"):
        gold = g.corpus.gold_spans(docs)
        match_a = g.metrics.match_spans(gold, records_a, overlap)
        match_b = g.metrics.match_spans(gold, aligned.records, overlap)
    with stage("mcnemar"):
        correct_a = {_gold_key(pair) for pair in match_a.pairs}
        correct_b = {_gold_key(pair) for pair in match_b.pairs}
        table = g.stats.McNemarTable(b=len(correct_a - correct_b), c=len(correct_b - correct_a))
        mcnemar = g.stats.mcnemar(table)
    with stage("wilcoxon"):
        err_a = _errors_by_gold_key(g, match_a.pairs)
        err_b = _errors_by_gold_key(g, match_b.pairs)
        common = sorted(set(err_a) & set(err_b))
        wilcoxon = g.stats.wilcoxon_signed_rank([err_a[k] for k in common], [err_b[k] for k in common])
    with stage("folds"):
        plan = g.stats.make_folds([doc.doc_id for doc in docs], FOLDS, PASS_SEED)
        f_a = _fold_scores(g, plan.folds, match_a, records_a, gold)
        f_b = _fold_scores(g, plan.folds, match_b, aligned.records, gold)
        paired_t = g.stats.paired_t_test(f_a, f_b)
    with stage("augment"):
        expressions = [expr for doc in docs for expr in doc.expressions]
        sentences = g.augment.generate_augmented(docs, expressions, MAX_PER_SOURCE, PASS_SEED)
        with open(p["tagged"], "w", encoding="utf-8") as fh:
            g.augment.write_tagged(sentences, fh)
    out.update(
        docs=[doc.doc_id for doc in docs], records_a=records_a, records_b=records_b,
        pred_errors=len(errors_a) + len(errors_b), errors_a=len(errors_a), errors_b=len(errors_b),
        aligned=aligned, match_a=match_a, match_b=match_b, table=table, mcnemar=mcnemar,
        wilcoxon=wilcoxon, plan=plan, f_a=f_a, f_b=f_b, paired_t=paired_t,
        contexts=sum(1 for e in expressions if e.role is g.corpus.ExpressionRole.CONTEXT),
        sentences=len(sentences),
    )
    return out


def check_compare(ck: Checker, out: dict, manifest: dict, p: dict) -> None:
    want = manifest["expected"]
    gold = want["gold"]
    ck.eq("prediction errors A/B", (out["errors_a"], out["errors_b"]), (0, want["pred_errors_b"]))
    ck.eq("records A/B", (len(out["records_a"]), len(out["records_b"])), (gold, want["b_tp"] + want["b_fp"]))
    aligned = out["aligned"]
    ck.eq("aligned/flagged", (aligned.n_aligned, len(aligned.flagged)), (want["b_tp"], want["flagged"]))
    planted = want["aligned"]
    for rec in aligned.records:
        expected = planted.get(f"{rec.doc_id}:{rec.start}:{rec.end}")
        if expected is not None:
            coord = rec.predicted_coord
            ck.eq(f"aligned entry {rec.doc_id}:{rec.start}", (coord.lat, coord.lon),
                  (float(expected[0]), float(expected[1])))
    a, b = out["match_a"].counts, out["match_b"].counts
    ck.eq("overlap A tp/fp/fn", (a.tp, a.fp, a.fn), (gold, 0, 0))
    ck.eq("overlap B tp/fp/fn", (b.tp, b.fp, b.fn), (want["b_tp"], want["b_fp"], gold - want["b_tp"]))
    missed = gold - want["b_tp"]
    ck.eq("mcnemar table", (out["table"].b, out["table"].c), (missed, 0))
    ck.close("mcnemar statistic", out["mcnemar"].statistic, max(0, missed - 1) ** 2 / missed if missed else 0.0)
    ck.eq("wilcoxon n", out["wilcoxon"].n, want["wilcoxon_n"])
    folds = out["plan"].folds
    flat = [d for fold in folds for d in fold]
    ck.eq("fold partition", sorted(flat), sorted(out["docs"]))
    ck.eq("fold sizes", max(map(len, folds)) - min(map(len, folds)) <= 1 and len(folds) == FOLDS, True)
    per_doc = want["per_doc"]
    for i, fold in enumerate(folds):
        ck.eq(f"fold {i} F of A", out["f_a"][i], 1.0)
        tp = sum(per_doc[d][1] for d in fold)
        fp = sum(per_doc[d][2] for d in fold)
        fn = sum(per_doc[d][0] for d in fold) - tp
        ck.close(f"fold {i} F of B", out["f_b"][i], 2 * tp / (2 * tp + fp + fn))
    ck.eq("paired t dof", out["paired_t"].dof, FOLDS - 1)
    ck.eq("paired t p in [0, 1]", 0.0 <= out["paired_t"].p_value <= 1.0, True)
    ck.eq("augment contexts", out["contexts"], want["contexts"])
    ck.eq("augment sentences", out["sentences"], want["sentences"])
    with open(p["tagged"], encoding="utf-8") as fh:
        ck.eq("tagged sentences written", sum(1 for line in fh if line == "\n"), want["sentences"])


def _p(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tr, workload: str, out: dict, manifest: dict, p: dict) -> dict:
    """Per-layer figures of one traced pass; layers a workload skips are absent."""
    calls, seconds = tr.calls, tr.seconds

    def n(name, stages=None):
        return tr.total(calls, name, stages)

    def s(name, stages=None):
        return tr.total(seconds, name, stages)

    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    m = {}
    lookups = n("lookup")
    built = tr.total(tr.items, "lookup")
    m["gazetteer.lookup_calls"] = lookups
    m["gazetteer.lookup_hit_ratio"] = rate(tr.total(tr.hits, "lookup"), lookups)
    m["gazetteer.candidates_built"] = built
    m["gazetteer.candidates_per_lookup"] = rate(built, lookups)
    m["gazetteer.cache_mb"] = os.path.getsize(p["cache"]) / 1e6
    m["geodesy.distance_calls"] = n("great_circle_distance")
    m["geodesy.distance_s"] = s("great_circle_distance")
    m["gazetteer.nearest_calls"] = n("nearest_entry")
    m["gazetteer.nearest_s"] = s("nearest_entry")

    if workload == "ingest":
        miss = {"cache_miss"}
        m["gazetteer.checksum_calls"] = n("dump_checksum", miss)
        m["gazetteer.checksum_s"] = s("dump_checksum", miss)
        m["gazetteer.parse_rows_per_s"] = rate(manifest["gazetteer"]["rows"], s("ingest", miss))
        m["gazetteer.cache_save_s"] = s("save_cache", miss)
        m["gazetteer.cache_open_s"] = s("load_cache", {"load_cache"})
        focus, setup_stages = ("gazetteer",), ()
    else:
        corpus = manifest["corpus"]
        m["gazetteer.cache_open_s"] = s("load_cache", {"setup"})
        m["corpus.brat_docs_per_s"] = rate(corpus["documents"], s("load_directory", {"setup"}))
        n_pred = sum(map(len, ([out["loaded"]] if workload == "baseline" else [out["records_a"], out["records_b"]])))
        m["corpus.pred_records_per_s"] = rate(n_pred, s("load_predictions"))
        m["corpus.pred_errors"] = out["pred_errors"]
        setup_stages = ("startup", "setup")
    if workload == "baseline":
        docs_s = tr.samples["gazetteer_tag"]
        tag_s = s("gazetteer_tag")
        tokens = manifest["corpus"]["tokens"]
        m["corpus.exclusion_s"] = s("apply_exclusion_policy")
        m["corpus.pred_write_s"] = s("write_predictions")
        m["tagger.tokens_per_s"] = rate(tokens, tag_s)
        m["tagger.probes_per_token"] = n("lookup", {"tag"}) / tokens
        m["tagger.spans"] = len(out["records"])
        m["tagger.doc_ms.p50"] = _p(docs_s, 0.5) * 1e3
        m["tagger.doc_ms.p99"] = _p(docs_s, 0.99) * 1e3
        m["tagger.doc_ms.samples"] = len(docs_s)
        m["resolver.resolve_records_per_s"] = rate(len(out["records"]), s("resolve_population"))
        m["metrics.match_exact_s"] = s("match_spans", {"match_exact"})
        m["metrics.errors_s"] = s("geocoding_errors")
        focus = ("tagger", "gazetteer")
    if workload == "compare":
        n_b = len(out["records_b"])
        m["resolver.align_records_per_s"] = rate(n_b, s("align_to_gazetteer"))
        m["resolver.candidates_per_align"] = tr.total(tr.items, "lookup", {"align"}) / n_b
        m["resolver.flagged"] = len(out["aligned"].flagged)
        m["metrics.match_overlap_s"] = s("match_spans", {"match_overlap"})
        m["metrics.gold_x_pred_computed"] = manifest["expected"]["gold_x_pred"]
        m["stats.mcnemar_s"] = s("mcnemar")
        m["stats.wilcoxon_s"] = s("wilcoxon_signed_rank")
        m["stats.wilcoxon_n"] = out["wilcoxon"].n
        m["stats.paired_t_s"] = s("paired_t_test")
        m["stats.folds_s"] = s("make_folds")
        m["augment.sentences_per_s"] = rate(out["sentences"], s("generate_augmented"))
        m["augment.contexts"] = out["contexts"]
        focus = ("resolver", "gazetteer", "geodesy", "metrics", "stats", "augment")

    self_s = tr.layer_self(exclude_stages=setup_stages)
    for layer, value in self_s.items():
        m[f"self_s.{layer}"] = value
    total = sum(self_s.values())
    m["focus_share"] = rate(sum(self_s[layer] for layer in focus), total)
    return m


PASSES = {
    "ingest": (pass_ingest, check_ingest),
    "baseline": (pass_baseline, check_baseline),
    "compare": (pass_compare, check_compare),
}


def run_pass(workload: str, workdir: str, traced: bool) -> dict:
    import geoeval
    from geoeval import augment, corpus, gazetteer, geodesy, metrics, resolver, stats, tagger  # noqa: F401

    p = _paths(workdir)
    # Rewriting a file in place can make the filesystem flush it on close,
    # which would add a disk wait to the pass; each pass writes fresh files.
    for output in (p["pred"], p["tagged"], p["cache"] if workload == "ingest" else None):
        if output and os.path.exists(output):
            os.remove(output)
    ck = Checker()
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    if traced:
        tracer.install(geoeval)

    run, check = PASSES[workload]
    out = None
    try:
        out = run(geoeval, p, stages(tracer, ck), tracer.wrap_index)
    except Exception as exc:
        if not ck.failed:  # raised outside a stage, which would have counted it
            ck.stage_failed("pass", exc)
    wall_s = time.perf_counter() - T0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(p["manifest"], encoding="utf-8") as fh:
        manifest = json.load(fh)
    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if out is not None:
        result["setup_s"] = out["setup_s"]
        try:
            check(ck, out, manifest, p)
        except Exception as exc:  # a malformed output is a failed check
            ck.stage_failed("checks", exc)
        if traced:
            result["layers"] = layer_metrics(tracer, workload, out, manifest, p)
            result["spans"] = tracer.spans
    result.update(attempted=ck.attempted, failed=ck.failed, failures=ck.messages)
    return result


def prepare(workload: str, workdir: str) -> None:
    from geoeval import augment, cli, gazetteer  # noqa: F401  (compiles every module)

    if workload != "ingest":
        p = _paths(workdir)
        gazetteer.load_or_ingest(p["dump"], p["cache"], set(gen.FEATURE_CLASSES))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=["pass", "prepare"])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.action == "prepare":
        prepare(args.workload, args.workdir)
        return 0
    print(json.dumps(run_pass(args.workload, args.workdir, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
