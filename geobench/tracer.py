"""In-memory tracing for the traced benchmark passes.

Nothing in geoeval is changed: the tracer replaces the module attributes of
selected public functions with timing wrappers, and wraps the index object
the benchmark passes in, for the duration of one pass in its own process.

Two kinds of wrapped call:

* span calls (stage boundaries such as `load_cache` or `match_spans`) are
  recorded as spans with name, layer, start, end and parent span;
* hot calls (`lookup`, `nearest_entry`, `great_circle_distance`,
  `gazetteer_tag` per document) only add to counters and summed time,
  because a span each would be millions of records.

Both kinds feed the self time of their layer: a call's duration minus the
time of the wrapped calls it made. Counters are keyed by the benchmark
stage that was open, so a lookup made by the tagger is told apart from
one made by the resolver.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

perf_counter = time.perf_counter

# (module, function, hot). The layer is the module the function lives in.
# A hot call is counted and timed but recorded as no span of its own.
TRACED_FUNCTIONS = (
    ("gazetteer", "load_or_ingest", False),
    ("gazetteer", "dump_checksum", False),
    ("gazetteer", "ingest_path", False),
    ("gazetteer", "ingest", False),
    ("gazetteer", "save_cache", False),
    ("gazetteer", "load_cache", False),
    ("gazetteer", "nearest_entry", True),
    ("geodesy", "great_circle_distance", True),
    ("corpus", "load_directory", False),
    ("corpus", "apply_exclusion_policy", False),
    ("corpus", "load_predictions", False),
    ("corpus", "write_predictions", False),
    ("tagger", "gazetteer_tag", True),
    ("resolver", "resolve_population", False),
    ("resolver", "align_to_gazetteer", False),
    ("metrics", "match_spans", False),
    ("metrics", "geocoding_errors", False),
    ("metrics", "geocoding_metrics", False),
    ("metrics", "render_report", False),
    ("metrics", "f_score", True),
    ("stats", "mcnemar", False),
    ("stats", "wilcoxon_signed_rank", False),
    ("stats", "make_folds", False),
    ("stats", "paired_t_test", False),
    ("augment", "generate_augmented", False),
    ("augment", "write_tagged", False),
)

# Calls whose individual durations are kept, for percentiles.
SAMPLED = {"gazetteer_tag"}

LAYERS = ("bench", "gazetteer", "geodesy", "corpus", "tagger", "resolver", "metrics", "stats", "augment")


class Tracer:
    """Spans, per-stage call counters and per-layer self time for one pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stage = "startup"
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.items: dict[tuple[str, str], int] = defaultdict(int)
        self.hits: dict[tuple[str, str], int] = defaultdict(int)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._next_id = 1
        # Frames of open calls: [time spent in wrapped children, span id].
        self._stack: list[list] = [[0.0, 0]]
        self._t0 = perf_counter()

    def _enter(self, record: bool) -> list:
        if record:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = self._stack[-1][1]
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, layer: str, t0: float, t1: float, record: bool) -> None:
        self._stack.pop()
        duration = t1 - t0
        self._stack[-1][0] += duration
        self.self_s[(self.stage, layer)] += duration - frame[0]
        key = (self.stage, name)
        self.calls[key] += 1
        self.seconds[key] += duration
        if record:
            self.spans.append(
                {
                    "id": frame[1],
                    "parent": self._stack[-1][1],
                    "name": name,
                    "layer": layer,
                    "stage": self.stage,
                    "start": t0 - self._t0,
                    "end": t1 - self._t0,
                }
            )

    def wrap(self, fn, name: str, layer: str, hot: bool, measure=None):
        """A wrapper that times `fn`; `measure(result)` counts items built."""
        record = not hot
        sampled = self.samples[name] if name in SAMPLED else None

        def traced(*args, **kwargs):
            frame = self._enter(record)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._exit(frame, name, layer, t0, t1, record)
                if sampled is not None:
                    sampled.append(t1 - t0)
            if measure is not None:
                n = measure(result)
                key = (self.stage, name)
                self.items[key] += n
                self.hits[key] += n > 0
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def stage_span(self, stage: str):
        """A benchmark stage: a span of the `bench` layer that keys counters."""
        previous = self.stage
        self.stage = stage
        frame = self._enter(True)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(frame, stage, "bench", t0, perf_counter(), True)
            self.stage = previous

    def install(self, package) -> None:
        """Replace each traced function wherever a geoeval module binds it.

        Modules import some functions by name (`resolver` binds
        `nearest_entry`, `metrics` binds `great_circle_distance`), so every
        module attribute that is the original function gets the wrapper.
        """
        modules = [getattr(package, m) for m in ("gazetteer", "geodesy", "corpus", "tagger",
                                                 "resolver", "metrics", "stats", "augment")]
        for module_name, fn_name, hot in TRACED_FUNCTIONS:
            original = getattr(getattr(package, module_name), fn_name)
            wrapper = self.wrap(original, fn_name, module_name, hot)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def wrap_index(self, index) -> "TracedIndex":
        return TracedIndex(index, self)

    def total(self, table: dict, name: str, stages=None) -> float:
        return sum(v for (stage, n), v in table.items() if n == name and (stages is None or stage in stages))

    def layer_self(self, exclude_stages=()) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for (stage, layer), seconds in self.self_s.items():
            if stage not in exclude_stages:
                out[layer] += seconds
        return out


class TracedIndex:
    """Wraps a GazetteerIndex so that `lookup` and `entry` are counted.

    `lookup` also counts the candidate entries it builds; the tagger calls it
    only to test whether a name exists, so those lists are built for nothing.
    """

    def __init__(self, index, tracer: Tracer):
        self._index = index
        self.lookup = tracer.wrap(index.lookup, "lookup", "gazetteer", hot=True, measure=len)
        self.entry = tracer.wrap(index.entry, "entry", "gazetteer", hot=True)

    def __getattr__(self, name):
        return getattr(self._index, name)

    def __len__(self):
        return len(self._index)

    def __contains__(self, entry_id):
        return entry_id in self._index


class NullTracer:
    """The untraced pass: stages cost one no-op context manager each."""

    stage_span = staticmethod(lambda stage: contextlib.nullcontext())
    wrap_index = staticmethod(lambda index: index)
