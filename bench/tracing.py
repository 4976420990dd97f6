"""In-memory spans around the program's public functions, for the traced run.

Each function is wrapped in the module that calls it, because that is where
the caller looks the name up: `pipeline.ingest_csv`, not `ingest.ingest_csv`.
Untraced runs never patch anything. A span records its pass, name, start,
end and the span that caused it; a pass is one traced operation, such as one
`run`, one `synth` or one sweep over the recording set. Spans are kept in
memory and written out once the run ends.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name, counter name, count(args, result))
PATCHES = (
    ("pipeline", "ingest_csv", "ingest.ingest_csv", "ingest.rows_read",
     lambda args, res: len(res["scg"])),
    ("pipeline", "resample", "signal_core.resample", None, None),
    ("pipeline", "lowpass", "signal_core.lowpass", None, None),
    ("pipeline", "detect_events", "event_detection.detect_events", "event_detection.events",
     lambda args, res: len(res)),
    ("pipeline", "integrate_flow", "respiration.integrate_flow", None, None),
    ("pipeline", "label_events", "respiration.label_events", None, None),
    ("pipeline", "screen_outliers", "grouping.screen_outliers", "grouping.outliers_dropped",
     lambda args, res: res[1]),
    ("pipeline", "compare_criteria", "grouping.compare_criteria", None, None),
    ("pipeline", "analyze_recording", "pipeline.analyze_recording", None, None),
    ("pipeline", "write_report_json", "report.write", None, None),
    ("pipeline", "write_report_csv", "report.write", None, None),
    ("pipeline", "line_plot", "svgplot.plot", None, None),
    ("pipeline", "bar_chart", "svgplot.plot", None, None),
    ("grouping", "best_lag", "signal_core.best_lag", None, None),
    ("cli", "run_pipeline", "pipeline.run_pipeline", None, None),
    ("cli", "gen_recording", "synth.gen_recording", None, None),
    ("cli", "write_recording_csv", "ingest.write_recording_csv", "ingest.bytes_written",
     lambda args, res: os.path.getsize(args[1])),
    ("synth", "gen_recording", "synth.gen_recording", None, None),
)

# Per-layer metrics taken from the spans: metric -> (span name, self time?)
SPAN_METRICS = {
    "ingest.ingest_csv_s": ("ingest.ingest_csv", False),
    "ingest.write_recording_csv_s": ("ingest.write_recording_csv", False),
    "synth.gen_recording_s": ("synth.gen_recording", False),
    "signal_core.resample_s": ("signal_core.resample", False),
    "signal_core.lowpass_s": ("signal_core.lowpass", False),
    "event_detection.detect_events_s": ("event_detection.detect_events", False),
    "respiration.integrate_flow_s": ("respiration.integrate_flow", False),
    "respiration.label_events_s": ("respiration.label_events", False),
    "signal_core.best_lag_s": ("signal_core.best_lag", False),
    "grouping.screen_outliers_s": ("grouping.screen_outliers", False),
    "grouping.screen_outliers_self_s": ("grouping.screen_outliers", True),
    "grouping.compare_criteria_s": ("grouping.compare_criteria", False),
    "grouping.compare_criteria_self_s": ("grouping.compare_criteria", True),
    "pipeline.analyze_recording_self_s": ("pipeline.analyze_recording", True),
    "report.write_s": ("report.write", False),
    "svgplot.plot_s": ("svgplot.plot", False),
}
COUNT_METRICS = ("ingest.rows_read", "ingest.bytes_written", "event_detection.events",
                 "grouping.outliers_dropped")
# Per-layer metrics counting the spans of one name: metric -> span name
CALL_METRICS = {"signal_core.best_lag_calls": "signal_core.best_lag"}


class Tracer:
    def __init__(self):
        self.spans = []                  # [pass, name, parent index, start, end]
        self.counts = defaultdict(int)   # (pass, counter) -> total
        self.labels = []                 # pass -> label
        self.pass_id = -1
        self._stack = []

    def new_pass(self, label: str):
        """Start a pass: the spans and counts that follow belong to it."""
        self.pass_id += 1
        self.labels.append(label)

    def _wrap(self, fn, name, counter, count):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [self.pass_id, name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[3] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if counter:
                self.counts[(self.pass_id, counter)] += count(args, res)
            return res
        return traced

    @contextlib.contextmanager
    def patched(self, modules: dict):
        """Wrap every function of PATCHES whose module is in `modules`
        (name -> imported module) for the duration of the block."""
        saved = []
        try:
            for mod_name, attr, name, counter, count in PATCHES:
                mod = modules.get(mod_name)
                if mod is None:
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, counter, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def _per_pass(self):
        """(pass, span name) -> [total seconds, self seconds]."""
        child = defaultdict(float)
        for span in self.spans:
            if span[2] >= 0:
                child[span[2]] += span[4] - span[3]
        out = defaultdict(lambda: [0.0, 0.0])
        for idx, (pid, name, _, start, end) in enumerate(self.spans):
            acc = out[(pid, name)]
            acc[0] += end - start
            acc[1] += end - start - child[idx]
        return out

    def metrics(self) -> dict:
        """Each per-layer metric as the median, over the passes in which the
        layer ran, of its per-pass total; 0 where it never ran."""
        per_pass = self._per_pass()
        result = {}
        for metric, (name, self_time) in SPAN_METRICS.items():
            vals = [v[1 if self_time else 0] for (pid, n), v in per_pass.items() if n == name]
            result[metric] = statistics.median(vals) if vals else 0.0
        for counter in COUNT_METRICS:
            vals = [v for (pid, c), v in self.counts.items() if c == counter]
            result[counter] = statistics.median(vals) if vals else 0
        for metric, name in CALL_METRICS.items():
            calls = defaultdict(int)
            for span in self.spans:
                if span[1] == name:
                    calls[span[0]] += 1
            result[metric] = statistics.median(calls.values()) if calls else 0
        return result

    def dump(self) -> dict:
        per_pass = self._per_pass()
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {
            "passes": self.labels,
            "span_names": names,
            "span_fields": ["pass", "name", "parent", "start_s", "end_s"],
            "spans": [[p, index[n], par, s, e] for p, n, par, s, e in self.spans],
            "per_pass": [{"pass": p, "name": n, "total_s": v[0], "self_s": v[1]}
                         for (p, n), v in sorted(per_pass.items())],
            "counts": [{"pass": p, "name": c, "value": v}
                       for (p, c), v in sorted(self.counts.items())],
        }
