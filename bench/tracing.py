"""Outside-in tracing: spans around vlcloc's public entry points.

The tracer wraps each entry point by attribute, on the module that calls it
(or on the class, for constructors and methods), so `src/` stays untouched.
Each call records a span (name, start, end, parent) in memory; the spans are
written out when the traced run ends and the per-layer metrics are computed
from them afterwards. An entry point that no longer exists is reported as
not found instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (span name, owner, attribute, counter). The owner is a module, or a class
# given as "module:Class". A counter maps (args, kwargs, result) to counts
# added to the span's layer; "set:" counts keep the last value instead.
ENTRY_POINTS = (
    ("channel.synth", "vlcloc.experiment", "synthesize_received",
     lambda a, k, r: {"samples": r.size}),
    ("spectral.fingerprint", "vlcloc.spectral", "build_fingerprints",
     lambda a, k, r: {"blocks": r.rss.shape[0] * r.rss.shape[1]}),
    ("spectral.save", "vlcloc.spectral", "save_fingerprints",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("spectral.load", "vlcloc.spectral", "load_fingerprints",
     lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    *((f"classifiers.{short}.fit", f"vlcloc.classifiers:{cls}", "__init__",
       lambda a, k, r: {"rows": _arg(a, k, 1, "train").features.shape[0]})
      for short, cls in (("knn", "KnnClassifier"), ("elm", "ElmClassifier"),
                         ("rf", "RandomForest"))),
    *((f"classifiers.{short}.predict", f"vlcloc.classifiers:{cls}", "predict_coords",
       lambda a, k, r: {"rows": r.shape[0]})
      for short, cls in (("knn", "KnnClassifier"), ("elm", "ElmClassifier"),
                         ("rf", "RandomForest"))),
    ("fusion.gi.fit", "vlcloc.fusion", "gi_ls_fit",
     lambda a, k, r: {"set:rank_x": r.wx.rank_used, "set:rank_y": r.wy.rank_used}),
    ("fusion.gd.fit", "vlcloc.fusion", "gd_ls_fit", None),
    ("fusion.predict", "vlcloc.fusion", "gi_ls_predict_all", None),
    ("baselines.rssr.init", "vlcloc.baselines:RssrSolver", "__init__", None),
    ("baselines.rssr.locate", "vlcloc.baselines:RssrSolver", "locate", None),
    ("experiment.run", "vlcloc.experiment", "run_experiment", None),
    ("cli.main", "vlcloc.cli", "main", None),
)


def _resolve_owner(owner: str):
    module_name, _, cls_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Installs span-recording wrappers; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self.not_found: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = start, end
            if counter is not None:
                layer = self.counts[name]
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("set:"):
                        layer[key[4:]] = value
                    else:
                        layer[key] = layer.get(key, 0) + value
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every entry point that exists; return the ones not found."""
        for name, owner, attr, counter in ENTRY_POINTS:
            try:
                target = _resolve_owner(owner)
                fn = getattr(target, attr)
            except (ImportError, AttributeError):
                self.not_found.append(f"{owner}.{attr}")
                continue
            own = attr in vars(target)
            self._restore.append((target, attr, vars(target)[attr] if own else None, own))
            setattr(target, attr, self._wrap(name, fn, counter))
        return self.not_found

    def uninstall(self) -> None:
        for target, attr, original, own in reversed(self._restore):
            if own:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "not_found": self.not_found}, fh)


def load_trace(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def span_times(spans) -> tuple[dict, dict, dict]:
    """Per span name: (calls, busy seconds, self seconds).

    Self time is a span's duration minus that of its direct children; spans
    nest without overlap because the pipeline is single-threaded.
    """
    calls, busy, child = defaultdict(int), defaultdict(float), defaultdict(float)
    for name, start, end, parent in spans:
        calls[name] += 1
        busy[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(spans):
        self_s[name] += (end - start) - child[idx]
    return calls, busy, self_s


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics a traced run reports, from its spans and counts.

    Classifier hit rates, the results.csv size and the trace overhead come
    from the run's outputs, not from spans; the caller adds them.
    """
    calls, busy, self_s = span_times(trace["spans"])
    counts = trace["counts"]

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    out = {
        "channel.synth.busy_s": busy["channel.synth"],
        "channel.synth.calls": calls["channel.synth"],
        "channel.synth.samples": count("channel.synth", "samples"),
        "spectral.fingerprint.self_s": self_s["spectral.fingerprint"],
        "spectral.fingerprint.blocks": count("spectral.fingerprint", "blocks"),
        "spectral.save.busy_s": busy["spectral.save"],
        "spectral.save.bytes": count("spectral.save", "bytes"),
        "spectral.load.busy_s": busy["spectral.load"],
        "spectral.load.bytes": count("spectral.load", "bytes"),
    }
    for clf in ("knn", "elm", "rf"):
        out[f"classifiers.{clf}.fit_s"] = busy[f"classifiers.{clf}.fit"]
        out[f"classifiers.{clf}.fit_rows"] = count(f"classifiers.{clf}.fit", "rows")
        out[f"classifiers.{clf}.predict_s"] = busy[f"classifiers.{clf}.predict"]
        out[f"classifiers.{clf}.predict_rows"] = count(f"classifiers.{clf}.predict", "rows")
    rssr_s = busy["baselines.rssr.init"] + busy["baselines.rssr.locate"]
    rssr_calls = calls["baselines.rssr.locate"]
    out.update({
        "fusion.gi.fit_s": busy["fusion.gi.fit"],
        "fusion.gd.fit_s": busy["fusion.gd.fit"],
        "fusion.gi.rank_x": count("fusion.gi.fit", "rank_x"),
        "fusion.gi.rank_y": count("fusion.gi.fit", "rank_y"),
        "fusion.predict_s": busy["fusion.predict"],
        "baselines.rssr.locate_s": rssr_s,
        "baselines.rssr.calls": rssr_calls,
        "baselines.rssr.us_per_query": 1e6 * rssr_s / rssr_calls if rssr_calls else 0.0,
        "experiment.run.self_s": self_s["experiment.run"],
        "cli.evaluate.self_s": self_s["cli.main"],
    })
    return out
