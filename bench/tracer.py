"""Spans around calls into tflab's public functions, and the per-layer metrics.

The tracer wraps named functions of each tflab module from outside the
package: a wrapped call records a span (name, start, end, parent) in memory.
A layer's self time is its span time minus the part its child spans cover.
A name that no longer exists is left unwrapped and its metrics are reported
as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); one layer per tflab module
WRAPPED = [
    ("osgood", "build_ingham", "osgood.build_ingham"),
    ("osgood", "InghamTable.spectrum_at", "osgood.spectrum_at"),
    ("sampling", "maximal_function", "sampling.maximal_function"),
    ("sampling", "maximal_dyadic_intervals", "sampling.maximal_dyadic_intervals"),
    ("sampling", "superlevel_decompose", "sampling.superlevel_decompose"),
    ("packets", "canonical_packet", "packets.canonical_packet"),
    ("packets", "PacketBank.coefficient", "packets.PacketBank.coefficient"),
    ("packets", "xi_H", "packets.xi_H"),
    ("mfcz", "mfcz_decompose", "mfcz.mfcz_decompose"),
    ("mfcz", "riesz_project", "mfcz.riesz_project"),
    ("mfcz", "verify_mfcz", "mfcz.verify_mfcz"),
    ("timefreq", "exceptional_sets", "timefreq.exceptional_sets"),
    ("timefreq", "collection_size", "timefreq.collection_size"),
    ("timefreq", "size_lemma_split", "timefreq.size_lemma_split"),
    ("timefreq", "thin_well_discretized", "timefreq.thin_well_discretized"),
    ("timefreq", "f3_decompose", "timefreq.f3_decompose"),
    ("modelsum", "bht_direct", "modelsum.bht_direct"),
    ("modelsum", "coefficient_profile", "modelsum.coefficient_profile"),
    ("modelsum", "synthesis_profile", "modelsum.synthesis_profile"),
    ("lab", "_LatticeEngine.evaluate", "lab.engine.evaluate"),
    ("lab", "emit_report", "lab.emit_report"),
    ("lab", "run_tree_suite", "lab.run_tree_suite"),
    ("cli", "main", "cli.main"),
]
LAYERS = ("osgood", "sampling", "packets", "mfcz", "timefreq", "modelsum",
          "lab", "cli")


def _columns(args, result) -> int:
    engine = args[0]
    return len(engine.scales) * (2 * engine.cfg.m_xi_max + 1)


# counters taken from a wrapped call's arguments and result
RESULT_COUNTERS = {
    "sampling.maximal_dyadic_intervals": (
        "sampling.maximal_dyadic_intervals.intervals", lambda a, r: len(r)),
    "sampling.superlevel_decompose": (
        "sampling.superlevel_decompose.intervals", lambda a, r: len(r)),
    "timefreq.size_lemma_split": (
        "timefreq.size_lemma_split.trees", lambda a, r: len(r[1].trees)),
    "timefreq.f3_decompose": ("timefreq.f3_decompose.forests", lambda a, r: len(r)),
    "modelsum.synthesis_profile": (
        "modelsum.synthesis_profile.synthesised", lambda a, r: r is not None),
    "lab.engine.evaluate": ("lab.engine.columns_total", _columns),
}


def _metric(name: str, unit: str, higher: bool = False):
    return name, unit, "higher" if higher else "lower"


# every per-layer metric, in the order BENCHMARK.json lists them
METRICS = [
    _metric("osgood.build_ingham.s", "s"),
    _metric("osgood.spectrum_at.s", "s"),
    _metric("osgood.spectrum_at.calls", "count"),
    _metric("sampling.maximal_function.s", "s"),
    _metric("sampling.maximal_function.calls", "count"),
    _metric("sampling.maximal_dyadic_intervals.s", "s"),
    _metric("sampling.maximal_dyadic_intervals.calls", "count"),
    _metric("sampling.maximal_dyadic_intervals.intervals", "count"),
    _metric("sampling.superlevel_decompose.s", "s"),
    _metric("sampling.superlevel_decompose.calls", "count"),
    _metric("sampling.superlevel_decompose.intervals", "count"),
    _metric("packets.canonical_packet.s", "s"),
    _metric("packets.canonical_packet.calls", "count"),
    _metric("packets.PacketBank.coefficient.s", "s"),
    _metric("packets.PacketBank.coefficient.calls", "count"),
    _metric("packets.bank.hit_ratio", "ratio", higher=True),
    _metric("packets.xi_H.s", "s"),
    _metric("packets.xi_H.calls", "count"),
    _metric("mfcz.mfcz_decompose.s", "s"),
    _metric("mfcz.mfcz_decompose.calls", "count"),
    _metric("mfcz.riesz_project.s", "s"),
    _metric("mfcz.riesz_project.calls", "count"),
    _metric("mfcz.riesz_project.rank_deficits", "count"),
    _metric("mfcz.verify_mfcz.s", "s"),
    _metric("timefreq.exceptional_sets.s", "s"),
    _metric("timefreq.exceptional_sets.calls", "count"),
    _metric("timefreq.exceptional_sets.doublings", "count"),
    _metric("timefreq.collection_size.s", "s"),
    _metric("timefreq.collection_size.calls", "count"),
    _metric("timefreq.size_lemma_split.s", "s"),
    _metric("timefreq.size_lemma_split.calls", "count"),
    _metric("timefreq.size_lemma_split.trees", "count"),
    _metric("timefreq.thin_well_discretized.s", "s"),
    _metric("timefreq.f3_decompose.s", "s"),
    _metric("timefreq.f3_decompose.forests", "count"),
    _metric("modelsum.bht_direct.s", "s"),
    _metric("modelsum.bht_direct.calls", "count"),
    _metric("modelsum.coefficient_profile.s", "s"),
    _metric("modelsum.coefficient_profile.calls", "count"),
    _metric("modelsum.synthesis_profile.s", "s"),
    _metric("modelsum.synthesis_profile.calls", "count"),
    _metric("lab.engine.evaluate.s", "s"),
    _metric("lab.engine.columns_total", "count"),
    _metric("lab.engine.columns_evaluated", "count"),
    _metric("lab.engine.useful_ratio", "ratio", higher=True),
    _metric("lab.emit_report.s", "s"),
    _metric("lab.run_tree_suite.s", "s"),
    _metric("cli.main.s", "s"),
] + [_metric(f"{layer}.s", "s") for layer in LAYERS] + [
    _metric("trace.coverage", "ratio", higher=True),
    _metric("trace.overhead_s", "s"),
]

# span names a derived metric needs, beyond the one its name starts with
DERIVED_NEEDS = {
    "packets.bank.hit_ratio": ("packets.canonical_packet", "packets.PacketBank.coefficient"),
    "timefreq.exceptional_sets.doublings": ("timefreq.exceptional_sets",
                                            "sampling.maximal_dyadic_intervals"),
    "lab.engine.columns_total": ("lab.engine.evaluate",),
    "lab.engine.columns_evaluated": ("lab.engine.evaluate", "modelsum.coefficient_profile"),
    "lab.engine.useful_ratio": ("lab.engine.evaluate", "modelsum.synthesis_profile"),
}


class _CountHandler(logging.Handler):
    """Counts log records whose message starts with a prefix."""

    def __init__(self, prefix: str):
        super().__init__(logging.INFO)
        self.prefix = prefix
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith(self.prefix):
            self.count += 1


class Tracer:
    """Context manager: wraps WRAPPED while active, restores on exit.

    Spans are (name, start, end, parent index or -1); the program runs
    serially (TFLAB_THREADS unset), so one stack of open spans suffices.
    """

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._rank = _CountHandler("projection rank")

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if counter is not None:
                counters[counter[0]] += counter[1](args, result)
            return result
        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tflab" or k.startswith("tflab.")]
        for mod_name, attr, name in WRAPPED:
            try:
                owner = importlib.import_module(f"tflab.{mod_name}")
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                orig = owner.__dict__[leaf]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if path:  # a method: patch the class
                setattr(owner, leaf, wrapped)
                self._undo.append((owner, leaf, orig))
                continue
            # a function: patch every tflab module that imported it by name
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        log = logging.getLogger("tflab.mfcz")
        self._log_level = log.level
        log.setLevel(logging.INFO)
        log.addHandler(self._rank)
        return self

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        log = logging.getLogger("tflab.mfcz")
        log.removeHandler(self._rank)
        log.setLevel(self._log_level)
        self.counters["mfcz.riesz_project.rank_deficits"] = self._rank.count
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


def union_length(intervals) -> float:
    """Total length of a union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = []
    for i, (name, t0, t1, parent) in enumerate(spans):
        kids = [(max(a, t0), min(b, t1)) for a, b in children.get(i, ())]
        out.append((t1 - t0) - union_length([k for k in kids if k[1] > k[0]]))
    return out


def layer_metrics(spans, counters, absent, wall: float) -> dict[str, float]:
    """Every METRICS value but trace.overhead_s; metrics of absent names are left out."""
    counters = Counter(counters)
    selfs = self_times(spans)
    s_by: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    children_of: dict[int, Counter] = defaultdict(Counter)
    for (name, t0, t1, parent), st in zip(spans, selfs):
        s_by[name] += st
        calls[name] += 1
        if parent >= 0:
            children_of[parent][name] += 1

    def child_calls(child: str, of: str) -> int:
        return sum(kids[child] for i, kids in children_of.items() if spans[i][0] == of)

    total = counters["lab.engine.columns_total"]
    asked = calls["packets.PacketBank.coefficient"]
    built = child_calls("packets.canonical_packet", "packets.PacketBank.coefficient")
    doublings = sum(kids["sampling.maximal_dyadic_intervals"] - 1
                    for i, kids in children_of.items()
                    if spans[i][0] == "timefreq.exceptional_sets")
    derived = {
        "packets.bank.hit_ratio": 1.0 - built / asked if asked else 0.0,
        "timefreq.exceptional_sets.doublings": doublings,
        "lab.engine.columns_total": total,
        "lab.engine.columns_evaluated":
            child_calls("modelsum.coefficient_profile", "lab.engine.evaluate") / 2,
        "lab.engine.useful_ratio":
            counters["modelsum.synthesis_profile.synthesised"] / total if total else 0.0,
        "trace.coverage":
            union_length([(t0, t1) for _, t0, t1, p in spans if p < 0]) / wall,
    }
    wrapped = {name for _, _, name in WRAPPED}
    out = {}
    for name, _, _ in METRICS:
        if name == "trace.overhead_s":
            continue
        if name in derived:
            needs = DERIVED_NEEDS.get(name, ())
            if not any(n in absent for n in needs):
                out[name] = float(derived[name])
            continue
        if name.count(".") == 1 and name.split(".")[0] in LAYERS:
            layer = name.split(".")[0]
            out[name] = sum(v for k, v in s_by.items() if k.startswith(layer + "."))
            continue
        base, _, kind = name.rpartition(".")
        if base not in wrapped or base in absent:
            continue
        if kind == "s":
            out[name] = s_by[base]
        elif kind == "calls":
            out[name] = float(calls[base])
        else:
            out[name] = float(counters[name])
    return out
