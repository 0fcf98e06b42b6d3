"""Per-layer spans for a traced run, recorded from outside the package.

`Tracer.install` wraps the public functions of each k3mukai module and
replaces every module attribute that names the original, so the wrapper is
what each caller looks up; series operators are patched on the class.  No
file of the package changes.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import gzip
import itertools
import sys
from collections import Counter
from time import perf_counter_ns

# (layer metric prefix, module, attribute); "Class.method" patches a class
SPANNED = [
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("series.mul", "series", "TruncatedSeries.__rmul__"),
    ("series.truediv", "series", "TruncatedSeries.__truediv__"),
    ("series.compose", "series", "TruncatedSeries.compose"),
    ("series.revert", "series", "TruncatedSeries.revert"),
    ("series.pow_rational", "series", "TruncatedSeries.pow_rational"),
    ("series.exp", "series", "TruncatedSeries.exp"),
    ("series.log", "series", "TruncatedSeries.log"),
    ("segre_verlinde.build_vwx", "segre_verlinde", "build_vwx"),
    ("segre_verlinde.build_fg", "segre_verlinde", "build_fg"),
    ("segre_verlinde.segre_variable_change", "segre_verlinde", "segre_variable_change"),
    ("segre_verlinde.segre_number", "segre_verlinde", "segre_number"),
    ("segre_verlinde.verlinde_number", "segre_verlinde", "verlinde_number"),
    ("segre_verlinde.check_correspondence", "segre_verlinde", "check_correspondence"),
    ("reduction.segre_cross_check", "reduction", "segre_cross_check"),
    ("reduction.reduce_to_hilbert", "reduction", "reduce_to_hilbert"),
    ("reduction.dim2_evaluate", "reduction", "dim2_evaluate"),
    ("lattice.gram_matrix", "lattice", "gram_matrix"),
    ("lattice.gram_rank", "lattice", "gram_rank"),
    ("lattice.span_dim", "lattice", "span_dim"),
    ("lattice.fingerprint", "lattice", "fingerprint"),
    ("lattice.nondegenerate_reduction", "lattice", "nondegenerate_reduction"),
    ("lattice.span_isometry", "lattice", "span_isometry"),
    ("cli.main", "cli", "main"),
]
COUNTED = [("lattice.pair", "lattice", "MukaiVector.pair")]
KEYED = {"segre_verlinde.build_vwx", "segre_verlinde.build_fg",
         "segre_verlinde.segre_variable_change"}


EXTRA = ["series.max_order", "series.max_coeff_bits", "segre_verlinde.key_repeat_share",
         "segre_verlinde.key_calls", "lattice.pair.calls", "cli.stdout_bytes",
         "trace.throughput_rps"]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    prefixes = dict.fromkeys(prefix for prefix, _, _ in SPANNED)
    return [f"{p}.{stat}" for p in prefixes for stat in ("calls", "self_s")] + EXTRA


class Tracer:
    """Spans, call counts, self times and series statistics for one run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start ns, end ns)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.keys_seen: set = set()
        self.key_calls = 0
        self.key_repeats = 0
        self.max_order = 0
        self.max_coeff_bits = 0
        self.stdout_bytes = 0
        self.op = -1
        self._stack: list[list] = []  # [span id, child ns] per open span
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        stack, spans, calls, self_ns, ids = (
            self._stack, self.spans, self.calls, self.self_ns, self._ids)
        is_series = name.startswith("series.")
        keyed = name in KEYED

        def wrapper(*args, **kwargs):
            if keyed:
                self._note_key(name, args, kwargs)
            frame = [next(ids), 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                calls[name] += 1
                self_ns[name] += end - start - frame[1]
                spans.append((self.op, frame[0], parent[0] if parent else None,
                              name, start, end))
            if is_series:
                self._note_series(result)
            if parent is not None:
                # bookkeeping after `end` is charged to no layer
                parent[1] += perf_counter_ns() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_key(self, name, args, kwargs):
        # build_vwx(rho, 3, k) and build_vwx(rho, Fraction(3), k) share a cache
        # entry; equal numbers compare and hash equal, so the raw args are the key
        key = (name, args, tuple(sorted(kwargs.items())))
        self.key_calls += 1
        if key in self.keys_seen:
            self.key_repeats += 1
        else:
            self.keys_seen.add(key)

    def _note_series(self, result):
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None:
            return
        self.max_order = max(self.max_order, len(coeffs) - 1)
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a k3mukai module names it."""
        for specs, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, module, attr in specs:
                owner = sys.modules[f"k3mukai.{module}"]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, attr, make(name, owner.__dict__[attr]))
                    continue
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "k3mukai" and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, throughput_rps: float) -> dict:
        """Per-layer metrics by name, each as {"value", "unit"}."""
        out = {}
        for name in per_layer_names():
            if name.endswith(".calls"):
                out[name] = (self.calls[name[: -len(".calls")]], "count")
            elif name.endswith(".self_s"):
                out[name] = (self.self_ns[name[: -len(".self_s")]] / 1e9, "s")
        share = self.key_repeats / self.key_calls if self.key_calls else 0.0
        out.update({
            "series.max_order": (self.max_order, "count"),
            "series.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "segre_verlinde.key_repeat_share": (share, "share"),
            "segre_verlinde.key_calls": (self.key_calls, "count"),
            "cli.stdout_bytes": (self.stdout_bytes, "bytes"),
            "trace.throughput_rps": (throughput_rps, "1/s"),
        })
        return {name: {"value": out[name][0], "unit": out[name][1]}
                for name in per_layer_names()}

    def write_spans(self, path) -> None:
        """One tab-separated line per span: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("op\tid\tparent\tname\tstart_ns\tend_ns\n")
            for op, sid, parent, name, start, end in sorted(self.spans, key=lambda s: s[1]):
                parent = "" if parent is None else parent
                handle.write(f"{op}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")
