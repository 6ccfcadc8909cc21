"""Per-layer tracing from outside the package.

Each traced function is replaced at its import site: every module attribute
of the package that is bound to the original function object is rebound to
a wrapper, so callers inside the package and the benchmark alike go
through it.  Wrappers keep everything in memory:

* ``span`` wrappers record (id, name, start, end, parent id, instance id)
  and aggregate calls, total and self time;
* ``timed`` wrappers aggregate calls, total and self time but record no
  span, for functions called too often to keep one record per call;
* ``count`` wrappers only count calls, so the overhead on the monomial
  kernels stays one increment per call.

A layer's self time is its time minus the time of the wrapped calls made
inside it.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import Counter, defaultdict
from time import perf_counter


def _box_points_mingens(args, kwargs, result):
    sys_ = args[0]
    box = max((x for w in sys_.thresholds for x in w), default=0)
    return {"polyhedral.mingens.box_points": (box + 1) ** sys_.ncols if sys_.thresholds else 0,
            "polyhedral.mingens.generators": len(result)}


def _box_points_convexity(args, kwargs, result):
    ms = set(args[0])
    if not ms:
        return {}
    n = len(next(iter(ms)).exponents)
    top = max(sum(m.exponents) for m in ms) + 1
    return {"polyhedral.convexity.box_points": (top + 1) ** n}


# (defining module, attribute, metric name, kind, extra counters from a call)
TRACED = (
    ("core", "divides", "core.divides", "count", None),
    ("core", "sigma", "core.sigma", "timed",
     lambda a, k, r: {"core.sigma.letters": len(r.letters)}),
    ("sorted_ideal", "is_fg_sorted", "sorted_ideal.is_fg_sorted", "span", None),
    ("sorted_ideal", "fg_generating_set", "sorted_ideal.fg_generating_set", "span",
     lambda a, k, r: {"sorted_ideal.fg_generating_set.words": len(r)}),
    ("preimage", "preimage_fg", "preimage.preimage_fg", "span", None),
    ("preimage", "preimage_fg_pairs", "preimage.preimage_fg_pairs", "span", None),
    ("word_oracle", "word_in_sorted_ideal", "word_oracle.membership", "timed", None),
    ("word_oracle", "word_in_preimage", "word_oracle.membership", "timed", None),
    ("word_oracle", "enumerate_minimal_generators", "word_oracle.enumerate", "span",
     lambda a, k, r: {"word_oracle.enumerate.generators": len(r.minimal_generators)}),
    ("word_oracle", "finiteness_probe", "word_oracle.finiteness_probe", "span", None),
    ("word_oracle", "preimage_report", "word_oracle.preimage_report", "span", None),
    ("crosscheck", "permutation_canonical", "crosscheck.canonical", "span",
     lambda a, k, r: {"crosscheck.canonical.perms": math.factorial(a[1])}),
    ("cool_orderings", "find_cool_ordering", "cool_orderings.find_cool_ordering", "span",
     lambda a, k, r: {"cool_orderings.find_cool_ordering.found": int(r.found)}),
    ("cool_orderings", "_permutation_search", "cool_orderings.permutation_search", "span",
     lambda a, k, r: {"cool_orderings.permutation_search.nodes": r.nodes_explored}),
    ("cool_orderings", "is_cool", "cool_orderings.is_cool", "timed", None),
    ("torientation", "t_orientation_search", "torientation.search", "span", None),
    ("torientation", "t_orientation_search_stats", "torientation.search", "span", None),
    ("torientation", "nae3sat_reduce", "torientation.nae3sat_reduce", "span", None),
    ("torientation", "nae3sat_brute", "torientation.nae3sat_brute", "span", None),
    ("polyhedral", "membership", "polyhedral.membership", "count", None),
    ("polyhedral", "enumerate_minimal_generators", "polyhedral.mingens", "span",
     _box_points_mingens),
    ("polyhedral", "convexity_check", "polyhedral.convexity", "span", _box_points_convexity),
    ("polyhedral", "verify_certificate", "polyhedral.verify_certificate", "timed", None),
    ("polyhedral", "sat_reduction", "polyhedral.sat_reduction", "span", None),
    ("polyhedral", "reduction_is_negative", "polyhedral.reduction_is_negative", "span", None),
    ("polyhedral", "brute_force_sat", "polyhedral.brute_force_sat", "span", None),
    ("cli", "main", "cli.main", "span", None),
)


class Tracer:
    """In-memory spans and counters; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.instance: int | None = None
        self.active = True
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, kind, extra):
        calls, counts = self.calls, self.counts
        if kind == "count":
            def counted(*args, **kwargs):
                if self.active:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        total, self_time, stack, spans = self.total, self.self_time, self._stack, self.spans
        record = kind == "span"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[name] += 1
                total[name] += took
                self_time[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if record:
                    spans.append((frame[0], name, start, end, parent, self.instance))
            if extra is not None:
                counts.update(extra(args, kwargs, result))
            return result

        return traced

    def install(self, m) -> None:
        """Rebind every package attribute that refers to a traced function."""
        modules = [getattr(m, name) for name in m.MODULES] + [m.package]
        for home, attr, name, kind, extra in TRACED:
            original = getattr(getattr(m, home), attr)
            wrapper = self._wrap(original, name, kind, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        torientation = m.torientation
        solver_cls = torientation._Solver
        tracer = self

        class CountingSolver(solver_cls):
            def solve(self, limit):
                try:
                    return super().solve(limit)
                finally:
                    if tracer.active:
                        tracer.counts["torientation.search.nodes"] += self.nodes

        self._undo.append((torientation, "_Solver", solver_cls))
        torientation._Solver = CountingSolver

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced and uncounted."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures, by metric name; idle layers read zero."""
        c, st, k = self.calls, self.self_time, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "core.divides.calls": c["core.divides"],
            "core.sigma.calls": c["core.sigma"],
            "core.sigma.letters": k["core.sigma.letters"],
            "core.sigma.self_s": st["core.sigma"],
            "sorted_ideal.is_fg_sorted.calls": c["sorted_ideal.is_fg_sorted"],
            "sorted_ideal.is_fg_sorted.self_s": st["sorted_ideal.is_fg_sorted"],
            "sorted_ideal.fg_generating_set.self_s": st["sorted_ideal.fg_generating_set"],
            "sorted_ideal.fg_generating_set.words": k["sorted_ideal.fg_generating_set.words"],
            "preimage.preimage_fg.self_s": st["preimage.preimage_fg"],
            "preimage.preimage_fg_pairs.self_s": st["preimage.preimage_fg_pairs"],
            "word_oracle.membership.calls": c["word_oracle.membership"],
            "word_oracle.membership.self_s": st["word_oracle.membership"],
            "word_oracle.enumerate.self_s": st["word_oracle.enumerate"],
            "word_oracle.enumerate.useful_ratio": ratio(
                k["word_oracle.enumerate.generators"], c["word_oracle.membership"]),
            "crosscheck.canonical.calls": c["crosscheck.canonical"],
            "crosscheck.canonical.perms": k["crosscheck.canonical.perms"],
            "crosscheck.canonical.self_s": st["crosscheck.canonical"],
            "cool_orderings.find_cool_ordering.self_s": st["cool_orderings.find_cool_ordering"],
            "cool_orderings.permutation_search.nodes": k["cool_orderings.permutation_search.nodes"],
            "cool_orderings.found_ratio": ratio(
                k["cool_orderings.find_cool_ordering.found"],
                c["cool_orderings.find_cool_ordering"]),
            "torientation.search.calls": c["torientation.search"],
            "torientation.search.nodes": k["torientation.search.nodes"],
            "torientation.search.self_s": st["torientation.search"],
            "polyhedral.mingens.self_s": st["polyhedral.mingens"],
            "polyhedral.mingens.box_points": k["polyhedral.mingens.box_points"],
            "polyhedral.mingens.useful_ratio": ratio(
                k["polyhedral.mingens.generators"], k["polyhedral.mingens.box_points"]),
            "polyhedral.membership.calls": c["polyhedral.membership"],
            "polyhedral.convexity.self_s": st["polyhedral.convexity"],
            "polyhedral.convexity.box_points": k["polyhedral.convexity.box_points"],
            "polyhedral.verify_certificate.self_s": st["polyhedral.verify_certificate"],
            "cli.main.calls": c["cli.main"],
            "cli.main.self_s": st["cli.main"],
        }

    def write(self, path) -> None:
        """Spans one JSON object a line, then one line of aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, inst in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst}) + "\n")
            fh.write(json.dumps({
                "calls": dict(self.calls),
                "total_s": dict(self.total),
                "self_s": dict(self.self_time),
                "counts": dict(self.counts),
            }) + "\n")
