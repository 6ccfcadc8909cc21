"""Benchmark for monoideal: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0

The package is imported from ``src/`` of the current directory only; without
it the command fails before printing a result.  Set-up (a fresh import of
the package plus building the seeded inputs through its constructors) is
repeated and its median reported.  The timed loop is closed, one caller and
one instance at a time: it cycles through the instance list until
``--seconds`` have passed, always finishing the first pass.  Each
instance's time is the least CPU time of its passes, scaled to a reference
speed (``speed.py``).  Every output
is checked against its referee; later passes must repeat the first pass's
answers.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run makes one untraced pass and one traced pass over set-up and
instances, reports the per-layer figures of the traced pass and the
difference in wall time, and writes the spans under ``.perfbench_out/``.
The last line of standard output is the JSON result; the line before it is
the output gate (sweep sizes, verdict digest, known defects).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = ("core", "sorted_ideal", "preimage", "word_oracle", "crosscheck",
           "cool_orderings", "torientation", "polyhedral", "cli")
# set-up repeats at least this often and until it has taken this much CPU
# time, so that the median of a short set-up is steady too
SETUP_REPEATS = 5
SETUP_CPU_S = 2.0
WORKDIR = ".perfbench_work"
OUTDIR = ".perfbench_out"


def cpu_time() -> float:
    """CPU seconds of this process and of its children that have ended.

    Instances and set-up are timed in CPU time: on a shared machine wall
    time also counts waiting for a processor, which other tenants decide.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


class NoPackage(Exception):
    pass


def load_monoideal(root: Path):
    """Import a fresh copy of the package from ``src`` under ``root`` only."""
    src = (root / "src").resolve()
    if not (src / "monoideal" / "__init__.py").is_file():
        raise NoPackage(f"no package source at {src / 'monoideal'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "monoideal" or k.startswith("monoideal.")]:
        del sys.modules[name]
    package = importlib.import_module("monoideal")
    if Path(package.__file__).resolve().parent != src / "monoideal":
        raise NoPackage(f"monoideal was imported from {package.__file__}")
    mods = {name: importlib.import_module(f"monoideal.{name}") for name in MODULES}
    return SimpleNamespace(package=package, MODULES=MODULES, **mods)


def build(m, root: Path, args):
    """The workload and its seeded instance list."""
    wl = workloads.make(args.workload, root / WORKDIR / args.workload)
    return wl, wl.build(m, random.Random(f"{args.workload}:{args.seed}"), args.scale)


def inputs_digest(wl, plan) -> str:
    return _digest([wl.key(inst) for inst in plan.instances])


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Pass:
    """Outcomes of the instances run so far, against the first pass's answers.

    Each run of an instance is timed next to a run of the reference loop
    (``speed.py``).  An instance's time is the least of its passes, each
    scaled to the reference speed: noise from other tenants comes in bursts
    of seconds, and the passes lie seconds apart.
    """

    def __init__(self):
        self.samples: list[tuple[int, float, float]] = []  # instance, took, reference
        self.outcome: dict[int, str] = {}
        self.runs = 0
        self.sizes: Counter = Counter()
        self.events: Counter = Counter()
        self.records: list = []
        self.notes: list[str] = []

    def add(self, idx: int, first: bool, took: float, ref: float, checked) -> None:
        self.runs += 1
        outcome = checked.outcome
        if first:
            self.records.append(checked.record)
            self.sizes.update(checked.sizes)
            self.events.update(checked.events)
        elif checked.record != self.records[idx]:
            outcome, checked.note = "fail", "answer differs from the first pass"
        if self.outcome.get(idx) != "fail":
            self.outcome[idx] = outcome
        self.samples.append((idx, took, ref))
        if outcome != "ok" and len(self.notes) < 5:
            self.notes.append(f"{outcome} #{idx}: {checked.note}")

    def count(self, outcome: str) -> int:
        return sum(1 for o in self.outcome.values() if o == outcome)

    def best(self, scaled: bool = True) -> dict[int, float]:
        """Each instance's least time, at the reference speed or as measured."""
        factors = speed.scales([ref for _, _, ref in self.samples]) if scaled else None
        best: dict[int, float] = {}
        for j, (idx, took, _) in enumerate(self.samples):
            t = took * factors[j] if scaled else took
            best[idx] = min(t, best.get(idx, math.inf))
        return best

    def latencies(self, scaled: bool = True) -> list[float]:
        """Per instance; one not solved misses every latency limit."""
        return [t if self.outcome[i] == "ok" else math.inf
                for i, t in self.best(scaled).items()]


def run_instances(m, wl, plan, tracer: Tracer | None = None, seconds: float = 0.0) -> Pass:
    """Cycle through the instances until ``seconds`` pass; finish the first pass."""
    result = Pass()
    start = perf_counter()
    first = True
    while True:
        state = wl.new_state()
        for idx, inst in enumerate(plan.instances):
            if not first and perf_counter() - start >= seconds:
                return result
            if tracer is not None:
                tracer.instance = idx
            ref = speed.reference()
            t0 = cpu_time()
            try:
                out = wl.run(m, inst, state)
            except Exception:
                out = Raised(traceback.format_exc(limit=4))
            took = cpu_time() - t0
            # referee calls made by the check are not traced work
            with tracer.paused() if tracer else contextlib.nullcontext():
                checked = _check(m, wl, inst, out, state)
            result.add(idx, first, took, ref, checked)
        first = False
        if perf_counter() - start >= seconds:
            return result


class Raised:
    def __init__(self, text: str):
        self.text = text


def _check(m, wl, inst, out, state):
    if isinstance(out, Raised):
        return workloads.Checked(None, "fail", out.text[-400:])
    try:
        return wl.check(m, inst, out, state)
    except Exception:
        return workloads.Checked(None, "fail", traceback.format_exc(limit=4)[-400:])


def gate(wl, plan, result: Pass, expected: dict | None = None,
         seed: int | None = None) -> tuple[bool, dict]:
    """Referee outcomes, sweep sizes and the verdict digest of the first pass.

    ``expected`` holds the recorded sweep sizes and verdict digests of the
    full-size workload.
    """
    sizes = dict(plan.sizes)
    sizes.update(result.sizes)
    report = {
        "sizes": sizes,
        "inputs_digest": inputs_digest(wl, plan),
        "verdict_digest": _digest([sizes, result.records]),
        "known_defects": result.count("known"),
        "failed": result.count("fail"),
        "runs": result.runs,
        "notes": result.notes,
    }
    ok = result.count("fail") == 0
    if expected is not None:
        for key, want in expected["sizes"].items():
            if sizes.get(key) != want:
                ok = False
                report["notes"].append(f"sweep size {key} is {sizes.get(key)}, expected {want}")
        want = expected["verdict_digests"].get(str(seed))
        if want is not None and want != report["verdict_digest"]:
            ok = False
            report["notes"].append(f"verdict digest differs from the recorded {want}")
    return ok, report


def recorded(args) -> dict | None:
    """What ``expected.json`` holds for this workload, at full size only."""
    if args.scale != 1.0:
        return None
    data = json.loads((HERE / "expected.json").read_text())
    return {"sizes": data["sizes"].get(args.workload, {}),
            "verdict_digests": data["verdict_digests"].get(args.workload, {})}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ms(value: float) -> float:
    # a share of failures above the percentile leaves no finite latency;
    # report a value past any limit rather than a non-JSON infinity
    return value * 1e3 if math.isfinite(value) else 1e12


def timing_metrics(result: Pass, setup_times: list[float], scaled: bool) -> dict:
    latencies = result.latencies(scaled)
    solved = result.count("ok")
    return {
        "instances_per_s": (solved / sum(t for t in latencies if math.isfinite(t)), "1/s"),
        "latency_p50_ms": (_ms(percentile(latencies, 0.5)), "ms"),
        "latency_p90_ms": (_ms(percentile(latencies, 0.9)), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def measure(args, root: Path) -> dict:
    if args.trace:
        return traced(args, root)
    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_CPU_S:
        gc.collect()
        t0 = cpu_time()
        m = load_monoideal(root)
        wl, plan = build(m, root, args)
        setup_times.append(cpu_time() - t0)
    result = run_instances(m, wl, plan, seconds=args.seconds)
    ok, report = gate(wl, plan, result, recorded(args), args.seed)
    # the figures as measured, before scaling to the reference speed
    report["unscaled"] = {k: v for k, (v, _) in
                          timing_metrics(result, setup_times, scaled=False).items()}
    print("gate " + json.dumps(report, sort_keys=True))
    # set-up is scaled by the run's median reference time: the speed drifts
    # over minutes, so that time also holds for the set-up just before
    factor = speed.REFERENCE_S / statistics.median(ref for _, _, ref in result.samples)
    metrics = timing_metrics(result, [t * factor for t in setup_times], scaled=True)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["solved_frac"] = (result.count("ok") / len(result.outcome), "ratio")
    return _result(ok, len(result.outcome), result.count("fail"), metrics)


def one_pass(args, root: Path, tracer: Tracer | None = None):
    """Import, build and run every instance once; return the CPU time too."""
    t0 = cpu_time()
    m = load_monoideal(root)
    if tracer is not None:
        tracer.install(m)
    try:
        wl, plan = build(m, root, args)
        result = run_instances(m, wl, plan, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return cpu_time() - t0, wl, plan, result


UNITS = {"calls": "count", "perms": "count", "nodes": "count", "letters": "count",
         "words": "count", "box_points": "count", "killed": "count", "known_defects": "count",
         "self_s": "s", "overhead_s": "s",
         "useful_ratio": "ratio", "found_ratio": "ratio", "kept_ratio": "ratio"}


def traced(args, root: Path) -> dict:
    untraced_s, _, _, plain = one_pass(args, root)
    tracer = Tracer()
    traced_s, wl, plan, result = one_pass(args, root, tracer)
    ok, report = gate(wl, plan, result, recorded(args), args.seed)
    if plain.records != result.records:
        ok = False
        report["notes"].append("traced answers differ from untraced answers")
    print("gate " + json.dumps(report, sort_keys=True))
    out = root / OUTDIR
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")

    sizes = report["sizes"]
    values = tracer.layer_metrics()
    kept = sum(v for k, v in sizes.items() if k.endswith(".representatives"))
    candidates = sum(v for k, v in sizes.items() if k.endswith(".candidates"))
    values["crosscheck.dedup.kept_ratio"] = kept / candidates if candidates else 0.0
    values["cli.child.killed"] = result.events["cli.child.killed"]
    values["gate.known_defects"] = result.count("known")
    values["trace.overhead_s"] = traced_s - untraced_s
    metrics = {name: (v, UNITS[name.rsplit(".", 1)[1]]) for name, v in values.items()}
    return _result(ok, len(result.outcome), result.count("fail"), metrics)


def _result(ok: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.scale = 1.0
    return args


def main(argv=None, scale: float = 1.0) -> int:
    args = parse_args(argv)
    args.scale = scale
    root = Path.cwd()
    try:
        result = measure(args, root)
    except NoPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(root / WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
