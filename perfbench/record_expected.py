"""Regenerate expected.json: sweep sizes and verdict digests at full size.

Run from the repository root, only when a change is meant to change the
answers:  python3 perfbench/record_expected.py
Sizes that are equal for every recorded seed become gate checks.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(10)


def main() -> int:
    root = Path.cwd()
    out = {"sizes": {}, "verdict_digests": {}}
    for name in workloads.WORKLOAD_NAMES:
        digests, sizes = {}, []
        for seed in SEEDS:
            args = run.parse_args(["--workload", name, "--seed", str(seed), "--seconds", "0"])
            _, wl, plan, result = run.one_pass(args, root)
            ok, report = run.gate(wl, plan, result)
            if not ok:
                print(f"{name} seed {seed}: {report['notes']}", file=sys.stderr)
                return 1
            digests[str(seed)] = report["verdict_digest"]
            sizes.append(report["sizes"])
            print(name, seed, report["verdict_digest"], flush=True)
        out["sizes"][name] = {k: v for k, v in sizes[0].items()
                              if all(s.get(k) == v for s in sizes)}
        out["verdict_digests"][name] = digests
    (run.HERE / "expected.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
