"""Do two sets of benchmark runs of the same code agree?

Each input file is the ``--json`` output of one all-workload run::

    python3 bench/run.py --json a1.json        # ... a5.json, then b1 ... b5
    python3 bench/agree.py --a a*.json --b b*.json

For every workload and end-to-end metric it prints each set's quartiles
and median, the spread (quartile distance over median), the difference of
the medians and whether it stays within the metric's bound from
``BENCHMARK.json``.  It also requires the repetition-0 digest to be equal
in every run of one seed, and the deterministic per-layer counts of the
traced runs of one seed to be equal.  Exits nonzero on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.measure import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def deterministic(name: str, unit: str) -> bool:
    """Per-layer metrics that must repeat exactly for one seed: counts, not times."""
    return unit in ("count", "B", "ratio") and not name.startswith("trace.")


def compare(set_a: list[dict], set_b: list[dict], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines and whether the sets agree."""
    lines: list[str] = []
    ok = True
    workloads = list(set_a[0]["runs"])
    for workload in workloads:
        for spec in end_to_end:
            name, bound = spec["name"], spec["bound"]
            a = [run["runs"][workload]["untraced"]["result"]["metrics"][name]["value"] for run in set_a]
            b = [run["runs"][workload]["untraced"]["result"]["metrics"][name]["value"] for run in set_b]
            qa, qb = quartiles(a), quartiles(b)
            diff = (qb[1] - qa[1]) / qa[1]
            within = abs(diff) < bound
            ok &= within
            lines.append(
                f"{workload:16} {name:15} {spec['unit']:4} "
                f"A {qa[0]:.4g}/{qa[1]:.4g}/{qa[2]:.4g} spread {(qa[2] - qa[0]) / qa[1]:.3f}  "
                f"B {qb[0]:.4g}/{qb[1]:.4g}/{qb[2]:.4g} spread {(qb[2] - qb[0]) / qb[1]:.3f}  "
                f"diff {diff:+.3f} bound {bound}  {'ok' if within else 'DISAGREE'}"
            )
    runs = set_a + set_b
    for workload in workloads:
        digests: dict[int, set[str]] = {}
        counts: dict[int, set[str]] = {}
        for run in runs:
            for kind, entry in run["runs"][workload].items():
                detail = entry["detail"] or {}
                digests.setdefault(run["seed"], set()).add(detail.get("digest"))
                if kind == "traced" and entry["result"]:
                    metrics = entry["result"]["metrics"]
                    fixed = {k: v["value"] for k, v in metrics.items()
                             if deterministic(k, v["unit"])}
                    counts.setdefault(run["seed"], set()).add(json.dumps(fixed, sort_keys=True))
        for seed, seen in sorted(digests.items()):
            same = len(seen) == 1 and None not in seen
            ok &= same
            lines.append(f"{workload:16} digest seed {seed}: "
                         f"{'identical' if same else 'DIFFERENT'} in {len(runs)} runs")
        for seed, seen in sorted(counts.items()):
            same = len(seen) == 1
            ok &= same
            lines.append(f"{workload:16} per-layer counts seed {seed}: "
                         f"{'identical' if same else 'DIFFERENT'}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", nargs="+", required=True, help="first set of run files")
    parser.add_argument("--b", nargs="+", required=True, help="second set of run files")
    args = parser.parse_args(argv)
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    lines, ok = compare(load(args.a), load(args.b), end_to_end)
    print("\n".join(lines))
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
