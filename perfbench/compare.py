"""Compare two sets of benchmark results, refusing sets from different environments.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds results files as ``run.py`` writes them (a copy of
``perfbench/out/results`` after the runs of one commit).  Results are grouped
by workload and trace mode; for each end-to-end metric the script prints both
medians over the files, the change in the worse direction as a share of the
base median, and whether it exceeds the bound in ``BENCHMARK.json``.  Exit
code 2 means the recorded environments (thread counts, core count, library
versions) differ, so the figures are not comparable; 1 means a bound was
exceeded.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    groups = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        groups[(result["workload"], result["trace"])].append(result)
    return groups


def environments(groups) -> set:
    return {json.dumps(r["env"], sort_keys=True) for results in groups.values() for r in results}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(d)) for d in argv)
    envs = environments(base) | environments(new)
    if len(envs) != 1:
        print("refusing to compare: the results were recorded in different environments")
        for env in sorted(envs):
            print(f"  {env}")
        return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    exceeded = False
    for key in sorted(base.keys() & new.keys()):
        print(f"{key[0]} trace={key[1]} ({len(base[key])} base, {len(new[key])} new runs)")
        for name in base[key][0]["metrics"]:
            b = statistics.median(r["metrics"][name]["value"] for r in base[key])
            n = statistics.median(r["metrics"][name]["value"] for r in new[key])
            line = f"  {name:45s} {b:14.6g} -> {n:14.6g}"
            if name in bounds and b:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                worse = sign * (n - b) / abs(b)
                over = worse > bounds[name]["bound"]
                exceeded |= over
                line += f"  worse by {worse:+.1%} (bound {bounds[name]['bound']:.0%})"
                line += "  EXCEEDED" if over else ""
            print(line)
    return 1 if exceeded else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
