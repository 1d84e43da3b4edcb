"""Compare two result sets written by ``run.py --out``.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Prints every metric of every workload the two sets share, with both values
and the ratio AFTER/BEFORE.  Refuses (exit 2) when the kernel backends
differ: the backend alone changes oracle-compare by about 100x (sp4/F3 takes
37 s on the ``python`` backend and 0.36 s on the compiled one).
"""

from __future__ import annotations

import json
import sys


def load(path):
    with open(path) as fh:
        data = json.load(fh)
    facts = {json.dumps(r["facts"], sort_keys=True) for r in data["runs"]}
    return data, [json.loads(f) for f in facts]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (a, fa), (b, fb) = load(argv[0]), load(argv[1])
    backends = {f["backend"] for f in fa + fb}
    if len(backends) != 1:
        print(f"refusing to compare: kernel backends differ "
              f"({', '.join(sorted(backends))})", file=sys.stderr)
        return 2
    for key in ("nproc", "python", "platform", "force_fallback", "cython"):
        va, vb = {f[key] for f in fa}, {f[key] for f in fb}
        if va != vb:
            print(f"# note: {key} differs: {sorted(va)} vs {sorted(vb)}")
    for workload in sorted(set(a["metrics"]) & set(b["metrics"])):
        ma, mb = a["metrics"][workload], b["metrics"][workload]
        for name in ma:
            if name in mb:
                ratio = f"{mb[name] / ma[name]:.3f}" if ma[name] else "-"
                print(f"{workload:18s} {name:44s} {ma[name]:>14.6g} "
                      f"{mb[name]:>14.6g} {ratio:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
