"""The lpackets benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--case-limit SECONDS] [--out FILE]

NAME is one of the workloads in ``cases.WORKLOADS``, or ``all`` to run every
workload in turn and print one table.

Every pass over a workload runs in a fresh interpreter (``child.py``), one
at a time, so each pass pays the cold caches a user pays on every
``lpackets`` call.  With ``--trace 0`` the passes are untraced and the last
line of standard output carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` untraced and traced passes alternate
and it carries the per-layer metrics.  The run starts a new pass only while
one more fits in ``--seconds`` (at least one pass, or one of each kind when
tracing).  ``wall_s`` is the mean over the run's passes; the other metrics
are medians over passes, and ``setup_s`` the median over the setup phases
of several interpreters.

The last line is ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count case executions.  A case fails when a
check fails, when it raises, or when it runs past ``--case-limit``.  Without
``src/lpackets`` beside this directory the script exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402

RUN_LIMIT_S = 170.0      # a whole run must end within this
SETUP_RUNS = 9           # setup-only interpreters per run, after one warm-up


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _env():
    env = dict(os.environ)
    # import compiled bytecode, as an installed package does; the warm-up
    # interpreter writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, workload, seed, case_limit, deadline):
        self.workload = workload
        self.seed = seed
        self.case_limit = case_limit
        self.deadline = deadline
        self.ncases = len(cases.WORKLOADS[workload])
        self.env = _env()

    def child(self, trace=0, setup_only=False):
        """Run one interpreter; return (seconds from spawn to ready, result)
        or (None, None) when it crashed or was stopped at the deadline."""
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--case-limit", str(self.case_limit)]
        if setup_only:
            cmd.append("--setup-only")
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=self.env, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:   # run() has killed and reaped it
            print(f"# {self.workload}: pass stopped at the run deadline")
            return None, None
        if proc.returncode != 0:
            print(f"# {self.workload}: interpreter exited "
                  f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None, None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return result["ready"] - t0, result


def measure(workload, seed, seconds, trace, case_limit):
    """Run one workload; return a dict with everything measured."""
    start = time.monotonic()
    runner = Runner(workload, seed, case_limit, start + RUN_LIMIT_S)
    setups = []
    for i in range(SETUP_RUNS + 1):
        setup, _ = runner.child(setup_only=True)
        if setup is None:
            raise SystemExit(f"{workload}: lpackets could not be set up")
        if i:                       # the first one writes the bytecode
            setups.append(setup)

    passes = {0: [], 1: []}
    attempted = failed = 0
    problems = []
    t_measure = time.monotonic()
    longest = 0.0
    while True:
        kind = trace * (len(passes[0]) + len(passes[1])) % 2
        t0 = time.monotonic()
        setup, result = runner.child(trace=kind)
        longest = max(longest, time.monotonic() - t0)
        attempted += runner.ncases
        if result is None:
            failed += runner.ncases
            problems.append(f"pass {kind}: interpreter crashed or stopped")
            break
        if kind == 0:
            setups.append(setup)
        passes[kind].append(result)
        for c in result["cases"]:
            if c["problems"]:
                failed += 1
                problems.append(f"{c['case']}: {'; '.join(c['problems'])}")
        done_kinds = all(passes[k] for k in range(trace + 1))
        now = time.monotonic()
        if done_kinds and now - t_measure + longest > seconds:
            break
        if now + longest > runner.deadline:
            break

    facts = [r["facts"] for k in passes for r in passes[k]]
    if any(f != facts[0] for f in facts):
        raise SystemExit(f"{workload}: machine facts changed within the run")
    return {"workload": workload, "seed": seed, "setups": setups,
            "passes": passes, "attempted": attempted, "failed": failed,
            "problems": problems, "facts": facts[0] if facts else None}


def mean_wall(passes) -> float:
    """Wall time per pass over a run: the passes' summed wall time divided
    by their number.  The machine's speed drifts in bursts of seconds, and
    the whole run's time averages them out better than the median of a few
    passes does."""
    return statistics.fmean(r["wall_s"] for r in passes)


def end_to_end(m) -> dict:
    untraced = m["passes"][0]
    return {
        "wall_s": mean_wall(untraced),
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def per_layer(m, names) -> dict:
    traced = m["passes"][1]
    wall = mean_wall(m["passes"][0])
    traced_wall = mean_wall(traced)

    def med(key):
        return statistics.median(r["trace"].get(key, 0) for r in traced)

    out = {}
    for name in names:
        if name == "bench.trace_overhead_frac":
            out[name] = (traced_wall - wall) / wall
        elif name == "bench.top_span_frac":
            out[name] = statistics.median(r["top_s"] / r["wall_s"] for r in traced)
        elif name == "oracle.elements_per_s":
            # base: oracle.matrix_closure.elements / oracle.matrix_closure.s
            secs = med("oracle.matrix_closure.s")
            out[name] = med("oracle.matrix_closure.elements") / secs if secs else 0.0
        else:
            out[name] = med(name)
    return out


def case_table(m) -> list[str]:
    rows = {}
    for r in m["passes"][0]:
        for c in r["cases"]:
            rows.setdefault(c["case"], []).append(c["s"])
    return [f"#   {cid:32s} {statistics.median(ts):9.4f} s"
            for cid, ts in sorted(rows.items())]


def report_one(m, trace, spec) -> dict:
    """Print the human-readable lines for one workload; return the metrics
    for the result line."""
    f = m["facts"]
    print(f"# workload {m['workload']}, seed {m['seed']}: "
          f"{len(m['passes'][0])} untraced and {len(m['passes'][1])} traced "
          f"passes, {len(m['setups'])} setups")
    if f:
        print(f"# machine: nproc {f['nproc']}, Python {f['python']}, "
              f"{f['platform']}, backend {f['backend']}, LPACKETS_FORCE_"
              f"FALLBACK {'set' if f['force_fallback'] else 'unset'}, "
              f"Cython {'importable' if f['cython'] else 'absent'}")
    for p in m["problems"]:
        print(f"# FAILED {p}")
    if not m["passes"][0] or (trace and not m["passes"][1]):
        return {}
    print("# median seconds per case (untraced):")
    for line in case_table(m):
        print(line)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(m, [e["name"] for e in entries]) if trace else end_to_end(m)
    for e in entries:
        print(f"# {e['name']:44s} {values[e['name']]:>16.6g} {e['unit']}")
    if trace:
        print("# .products counts are computed, not measured: |G|*|gens| for "
              "the closure, 2*|G|*|gens| for the class count; "
              "oracle.elements_per_s = oracle.matrix_closure.elements / "
              "oracle.matrix_closure.s")
    print(f"# {'fail_frac':44s} {m['failed'] / m['attempted']:>16.6g} frac "
          f"({m['failed']} of {m['attempted']} case executions)")
    return values


def summary(runs, metrics, entries) -> None:
    """One table of the end-to-end metrics of every workload."""
    cols = [f"{e['name']} [{e['unit']}]" for e in entries] + ["fail_frac [frac]"]
    print("# " + f"{'workload':18s}" + "".join(f"{c:>20s}" for c in cols))
    for m in runs:
        values = metrics[m["workload"]]
        cells = [values.get(e["name"], float("nan")) for e in entries]
        cells.append(m["failed"] / m["attempted"])
        print("# " + f"{m['workload']:18s}" + "".join(f"{v:>20.6g}" for v in cells))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="the lpackets benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[*cases.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--case-limit", type=float, default=60.0,
                    help="seconds one case may run before it counts as failed")
    ap.add_argument("--out", help="also write every measurement to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lpackets" / "__init__.py").is_file():
        print(f"no lpackets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    names = list(cases.WORKLOADS) if args.workload == "all" else [args.workload]
    runs, metrics = [], {}
    for name in names:
        m = measure(name, args.seed, args.seconds, args.trace, args.case_limit)
        runs.append(m)
        metrics[name] = report_one(m, args.trace, spec)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"trace": args.trace, "runs": runs, "metrics": metrics},
                      fh, indent=1)
    attempted = sum(m["attempted"] for m in runs)
    failed = sum(m["failed"] for m in runs)
    correct = failed == 0 and all(metrics.values())
    entries = spec["per_layer" if args.trace else "end_to_end"]
    units = {e["name"]: e["unit"] for e in entries}

    def with_units(values):
        return {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    if args.workload == "all":
        if not args.trace:
            summary(runs, metrics, entries)
        result = {w: with_units(v) for w, v in metrics.items()}
    else:
        result = with_units(metrics[args.workload])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
