"""One pass of a workload in a fresh interpreter.

Started by ``run.py``, never imported.  It imports lpackets from the
checkout's ``src``, selects the kernel backend, parses every case's spec and
notes that moment on the monotonic clock (shared by all processes on Linux,
so the parent turns it into ``setup_s``).  Then it runs every case under a
per-case time limit, checks it, and prints one JSON object as its only line
of standard output.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1
       [--case-limit SECONDS] [--only CASE_ID ...] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import random
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the package can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout()


def machine_facts(oracle) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": oracle.BACKEND,
        "force_fallback": bool(os.environ.get("LPACKETS_FORCE_FALLBACK")),
        "cython": importlib.util.find_spec("Cython") is not None,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--case-limit", type=float, default=60.0)
    ap.add_argument("--only", nargs="*", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import lpackets.cli  # what the lpackets command imports
    if not Path(lpackets.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"lpackets imported from outside {ROOT / 'src'}")

    import cases
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    workload = cases.WORKLOADS[args.workload]
    if args.only is not None:
        workload = [c for c in workload if cases.case_id(c) in args.only]
    order = list(workload)
    random.Random(args.seed).shuffle(order)
    specs = {}
    for case in order:
        if case[0] != "oracle":
            specs[case] = lpackets.rootdata.parse_group_spec(
                cases.group_config(case[1]), q=case[2])
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    expected = cases.load_digests()
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    top_before = tracer.top_s if tracer is not None else 0.0
    t_pass = time.perf_counter()
    for case in order:
        cid = cases.case_id(case)
        calls = itertools.count()

        def rng_for():
            return random.Random(f"{args.seed}/{cid}/{next(calls)}")

        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, args.case_limit)
        try:
            text, problems = cases.run_case(case, specs.get(case), lpackets,
                                            rng_for)
        except CaseTimeout:
            text, problems = None, [f"over the time limit of {args.case_limit} s"]
        except Exception as exc:  # a failed case is reported, not fatal
            text, problems = None, [f"{type(exc).__name__}: {exc}"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        digest = None if text is None else cases.digest(text)
        if text is not None and digest != expected.get(cid):
            problems.append("report differs from the recorded digest")
        results.append({"case": cid, "s": elapsed, "problems": problems,
                        "digest": digest})
    wall = time.perf_counter() - t_pass

    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cases": results,
        "facts": machine_facts(lpackets.oracle),
    }
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["top_s"] = tracer.top_s - top_before
        out["bindings"] = tracer.bindings
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
