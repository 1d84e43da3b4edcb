"""Self-test of the benchmark.  Run: python3 -m pytest -q perfbench

It runs one small case per workload through ``child.py``, untraced and
traced twice, and checks that the trace is complete, repeatable and
harmless.  It also checks the per-case time limit, the refusal to run
without sources, and the refusal to compare different kernel backends.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

SMALL = {
    "pipelines-large-q": "count:sp4/F11",
    "oracle-compare": "compare:gl3/F3",
    "twisted-grid": "count:su3/F5",
}
TIME_KEYS = (".s", ".self_s")


def child(workload, only, trace=0, case_limit=60.0):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--case-limit", str(case_limit),
         "--only", *only],
        capture_output=True, text=True, env=run._env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def passes():
    out = {}
    for workload, cid in SMALL.items():
        out[workload] = [child(workload, [cid], trace=t) for t in (0, 1, 1)]
    return out


def test_small_cases_exist():
    for workload, cid in SMALL.items():
        assert cid in {cases.case_id(c) for c in cases.WORKLOADS[workload]}


def test_every_per_layer_metric_is_emitted(passes):
    names = [e["name"] for e in run._spec()["per_layer"]]
    emitted = set()
    for runs in passes.values():
        emitted |= {k for k, v in runs[1]["trace"].items() if v}
    derived = {"bench.trace_overhead_frac", "bench.top_span_frac",
               "oracle.elements_per_s"}
    missing = [n for n in names if n not in emitted and n not in derived]
    assert not missing
    for workload, runs in passes.items():
        m = {"passes": {0: runs[:1], 1: runs[1:]}}
        values = run.per_layer(m, names)
        assert set(values) == set(names)


def test_wrappers_sit_at_every_consumer_binding(passes):
    bound = {tuple(b) for b in passes["twisted-grid"][1]["bindings"]}
    for mod, names in {
        "spectral": ["solve_torsion", "enumerate_weyl", "centralizer_subdatum"],
        "strata": ["solve_torsion", "enumerate_weyl", "kl_table", "cells",
                   "centralizer_subdatum"],
        "report": ["spectral_strata", "stratified_strata"],
        "oracle": ["matrix_closure", "matrix_class_count"],
    }.items():
        for name in names:
            assert (f"lpackets.{mod}", name) in bound
    hot = {"mat_vec", "frac_vec_mod1", "mat_inv_unimodular", "x_action",
           "_mat_mul"}
    assert not hot & {name for _, name in bound}


def test_counts_repeat_exactly(passes):
    for runs in passes.values():
        a, b = runs[1]["trace"], runs[2]["trace"]
        counts = {k for k in a if not k.endswith(TIME_KEYS)}
        assert counts and counts == {k for k in b if not k.endswith(TIME_KEYS)}
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_self_times_and_coverage(passes):
    for runs in passes.values():
        for r in runs[1:]:
            for k, v in r["trace"].items():
                if k.endswith(".self_s"):
                    assert v >= -1e-9, k
            assert r["top_s"] >= 0.95 * r["wall_s"]
            assert r["top_s"] <= r["wall_s"]


def test_traced_reports_are_byte_identical(passes):
    for runs in passes.values():
        digests = [[(c["case"], c["digest"], c["problems"]) for c in r["cases"]]
                   for r in runs]
        assert digests[0] == digests[1] == digests[2]
        assert all(not c["problems"] for r in runs for c in r["cases"])


def test_case_limit_fails_the_case_and_the_pass_goes_on():
    r = child("twisted-grid", ["count:gl3/F5", "count:g2/F7"], case_limit=0.001)
    assert len(r["cases"]) == 2
    for c in r["cases"]:
        assert c["problems"] == ["over the time limit of 0.001 s"]
        assert c["s"] < 1.0


def test_run_reports_failures_from_the_case_limit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "twisted-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0",
         "--case-limit", "0.001"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] >= 1 and last["attempted"] % 30 == 0
    assert "over the time limit" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twisted-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_different_backends(tmp_path, capsys):
    def write(name, backend):
        facts = {"nproc": 2, "python": "3", "platform": "x", "backend": backend,
                 "force_fallback": False, "cython": False}
        path = tmp_path / name
        path.write_text(json.dumps({"runs": [{"facts": facts}],
                                    "metrics": {"w": {"wall_s": 1.0}}}))
        return str(path)

    a, b, c = write("a", "python"), write("b", "c"), write("c", "python")
    assert compare.main([a, b]) == 2
    assert compare.main([a, c]) == 0
    assert "1.000" in capsys.readouterr().out


def test_references_match_known_small_values():
    # Sp4(3): 34 classes; G2(5): 44; SL2(3): 7; GL3(2) would be 6 = 8 - 2
    assert cases.reference_total("sp4", 3) == 34
    assert cases.reference_total("g2", 5) == 44
    assert cases.reference_total("sl2", 3) == 7
    assert cases.reference_total("gl3", 2) == 6
    assert cases.reference_total("sl2", 4) is None
