"""Workloads of the lpackets benchmark, the reference class numbers, and the
per-case correctness checks.

A case is one user command, run through the same public calls the CLI makes:

- ``count``: ``count --pipeline both`` for a connected group, and the
  stratified pipeline alone (what ``--pipeline auto`` picks) for a
  disconnected one;
- ``compare``: the ``auto`` pipeline checked against ``oracle_count``;
- ``oracle``: ``oracle_count`` alone, for groups the pipelines refuse.

Every case renders the text the CLI would print.  Its sha256 is compared with
the digest recorded in ``digests.json``, so the reports must stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# Group configurations outside the named shortcuts.  The labels are the
# names under which the cases appear in the benchmark output.
SWAP = [[0, 1], [1, 0]]
CONFIGS = {
    "su3": {"type": "A2", "isogeny": "sc", "twist": [1, 0]},
    "pu3": {"type": "A2", "isogeny": "ad", "twist": [1, 0]},
    "a1xa1-twisted": {"type": "A1xA1", "twist": [1, 0]},
    "a1xa1-swap": {"type": "A1xA1", "component_group": [SWAP]},
    "a2ad-swap": {"type": "A2", "isogeny": "ad", "component_group": [SWAP]},
    "t2-swap": {"type": "T2", "component_group": [SWAP]},
    "a1+t1": {"type": "A1+T1"},
}

NAMED = ("sl2", "gl2", "pgl2", "gl3", "sp4", "g2", "torus1", "o2")


def _twisted_grid():
    cases = []
    for name in NAMED:
        # p = 3 is a bad prime for G2, so g2 moves up to q = 5, 7
        for q in ((5, 7) if name == "g2" else (3, 5)):
            cases.append(("count", name, q))
    for label in CONFIGS:
        for q in (5, 7):
            cases.append(("count", label, q))
    return cases


WORKLOADS = {
    "pipelines-large-q": [
        ("count", "gl3", 7),
        ("count", "g2", 13),
        ("count", "sp4", 11),
        ("count", "gl2", 25),
    ],
    "oracle-compare": [
        ("compare", "sl2", 49),
        ("compare", "gl2", 16),
        ("compare", "gl3", 3),
        ("compare", "pgl2", 11),
        # B2 pipelines refuse p = 2, so Sp4(2) gets the oracle only
        ("oracle", "sp4", 2),
    ],
    "twisted-grid": _twisted_grid(),
}


def case_id(case) -> str:
    command, label, q = case
    return f"{command}:{label}/F{q}"


def group_config(label: str):
    """What ``parse_group_spec`` receives: a shortcut name or a config."""
    return CONFIGS.get(label, label)


# ---------------------------------------------------------------------------
# reference class numbers (number of conjugacy classes of the finite group)

def reference_total(label: str, q: int):
    """Class number of the finite group from the literature, or None where
    no formula is recorded here."""
    odd = q % 2 == 1
    if label == "gl3":
        return q**3 - q                   # Steinberg 1951, Green 1955
    if label == "gl2":
        return q * q - 1                  # Steinberg 1951, Green 1955
    if label == "sl2" and odd:
        return q + 4                      # Jordan 1907, Schur 1907
    if label == "pgl2" and odd:
        return q + 2                      # Jordan 1907, Schur 1907
    if label == "sp4" and odd:
        return q * q + 5 * q + 10         # Srinivasan 1968
    if label == "sp4" and q == 2:
        return 11                         # Sp4(2) = S6: 11 partitions of 6
    if label == "g2" and q % 2 and q % 3:
        return q * q + 2 * q + 9          # Chang and Ree 1974, p > 3
    if label == "torus1":
        return q - 1                      # abelian of order q - 1
    if label == "o2" and odd:
        return (q - 1) // 2 + 3           # dihedral of order 2(q - 1)
    return None


# ---------------------------------------------------------------------------
# running one case

def run_case(case, spec, lp, rng_for):
    """Run one case and return ``(text, problems)``.

    ``lp`` is the lpackets package.  Functions are looked up on its modules
    at call time, so that the wrappers of a traced pass are used.
    ``rng_for()`` returns the exploration rng for one pipeline call.
    ``problems`` lists every failed check except the digest.
    """
    command, label, q = case
    report, oracle = lp.report, lp.oracle
    problems = []
    if command == "oracle":
        res = oracle.oracle_count(label, q)
        total = res.class_count
        text = (f"{res.name} over F_{res.q}: order {res.order}, "
                f"{res.class_count} conjugacy classes\n")
    elif command == "compare":
        res = oracle.oracle_count(spec.name, q)
        make = report.spectral_report if spec.connected else report.stratified_report
        rep = make(spec, rng=rng_for(), oracle_total=res.class_count)
        text = report.render_text(rep)
        total = rep.total
        if not rep.match:
            problems.append(f"pipeline total {rep.total} != oracle "
                            f"{res.class_count}")
    elif spec.connected:
        reps = [report.spectral_report(spec, rng=rng_for()),
                report.stratified_report(spec, rng=rng_for())]
        agree = reps[0].total == reps[1].total
        text = "".join(report.render_text(r) for r in reps) + \
            f"totals agree: {agree}\n"
        total = reps[1].total
        if not agree:
            problems.append(f"spectral total {reps[0].total} != stratified "
                            f"{reps[1].total}")
    else:
        rep = report.stratified_report(spec, rng=rng_for())
        text = report.render_text(rep)
        total = rep.total
    ref = reference_total(label, q)
    if ref is not None and total != ref:
        problems.append(f"total {total} != reference class number {ref}")
    return text, problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)
