"""Deterministic count reports.

A report holds the ``(ss_label, groups.Stratum)`` rows of one pipeline run,
as the pipeline returned them, and renders them to text or JSON with a fixed
field order, so identical inputs give byte-identical output whatever
exploration order the run used internally.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .groups import Stratum
from .rootdata import GroupSpec
from .spectral import spectral_strata
from .springer import TABLE_VERSION
from .strata import stratified_strata

__all__ = ["CountReport", "spectral_report", "stratified_report",
           "render_text", "render_json"]


class CountReport(namedtuple("CountReport", "group cartan q pipeline strata "
                                              "conventions oracle_total",
                              defaults=(None,))):
    """One pipeline's count for a spec: ``strata`` (a list of
    ``(ss_label, groups.Stratum)`` pairs), the ``conventions`` dict, and the
    oracle's total when it was run."""
    __slots__ = ()

    @property
    def parameter_count(self) -> int:
        return sum(len(stratum.packets) for _, stratum in self.strata)

    @property
    def total(self) -> int:
        return sum(stratum.total for _, stratum in self.strata)

    @property
    def match(self):
        if self.oracle_total is None:
            return None
        return self.total == self.oracle_total


def _report(spec: GroupSpec, pipeline: str, strata, oracle_total) -> CountReport:
    conventions = {
        "q_sqrt": "positive root of q",
        "whittaker_torsor": spec.whittaker_torsor,
        "table_version": TABLE_VERSION,
    }
    return CountReport(group=spec.name, cartan=spec.datum.cartan_label,
                       q=spec.q, pipeline=pipeline, strata=strata,
                       oracle_total=oracle_total, conventions=conventions)


def spectral_report(spec: GroupSpec, rng=None, oracle_total=None) -> CountReport:
    return _report(spec, "spectral", spectral_strata(spec, rng=rng), oracle_total)


def stratified_report(spec: GroupSpec, rng=None, oracle_total=None) -> CountReport:
    return _report(spec, "stratified", stratified_strata(spec, rng=rng),
                   oracle_total)


# ---------------------------------------------------------------------------
# rendering

def _row_dict(ss_label: str, stratum: Stratum) -> dict:
    return {
        "ss": ss_label,
        "labels": dict(stratum.labels),
        "group": stratum.group_desc,
        "packets": [{"x": p.x_label, "size": p.size, "group": p.group_label}
                    for p in stratum.packets],
        "total": stratum.total,
    }


def report_dict(rep: CountReport) -> dict:
    return {
        "group": rep.group,
        "cartan": rep.cartan,
        "q": rep.q,
        "pipeline": rep.pipeline,
        "strata": [_row_dict(*row) for row in rep.strata],
        "parameter_count": rep.parameter_count,
        "total": rep.total,
        "oracle_total": rep.oracle_total,
        "match": rep.match,
        "conventions": rep.conventions,
    }


def render_json(rep: CountReport) -> str:
    return json.dumps(report_dict(rep), indent=2)


def _stratum_body(stratum: Stratum) -> str:
    """A stratum's text after its ``s=`` label: its labels, group and total,
    then one line per packet."""
    labels = " ".join(f"{k}={v}" for k, v in stratum.labels)
    return "\n".join([f"{labels} group={stratum.group_desc}: total {stratum.total}",
                      *(f"    x={p.x_label} packet={p.group_label} size={p.size}"
                        for p in stratum.packets)])


def render_text(rep: CountReport) -> str:
    """The report as text.  The orbits of one semisimple type share their
    strata, so each stratum's body is rendered once, after every ``s=``."""
    lines = [f"group {rep.group} ({rep.cartan}), q = {rep.q}, "
             f"pipeline = {rep.pipeline}"]
    bodies = {}
    for ss_label, stratum in rep.strata:
        body = bodies.get(stratum)
        if body is None:
            body = bodies[stratum] = _stratum_body(stratum)
        lines.append(f"  s={ss_label} {body}")
    lines.append(f"parameters: {rep.parameter_count}")
    lines.append(f"packet-weighted total: {rep.total}")
    if rep.oracle_total is not None:
        verdict = "match" if rep.match else "MISMATCH"
        lines.append(f"oracle total: {rep.oracle_total} ({verdict})")
    conv = rep.conventions
    lines.append(f"conventions: sqrt(q) = {conv['q_sqrt']}; "
                 f"whittaker torsor size {conv['whittaker_torsor']}; "
                 f"tables v{conv['table_version']}")
    return "\n".join(lines) + "\n"
