import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lpackets.cli as cli
from lpackets.oracle import OracleResult
from lpackets.report import CountReport


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text_output(capsys):
    code, out, err = run(capsys, ["count", "--group", "sl2", "--q", "3"])
    assert code == 0
    assert "packet-weighted total: 7" in out
    assert "pipeline = spectral" in out


def test_count_json_output(capsys):
    code, out, _ = run(capsys, ["count", "--group", "gl2", "--q", "3",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 8
    assert data["pipeline"] == "spectral"
    assert list(data) == ["group", "cartan", "q", "pipeline", "strata",
                          "parameter_count", "total", "oracle_total",
                          "match", "conventions"]


def test_count_auto_picks_stratified_for_disconnected(capsys):
    code, out, _ = run(capsys, ["count", "--group", "o2", "--q", "3",
                                "--json"])
    assert code == 0
    assert json.loads(out)["pipeline"] == "stratified"


def test_count_both_pipelines(capsys):
    code, out, _ = run(capsys, ["count", "--group", "sl2", "--q", "3",
                                "--pipeline", "both", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["totals_agree"] is True
    assert data["spectral"]["total"] == data["stratified"]["total"] == 7


def test_compare_matches_oracle(capsys):
    code, out, _ = run(capsys, ["compare", "--group", "pgl2", "--q", "3",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["oracle_total"] == 5


def test_config_file_input(tmp_path, capsys):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"type": "A1", "isogeny": "sc", "q": 5}))
    code, out, _ = run(capsys, ["count", "--config", str(cfg), "--json"])
    assert code == 0
    assert json.loads(out)["total"] == 9


def test_q_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps({"type": "A1", "isogeny": "sc", "q": 5}))
    code, out, _ = run(capsys, ["count", "--config", str(cfg), "--q", "3",
                                "--json"])
    assert code == 0
    assert json.loads(out)["total"] == 7


def test_seed_flag_changes_nothing(capsys):
    base = run(capsys, ["count", "--group", "sp4", "--q", "3", "--json"])
    for seed in ("0", "31337"):
        got = run(capsys, ["count", "--group", "sp4", "--q", "3", "--json",
                           "--seed", seed])
        assert got == base


def test_cells_subcommand(capsys):
    code, out, _ = run(capsys, ["cells", "--type", "G2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12
    assert len(data["cells"]) == 3
    fams = sorted(c["family"] for c in data["cells"])
    assert fams == ["1", "1", "S3"]


def test_tables_subcommand(capsys):
    code, out, _ = run(capsys, ["tables", "--json"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"A1", "A2", "B2", "G2"}


def test_oracle_subcommand(capsys):
    code, out, _ = run(capsys, ["oracle", "--group", "gl3", "--q", "2",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 168
    assert data["class_count"] == 6


def test_exit_code_bad_config(capsys):
    assert run(capsys, ["count", "--group", "nope", "--q", "3"])[0] == 2
    assert run(capsys, ["count", "--group", "sl2"])[0] == 2
    assert run(capsys, ["count", "--group", "sl2", "--q", "6"])[0] == 2
    assert run(capsys, ["cells", "--type", "E8"])[0] == 2


def test_exit_code_unsupported(capsys):
    assert run(capsys, ["compare", "--group", "g2", "--q", "5"])[0] == 3
    assert run(capsys, ["oracle", "--group", "g2", "--q", "2"])[0] == 3
    assert run(capsys, ["count", "--group", "sp4", "--q", "2"])[0] == 3


def test_exit_code_spectral_on_disconnected(capsys):
    code, _, err = run(capsys, ["count", "--group", "o2", "--q", "3",
                                "--pipeline", "spectral"])
    assert code == 3
    assert "stratified" in err


def test_exit_code_compare_mismatch(monkeypatch, capsys):
    def fake_oracle(name, q, cap=1 << 20):
        return OracleResult(name=name, q=q, order=1, class_count=999)

    monkeypatch.setattr(cli, "oracle_count", fake_oracle)
    code, _, err = run(capsys, ["compare", "--group", "sl2", "--q", "3"])
    assert code == 5
    assert "999" in err


def test_exit_code_pipeline_disagreement(monkeypatch, capsys):
    def fake_report(spec, rng=None, oracle_total=None):
        conventions = {"q_sqrt": "positive root of q",
                       "whittaker_torsor": 1, "table_version": "1"}
        return CountReport(group=spec.name, cartan="X", q=spec.q,
                           pipeline="stratified", strata=[],
                           conventions=conventions)

    monkeypatch.setitem(cli._REPORTERS, "stratified", fake_report)
    code, _, err = run(capsys, ["count", "--group", "sl2", "--q", "3",
                                "--pipeline", "both"])
    assert code == 4
    assert "disagree" in err


@pytest.mark.parametrize("config", [
    {"type": "A1", "twist": [["a"]]},
    {"type": "A1", "component_group": [[["x"]]]},
    {"type": "A1", "isogeny": [[1, "b"]]},
    {"type": "A1", "component_group": 5},
    {"type": "A1", "twist": [[1.5]]},
    {"type": "A2", "component_group": [[[0.9, 1], [1, 0]]]},
])
def test_malformed_integer_matrices_exit_2(tmp_path, config):
    cfg = tmp_path / "group.json"
    cfg.write_text(json.dumps(config))
    proc = run_cli(["count", "--config", str(cfg), "--q", "3"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr



def run_cli(argv, timeout=60):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "lpackets.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("kind", ["missing", "directory", "truncated",
                                  "not-utf8"])
def test_unreadable_config_exits_2(tmp_path, kind):
    path = tmp_path / "group.json"
    if kind == "directory":
        path = tmp_path
    elif kind == "truncated":
        path.write_text('{"type": "A1", "q"')
    elif kind == "not-utf8":
        path.write_bytes(b'\xff\xfe{"type": "A1"}')
    proc = run_cli(["count", "--config", str(path), "--q", "3"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot read config")


def test_oversized_torus_is_refused_before_solving(tmp_path):
    # T6 at q = 64 has 63^6, about 6 * 10^10, torsion points; run_cli's
    # timeout fails the test if the work is started instead of refused
    cfg = tmp_path / "t6.json"
    cfg.write_text(json.dumps({"type": "T6"}))
    proc = run_cli(["count", "--config", str(cfg), "--q", "64"])
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "torsion points" in proc.stderr


@pytest.mark.parametrize("source", ["flag", "config"])
def test_huge_q_is_refused_before_factoring(tmp_path, source):
    # every datum has rank >= 1, so q - 1 torsion points at least; run_cli's
    # timeout fails the test if q is factored by trial division instead
    if source == "flag":
        argv = ["count", "--group", "gl3", "--q", "1000000007"]
    else:
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"type": "A1", "q": 10 ** 18 + 3}))
        argv = ["count", "--config", str(cfg)]
    proc = run_cli(argv, timeout=20)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "torsion points" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["oracle", "--group", "pgl2", "--q", "64"],
    ["oracle", "--group", "gl2", "--q", "32"],
    ["compare", "--group", "pgl2", "--q", "64"],
])
def test_oracle_refuses_work_over_its_limit(argv):
    # pgl2/F64 (65 x 65 permutation matrices) and gl2/F32 (about 7 s and
    # 135 MB if run) are under the order cap; the message shows that the
    # work limit refused them before the closure
    proc = run_cli(argv, timeout=30)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "row steps" in proc.stderr


# ---------------------------------------------------------------------------
# random configs through the CLI

BASE_RANK = {"A1": 1, "A1xA1": 2, "A2": 2, "B2": 2, "C2": 2, "G2": 2}


def _rank_of(base, isogeny, suffix):
    """The rank a well-formed config would have, to size the drawn
    matrices; a guess only, since the config may be malformed."""
    if base.startswith("T"):
        rank = int(base[1:]) if base[1:].isdigit() else 1
    else:
        rank = BASE_RANK.get(base, 2) + (isogeny == "gl")
    return max(1, min(rank + suffix, 4))


def _matrices(n):
    """Square integer matrices of size n: signed permutation matrices,
    which the parser often admits, and free ones, which it mostly refuses."""
    signed_perm = st.tuples(st.permutations(range(n)),
                            st.lists(st.sampled_from((1, -1)), min_size=n,
                                     max_size=n)).map(
        lambda ps: [[ps[1][i] if j == ps[0][i] else 0 for j in range(n)]
                    for i in range(n)])
    free = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n, max_size=n)
    return st.one_of(signed_perm, free)


@st.composite
def group_configs(draw):
    # valid choices are listed more than once, so that more configs get past
    # the parser; most are still refused, which probes the refusals
    base = draw(st.sampled_from(["T1", "T2", "T3", "A1", "A1", "A1xA1",
                                 "A1xA1", "A2", "A2", "B2", "C2", "G2", "G2",
                                 "T0", "T7", "Tx", "A3", "E8"]))
    suffix = draw(st.sampled_from([0, 0, 0, 1, 2]))
    config = {"type": base + (f"+T{suffix}" if suffix else "")}
    isogeny = draw(st.sampled_from([None, None, None, "sc", "ad", "gl",
                                    "bogus", "matrix"]))
    n = _rank_of(base, isogeny, suffix)
    if isogeny == "matrix":
        config["isogeny"] = draw(_matrices(BASE_RANK.get(base, 2)))
    elif isogeny is not None:
        config["isogeny"] = isogeny
    size = st.sampled_from([n, n, n, n + 1, max(1, n - 1)])
    twist = draw(st.sampled_from(["none", "none", "perm", "matrix"]))
    if twist == "perm":
        config["twist"] = draw(st.one_of(st.permutations(range(2)),
                                         st.lists(st.integers(-1, 3),
                                                  max_size=3)))
    elif twist == "matrix":
        config["twist"] = draw(size.flatmap(_matrices))
    if draw(st.booleans()):
        config["component_group"] = draw(
            st.lists(size.flatmap(_matrices), max_size=2))
    return config


@settings(max_examples=60, deadline=None)
@given(config=group_configs(),
       q=st.one_of(st.sampled_from([2, 3, 4, 5, 7, 8, 9]), st.integers(-1, 9)),
       pipeline=st.sampled_from(["auto", "both"]))
def test_random_configs_exit_cleanly(config, q, pipeline):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["count", "--config", str(path), "--q", str(q),
                             "--pipeline", pipeline])
    assert code in (0, 2, 3), (config, q, err.getvalue())
    assert "Traceback" not in err.getvalue()
