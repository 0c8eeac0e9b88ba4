"""CLI dispatch: exit codes, CSV round-trips, and output formats."""

import argparse
import ast
import csv
import inspect
import json
import math
import shlex

import numpy as np
import pytest

import rankone
from rankone import ballavg, cli
from rankone.ballavg import ball_volume, psi_lipschitz_check, volume_regularity
from rankone.errors import ConvergenceError
from rankone.groups import complementary, make_group
from rankone.spherical import spherical_fn_many
from rankone.surface import HPoint, mc_average, parse_observable


def _read_csv(path):
    comments, rows = [], []
    with open(path, newline="") as handle:
        for record in csv.reader(line for line in handle if not line.startswith("#")):
            rows.append(record)
    with open(path) as handle:
        comments = [line for line in handle if line.startswith("#")]
    return comments, rows[0], rows[1:]


def test_volume_single_value(capsys):
    assert cli.main(["volume", "--group", "so:3", "--t", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("0.40671510196175")
    assert float(out) == pytest.approx(0.40671510196175464, rel=1e-12)


def test_missing_required_flag_exits_1(capsys):
    assert cli.main(["mc", "--samples", "10"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_flag_exits_1(capsys):
    assert cli.main(["sphfn", "--param", "c:0.5", "--bogus"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["frobnicate"]) == 1


def test_bad_param_value_exits_1(capsys):
    assert cli.main(["sphfn", "--param", "q:9"]) == 1
    assert "bad spectral parameter" in capsys.readouterr().err


def test_bad_group_exits_1(capsys):
    for group in ("so:1", "custom:1,x"):
        assert cli.main(["volume", "--group", group, "--t", "1"]) == 1
        assert "rankone: error:" in capsys.readouterr().err


def test_verify_rejects_other_groups(capsys):
    # verify runs the pinned so:3 suite and takes no --group at all
    for group in ("su:4", "so:3"):
        assert cli.main(["verify", "--group", group]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["mc", "--t", "1.5", "--samples", "100", "--obs", "cusp:2", "--seed", "-1"],
    ["mc-scan", "--t-grid", "1,2", "--samples", "100", "--obs", "cusp:2", "--seed", "-3"],
    ["sphfn", "--param", "c:0.5", "--t-max", "400"],
    ["grid", "--delta", "0.5", "--enumerate-limit", "-5"],
    # one step past the domain of the closed-form sums, and far past it
    ["grid", "--delta", "0.5", "--m-max", "919"],
    ["grid", "--delta", "0.5", "--m-max", "5000"],
    # one step past the point cap, and where e^{delta m_max/2} overflows
    ["grid", "--delta", "0.5", "--m-max", "56", "--points"],
    ["grid", "--delta", "0.5", "--m-max", "5000", "--points"],
    # an enumerated interval would hold e^40 points
    ["grid", "--delta", "2", "--m-max", "40"],
    # a radius range needs two steps and t-max above t-min
    ["sphfn", "--param", "c:0.5", "--steps", "1"],
    ["sphfn", "--param", "c:0.5", "--t-min", "2", "--t-max", "2"],
    ["volume", "--t-min", "3", "--t-max", "1"],
    ["mc-scan", "--t-grid", "1:x:1", "--samples", "100", "--obs", "cusp:2"],
    ["mc-scan", "--t-grid", "1:3:0", "--samples", "100", "--obs", "cusp:2"],
    ["mc-scan", "--t-grid", "1,,2", "--samples", "100", "--obs", "cusp:2"],
    ["mc", "--t", "1", "--samples", "100", "--obs", "cusp:2", "--base", "0.1"],
    ["mc", "--t", "1", "--samples", "100", "--obs", "cusp:2", "--base", "0.1,y"],
    ["mc", "--t", "1", "--samples", "100", "--obs", "cusp:2", "--base", "0.1,-1"],
    ["psi", "--param", "c:0.5", "--t-min", "0"],
    ["volume"],
], ids=["mc-seed", "mc-scan-seed", "sphfn-radius", "grid-enumerate-limit",
        "grid-m-max", "grid-m-max-overflow", "grid-points-cap", "grid-points-overflow",
        "grid-enumeration-cap", "steps-1", "t-max-at-t-min", "t-max-below-t-min",
        "t-grid-malformed", "t-grid-step-0", "t-grid-empty-entry", "base-one-coordinate",
        "base-malformed", "base-below-axis", "psi-t-min-0", "volume-no-radius"])
def test_out_of_domain_input_exits_1(args, capsys):
    assert cli.main(args) == 1
    assert "rankone: error:" in capsys.readouterr().err


def test_out_path_in_missing_directory_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "volume.csv"
    assert cli.main(["volume", "--t-max", "2", "--steps", "3", "--out", str(out)]) == 1
    assert "rankone: error:" in capsys.readouterr().err
    assert not out.parent.exists()


def _args_reads(name, defs, seen):
    # Options read as args.X or getattr(args, "X", ...) in the function, and
    # in every cli function it passes args to.
    seen.add(name)
    reads = set()
    for node in ast.walk(defs[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                reads.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            passed = [a for a in node.args if isinstance(a, ast.Name) and a.id == "args"]
            if node.func.id == "getattr" and passed and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
            elif passed and node.func.id in defs and node.func.id not in seen:
                reads |= _args_reads(node.func.id, defs, seen)
    return reads


def test_every_cli_option_is_read():
    tree = ast.parse(inspect.getsource(cli))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, sub in subparsers.choices.items():
        declared = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        reads = _args_reads(sub.get_default("fn").__name__, defs, set())
        if declared - reads:
            unread[command] = sorted(declared - reads)
    assert unread == {}


def test_convergence_failure_exits_2(monkeypatch, capsys):
    def boom(group, t):
        raise ConvergenceError("synthetic")

    monkeypatch.setattr(cli, "ball_volume", boom)
    assert cli.main(["volume", "--group", "so:3", "--t", "1"]) == 2
    assert "convergence" in capsys.readouterr().err


def test_sphfn_csv_round_trip(tmp_path):
    out = tmp_path / "sphfn.csv"
    code = cli.main(
        ["sphfn", "--group", "so:3", "--param", "c:0.5",
         "--t-min", "0.5", "--t-max", "4", "--steps", "8", "--out", str(out)]
    )
    assert code == 0
    comments, header, rows = _read_csv(out)
    assert header == ["t", "phi", "decay_envelope", "asymptote_ratio"]
    assert comments and "rankone" in comments[0] and "sphfn" in comments[0]
    ts = np.linspace(0.5, 4.0, 8)
    expected = spherical_fn_many(make_group("so", 3), complementary(0.5), ts)
    for row, t, phi in zip(rows, ts, expected):
        # every float round-trips exactly through the file
        assert float(row[0]) == t
        assert float(row[1]) == phi


def test_psi_csv_checks(tmp_path):
    out = tmp_path / "psi.csv"
    code = cli.main(
        ["psi", "--group", "so:3", "--param", "c:0.5", "--t-min", "0.5",
         "--t-max", "3", "--steps", "6", "--check-lipschitz",
         "--check-bound", "0.5", "--out", str(out)]
    )
    assert code == 0
    comments, header, rows = _read_csv(out)
    assert header == ["t", "psi", "psi_times_envelope", "bound_ratio"]
    assert any("shell bound verified" in c for c in comments)
    assert any("bound check" in c for c in comments)
    for row in rows:
        assert math.isfinite(float(row[3]))


def _count_volume_passes(monkeypatch):
    # the radii of every _ball_volumes call
    calls = []
    original = ballavg._ball_volumes

    def counting(group, radii):
        calls.append(np.array(radii))
        return original(group, radii)

    monkeypatch.setattr(ballavg, "_ball_volumes", counting)
    return calls


def test_volume_table_is_one_pass_per_grid(tmp_path, monkeypatch):
    calls = _count_volume_passes(monkeypatch)
    out = tmp_path / "volume.csv"
    assert cli.main(
        ["volume", "--group", "su:3", "--t-min", "0.5", "--t-max", "9", "--steps", "7",
         "--eps", "0.01", "--out", str(out)]
    ) == 0
    # the volumes over the grid, then the regularity over t and t + eps
    ts = np.linspace(0.5, 9.0, 7)
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0], ts)
    np.testing.assert_array_equal(calls[1], np.concatenate([ts, ts + 0.01]))
    _, header, rows = _read_csv(out)
    assert header == ["t", "volume", "regularity"]
    group = make_group("su", 3)
    for row, t in zip(rows, ts):
        assert float(row[0]) == t
        assert float(row[1]) == pytest.approx(ball_volume(group, t), rel=1e-12)
        assert float(row[2]) == pytest.approx(volume_regularity(group, t, 0.01), rel=1e-9)


def test_volume_table_zero_radius(tmp_path):
    out = tmp_path / "volume.csv"
    args = ["volume", "--group", "f4", "--t-min", "0", "--t-max", "3", "--steps", "4"]
    assert cli.main(args + ["--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert float(rows[0][1]) == 0.0 and math.isnan(float(rows[0][2]))
    assert cli.main(args + ["--eps", "0.01"]) == 1  # regularity needs t > 0


def test_psi_lipschitz_check_is_one_pass_per_grid(tmp_path, monkeypatch):
    calls = _count_volume_passes(monkeypatch)
    out = tmp_path / "psi.csv"
    assert cli.main(
        ["psi", "--group", "so:3", "--param", "p:1", "--t-min", "0.5",
         "--t-max", "10", "--steps", "12", "--check-lipschitz", "--out", str(out)]
    ) == 0
    # the table's psi, then the check's psi and shell bounds, each one pass
    ts = np.linspace(0.5, 10.0, 12)
    assert len(calls) == 3
    for radii in calls:
        np.testing.assert_array_equal(radii, ts)


def test_psi_lipschitz_violation_exits_2(monkeypatch):
    # a shell bound below its jump must fail the command
    def shrunk(group, param, ts):
        jumps, _ = psi_lipschitz_check(group, param, ts)
        return jumps, 0.5 * jumps

    monkeypatch.setattr(cli, "psi_lipschitz_check", shrunk)
    assert cli.main(
        ["psi", "--group", "so:3", "--param", "c:0.5", "--t-min", "0.5",
         "--t-max", "3", "--steps", "6", "--check-lipschitz"]
    ) == 2


def test_psi_without_bound_flag_emits_nan(tmp_path):
    out = tmp_path / "psi.csv"
    assert cli.main(
        ["psi", "--param", "c:0.5", "--t-min", "1", "--t-max", "2",
         "--steps", "3", "--out", str(out)]
    ) == 0
    _, _, rows = _read_csv(out)
    assert all(math.isnan(float(row[3])) for row in rows)


def test_simulate_from_config(tmp_path):
    cfg = {
        "group": "so:3",
        "atoms": [1.0, 0.7],
        "r": 0.4,
        "omega": [{"param": "c:0.4", "weight": 1.0}, {"param": "p:1.0", "weight": 1.0}],
        "f": {"atom_norms": [1.0, 1.0], "omega_norms": [1.0, 1.0]},
    }
    spec_path = tmp_path / "spectrum.json"
    spec_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.csv"
    code = cli.main(
        ["simulate", "--spec", str(spec_path), "--t-max", "10",
         "--steps", "10", "--out", str(out)]
    )
    assert code == 0
    _, header, rows = _read_csv(out)
    assert header == ["t", "deviation", "envelope", "ratio", "direction_distance"]
    assert len(rows) == 10
    devs = np.array([float(r[1]) for r in rows])
    assert np.all(np.diff(devs) < 0.0)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_without_a_fitted_exponent(fmt, tmp_path):
    # with no continuous part and the second atom's norm 0 at most one
    # deviation is positive, so no exponent is fitted and the comment
    # line is left out
    cfg = {
        "group": "so:3",
        "atoms": [1.0, 0.7],
        "r": 0.4,
        "omega": [],
        "f": {"atom_norms": [1.0, 0.0], "omega_norms": []},
    }
    spec_path = tmp_path / "spectrum.json"
    spec_path.write_text(json.dumps(cfg))
    out = tmp_path / f"report.{fmt}"
    code = cli.main(
        ["simulate", "--spec", str(spec_path), "--t-max", "10", "--steps", "5",
         "--format", fmt, "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    if fmt == "json":
        payload = json.loads(text)
        assert len(payload["rows"]) == 5
        comments = payload["comments"]
    else:
        comments = [line[2:] for line in text.splitlines() if line.startswith("# ")][1:]
    assert len(comments) == 1 and comments[0].startswith("sup ratio ")


def test_simulate_impure_config_exits_1(tmp_path, capsys):
    cfg = {
        "group": "so:3",
        "atoms": [1.0, 0.2],  # s_1 below r
        "r": 0.4,
        "f": {"atom_norms": [1.0, 1.0]},
    }
    spec_path = tmp_path / "impure.json"
    spec_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--spec", str(spec_path)]) == 1
    assert "rankone: error: invalid spectrum: atom s_1 = 0.2 is not above r = 0.4" in (
        capsys.readouterr().err
    )


def test_simulate_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["simulate", "--spec", str(tmp_path / "nope.json")]) == 1


def test_mc_single_line_and_append(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    for seed in ("3", "4"):
        code = cli.main(
            ["mc", "--t", "1.5", "--samples", "2000", "--obs", "cusp:2.0",
             "--seed", seed, "--out", str(out)]
        )
        assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert "estimate=" in printed[0] and "stderr=" in printed[0]
    comments, header, rows = _read_csv(out)
    assert len(comments) == 1  # single metadata line despite two appends
    assert header[:4] == ["t", "samples", "seed", "observable"]
    assert len(rows) == 2
    assert rows[0][2] == "3" and rows[1][2] == "4"


_MC_COLUMNS = ["t", "samples", "seed", "observable", "base_x", "base_y",
               "estimate", "stderr", "space_mean", "ball_mean", "z"]


def test_mc_json_matches_mc_average_and_appends(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    argv = ["mc", "--t", "1.5", "--samples", "2000", "--obs", "cusp:2.0",
            "--seed", "3", "--base", "0.1,1.3", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"tool", "version", "invocation", "t", "samples", "seed",
                            "observable", "base", "estimate", "stderr",
                            "space_mean", "ball_mean", "z"}
    assert payload["tool"] == "rankone" and payload["version"] == rankone.__version__
    assert payload["invocation"] == "rankone " + " ".join(argv[:-1] + [shlex.quote(str(out))])
    assert (payload["t"], payload["samples"], payload["seed"]) == (1.5, 2000, 3)
    assert payload["observable"] == "cusp:2" and payload["base"] == [0.1, 1.3]
    obs = parse_observable("cusp:2.0")
    base = HPoint(0.1, 1.3)
    run = mc_average(1.5, 2000, obs, 3, base=base)
    # JSON floats round-trip, so equality here is bit for bit
    assert payload["estimate"] == run.estimate and payload["stderr"] == run.standard_error
    assert payload["space_mean"] == obs.mean()
    # the exact ball average, the value estimated, and the estimate's z
    # against it; the space mean lies 20 standard errors away at t = 1.5
    ball_mean = obs.ball_mean(1.5, base)
    z = (run.estimate - ball_mean) / run.standard_error
    assert payload["ball_mean"] == ball_mean and payload["z"] == z
    assert abs(z) < 4.0 and abs(obs.mean() - ball_mean) > 20.0 * run.standard_error
    # --out still appends one CSV row in JSON mode
    comments, header, rows = _read_csv(out)
    assert len(comments) == 1 and len(rows) == 1
    assert header == _MC_COLUMNS
    assert float(rows[0][6]) == run.estimate and float(rows[0][7]) == run.standard_error
    assert [float(v) for v in rows[0][8:]] == [obs.mean(), ball_mean, z]
    assert cli.main(argv) == 0
    assert len(_read_csv(out)[2]) == 2


def test_mc_refuses_to_append_under_other_columns(tmp_path, capsys, monkeypatch):
    # a file with the columns rankone mc wrote before space_mean replaced
    # target: the run exits 1 before any draw, printing no result, and
    # leaves the file as it was
    out = tmp_path / "old.csv"
    old = "# rankone 0.1.0 :: rankone mc\nt,samples,seed,observable,base_x,base_y,estimate,stderr,target\n1,10,1,cusp:2,0.1,1.3,0,0,0.47\n"
    out.write_text(old)
    argv = ["mc", "--t", "1", "--samples", "10", "--obs", "cusp:2", "--out", str(out)]

    def refuse(*args, **kwargs):
        raise AssertionError("no Monte Carlo run may start")

    monkeypatch.setattr(cli, "mc_average", refuse)
    assert cli.main(argv) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and "columns" in printed.err
    assert out.read_text() == old


@pytest.mark.parametrize(
    "t, obs, ball_mean, z",
    [
        ("1.5", "cusp:2.0", True, True),
        ("12", "cusp:2.0", True, True),
        # no exact ball average past t = 12, at t = 0, or for a disk
        ("12.5", "cusp:2.0", False, False),
        ("0", "cusp:2.0", False, False),
        ("1.5", "disk:0,1.5,0.25", False, False),
        # every sample is below the cusp line: standard error 0, no z
        ("1e-9", "cusp:2.0", True, False),
    ],
)
def test_mc_prints_ball_mean_and_z_where_defined(t, obs, ball_mean, z, tmp_path, capsys):
    out = tmp_path / "mc.csv"
    argv = ["mc", "--t", t, "--samples", "500", "--obs", obs, "--seed", "5"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    fields = dict(item.split("=", 1) for item in capsys.readouterr().out.split())
    assert cli.main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _, header, rows = _read_csv(out)
    row = dict(zip(header, rows[0]))
    assert "target" not in fields and "target" not in payload and header == _MC_COLUMNS
    observable = parse_observable(obs)
    assert float(fields["space_mean"]) == payload["space_mean"] == float(row["space_mean"]) == observable.mean()
    for key, defined in (("ball_mean", ball_mean), ("z", z)):
        assert (key in fields) == defined
        assert (payload[key] is not None) == defined
        assert (row[key] != "") == defined
        if defined:
            assert float(fields[key]) == payload[key] == float(row[key])
    if ball_mean:
        assert payload["ball_mean"] == observable.ball_mean(float(t), HPoint(0.1, 1.3))
    if z:
        assert payload["z"] == (payload["estimate"] - payload["ball_mean"]) / payload["stderr"]
    else:
        assert payload["stderr"] == 0.0 or not ball_mean


def test_mc_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = cli.main(
        ["mc-scan", "--t-grid", "1:3:1", "--samples", "5000",
         "--obs", "cusp:2.0", "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    comments, header, rows = _read_csv(out)
    assert header == ["t", "estimate", "stderr", "deviation", "envelope"]
    assert [float(r[0]) for r in rows] == [1.0, 2.0, 3.0]
    target = 3.0 / (2.0 * math.pi)
    for row in rows:
        assert float(row[3]) == pytest.approx(abs(float(row[1]) - target), abs=1e-15)


def test_grid_summability_table(tmp_path):
    out = tmp_path / "grid.csv"
    assert cli.main(
        ["grid", "--delta", "0.5", "--m-max", "12",
         "--enumerate-limit", "12", "--out", str(out)]
    ) == 0
    comments, header, rows = _read_csv(out)
    assert header[0] == "m" and len(rows) == 12
    assert any("cauchy" in c for c in comments)


def test_grid_points_mode(capsys):
    assert cli.main(["grid", "--delta", "0.5", "--m-max", "2", "--points"]) == 0
    out = capsys.readouterr().out
    assert "index,t" in out


def test_json_format(capsys):
    assert cli.main(
        ["sphfn", "--param", "trivial", "--t-min", "1", "--t-max", "2",
         "--steps", "2", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "rankone"
    assert payload["columns"][0] == "t"
    assert payload["rows"][0][1] == 1.0  # trivial phi
    assert "sphfn" in payload["invocation"]


def test_trivial_param_ratio_is_nan(capsys):
    assert cli.main(
        ["sphfn", "--param", "trivial", "--t-min", "1", "--t-max", "2", "--steps", "2"]
    ) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[1].split(",")[3] == "nan"
