"""Command-line workflows: outputs, verdicts, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import bubblescape
from bubblescape.bubbles import ResidualRow, ResidualTable
from bubblescape.cli import main
from bubblescape.geometry import load_domain
from bubblescape.landscape import constants as model_constants
from bubblescape.quadrature import QuadratureConfig, _folded_fans, psi_integrals

FAST = ["--near-budget", "4096", "--far-shells", "16", "--replicates", "2"]
MID = ["--near-budget", "32768", "--far-shells", "24", "--replicates", "4", "--multistart", "4"]


def write_domain(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def ball3_file(tmp_path):
    return write_domain(
        tmp_path, "ball3.json", {"dimension": 3, "root": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}}
    )


def ball4_file(tmp_path):
    return write_domain(
        tmp_path,
        "ball4.json",
        {"dimension": 4, "root": {"type": "ball", "center": [0.0, 0.0, 0.0, 0.0], "radius": 1.0}},
    )


def read_csv(path):
    comments, header, rows = [], None, []
    for line in open(path).read().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def snapshot(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_command(tmp_path):
    out = str(tmp_path / "c")
    assert main(["constants", "--dim", "4", "--out", out]) == 0
    payload = json.loads(open(os.path.join(out, "constants.json")).read())
    consts = model_constants(4)
    assert payload["dimension"] == 4
    assert payload["values"]["c1"] == pytest.approx(32.0, rel=1e-9)
    assert payload["values"]["a"] == consts.a
    assert set(payload["provenance"]) == set(payload["values"])
    # the nodal log term reads c2, so no copy of it is written; provenance comes from Constants' fields
    assert len(payload["values"]) == 13 and "c2_nodal" not in payload["values"]
    assert payload["provenance"]["c2"] == "Beta integral (log-derivative coupling)"
    assert payload["provenance"]["c4_nodal"] == "Beta integral (half-space wall kernel)"
    assert payload["provenance"]["log_mass"] == "Beta-digamma closed form of the log-weighted bubble moment"
    assert payload["provenance"]["b"] == "Beta-digamma closed form of the log-weighted moment (first-order coefficient)"
    # rerun into the same directory: byte-identical files
    first = snapshot(out)
    assert main(["constants", "--dim", "4", "--out", out]) == 0
    assert snapshot(out) == first


def test_constants_requires_dim(tmp_path):
    assert main(["constants", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# psi-grid
# ---------------------------------------------------------------------------


def test_psi_grid_ball_argmin_at_center(tmp_path):
    out = str(tmp_path / "g")
    rc = main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--steps", "9", "9", "--lo", "-1.2", "-1.2", "--hi", "1.2", "1.2"]
    )
    assert rc == 0
    comments, header, rows = read_csv(os.path.join(out, "psi_grid.csv"))
    assert header == ["i", "j", "x0", "x1", "psi"]
    assert any("sentinel -1.0" in c for c in comments)
    assert any(c.startswith("# summary: min=") for c in comments)
    cells = {(int(r[0]), int(r[1])): float(r[4]) for r in rows}
    assert len(cells) == 81
    assert cells[(0, 0)] == -1.0  # corner lies outside the ball
    interior = {k: v for k, v in cells.items() if v != -1.0}
    assert all(v > 0.0 for v in interior.values())
    assert min(interior, key=interior.get) == (4, 4)  # the center cell
    assert interior[(4, 4)] == pytest.approx(4.0 * np.pi / 3.0, rel=1e-9)
    # reproducibility: rerun into the same directory
    first = snapshot(out)
    rc = main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--steps", "9", "9", "--lo", "-1.2", "-1.2", "--hi", "1.2", "1.2"]
    )
    assert rc == 0 and snapshot(out) == first


def test_psi_grid_reports_unconverged_cells(tmp_path, capsys):
    out = str(tmp_path / "g")
    rc = main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--steps", "3", "3", "--lo", "-0.9", "-0.9", "--hi", "0.9", "0.9"]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    match = re.match(r"psi-grid: (\d+) interior cells of 9 \((\d+) not converged\); ", line)
    assert match, line
    # the centre cell is exact; the off-centre cells miss 1e-3 at this budget
    assert 0 < int(match.group(2)) < int(match.group(1))


def test_psi_grid_csv_is_plain_lf_decimal_dot(tmp_path):
    out = str(tmp_path / "g")
    main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--steps", "3", "3", "--lo", "-0.4", "-0.4", "--hi", "0.4", "0.4"]
    )
    blob = open(os.path.join(out, "psi_grid.csv"), "rb").read()
    assert b"\r" not in blob
    text = blob.decode("ascii")
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert all(line.count(",") == 4 for line in data_lines)


def test_psi_grid_asymmetric_dumbbell_ridge(tmp_path):
    dom = write_domain(
        tmp_path,
        "dumbbell.json",
        {
            "dimension": 3,
            "root": {
                "type": "union",
                "left": {"type": "ball", "center": [-1.5, 0.0, 0.0], "radius": 1.0},
                "right": {
                    "type": "union",
                    "left": {"type": "ball", "center": [1.5, 0.0, 0.0], "radius": 0.7},
                    "right": {
                        "type": "capsule",
                        "a": [-1.5, 0.0, 0.0],
                        "b": [1.5, 0.0, 0.0],
                        "radius": 0.3,
                    },
                },
            },
        },
    )
    out = str(tmp_path / "g")
    rc = main(
        ["psi-grid", "--domain", dom, "--out", out, *FAST]
        + ["--steps", "13", "7", "--lo", "-2.7", "-1.2", "--hi", "2.1", "1.2"]
    )
    assert rc == 0
    _, _, rows = read_csv(os.path.join(out, "psi_grid.csv"))
    by_xy = {(float(r[2]), float(r[3])): float(r[4]) for r in rows}
    interior = {k: v for k, v in by_xy.items() if v != -1.0}
    # global argmin inside the larger lobe, at its center node
    argmin = min(interior, key=interior.get)
    assert argmin[0] == pytest.approx(-1.5) and argmin[1] == pytest.approx(0.0)
    # the bridge cell is a ridge: above the minima of both lobes
    big_min = min(v for (x, y), v in interior.items() if x < -0.7)
    small_min = min(v for (x, y), v in interior.items() if x > 0.9)
    bridge = min(v for (x, y), v in interior.items() if abs(x - 0.1) < 1e-9 and abs(y) < 1e-9)
    assert bridge > big_min and bridge > small_min
    assert big_min < small_min  # deeper lobe hosts the global minimum


def test_psi_grid_csv_equals_single_point_psi(tmp_path):
    # Each cell is one psi_integrals call: a fresh call at the cell's point
    # gives its CSV value bit for bit, and on the mirror-symmetric dumbbell
    # mirror cells agree to round-off.
    lobe = [{"type": "ball", "center": [c, 0.0, 0.0], "radius": 1.0} for c in (-1.75, 1.75)]
    neck = {"type": "capsule", "a": [-1.75, 0.0, 0.0], "b": [1.75, 0.0, 0.0], "radius": 0.35}
    root = {"type": "union", "left": lobe[0], "right": {"type": "union", "left": lobe[1], "right": neck}}
    path = write_domain(tmp_path, "dumbbell.json", {"dimension": 3, "root": root})
    out = str(tmp_path / "g")
    budget = ["--near-budget", "32768", "--replicates", "4"]  # 4,096 lines a replicate: four blocks a call
    grid = ["--steps", "7", "3", "--lo", "-2.4", "-0.5", "--hi", "2.4", "0.5"]
    assert main(["psi-grid", "--domain", path, "--out", out, "--seed", "3", *budget, *grid]) == 0
    _, _, rows = read_csv(os.path.join(out, "psi_grid.csv"))
    cells = {(int(r[0]), int(r[1])): (float(r[2]), float(r[3]), float(r[4])) for r in rows}
    dom = load_domain(path)
    cfg = QuadratureConfig(seed=3, near_budget=32768, replicates=4)
    interior = [key for key, (_, _, value) in cells.items() if value != -1.0]
    assert len(interior) >= 15
    for i, j in interior:
        x, y, value = cells[i, j]
        assert psi_integrals(dom, [x, y, 0.0], cfg).value == value
        for mirror in ((6 - i, j), (i, 2 - j)):
            assert abs(cells[mirror][2] - value) <= 1e-12 * value


def test_psi_grid_above_the_stacked_fan_cache_equals_cold_single_point_psi(tmp_path):
    # 2^19 rays x 2 is above _CACHED_LINES: the cells read their blocks from
    # the cached folded fans, and each equals a call that builds them afresh.
    path, out = ball3_file(tmp_path), str(tmp_path / "g")
    budget = ["--near-budget", "524288", "--replicates", "2"]
    grid = ["--steps", "3", "3", "--lo", "-0.5", "-0.5", "--hi", "0.5", "0.5"]
    assert main(["psi-grid", "--domain", path, "--out", out, "--seed", "3", *budget, *grid]) == 0
    _, _, rows = read_csv(os.path.join(out, "psi_grid.csv"))
    dom = load_domain(path)
    cfg = QuadratureConfig(seed=3, near_budget=524288, replicates=2)
    assert len(rows) == 9
    for row in rows:
        _folded_fans.cache_clear()
        assert psi_integrals(dom, [float(row[2]), float(row[3]), 0.0], cfg).value == float(row[4])


def test_psi_grid_slice_outside_exits_2(tmp_path):
    rc = main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", str(tmp_path / "g"), *FAST]
        + ["--steps", "4", "4", "--lo", "5.0", "5.0", "--hi", "6.0", "6.0"]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# crit
# ---------------------------------------------------------------------------


def test_crit_ball_single_minimum(tmp_path):
    out = str(tmp_path / "k")
    rc = main(["crit", "--domain", ball3_file(tmp_path), "--out", out, *MID])
    assert rc == 0
    rep = json.loads(open(os.path.join(out, "census.json")).read())
    assert rep["satisfied"] is True
    assert rep["cat_lower_bound"] == 1
    assert len(rep["points"]) == 1
    pt = rep["points"][0]
    assert pt["morse_index"] == 0 and pt["nondegenerate"] is True
    assert np.linalg.norm(pt["location"]) <= 1e-6
    # stable key order + rerun reproducibility
    first = snapshot(out)
    assert main(["crit", "--domain", ball3_file(tmp_path), "--out", out, *MID]) == 0
    assert snapshot(out) == first


def test_crit_two_balls_two_minima(tmp_path):
    dom = write_domain(
        tmp_path,
        "pair.json",
        {
            "dimension": 3,
            "root": {
                "type": "union",
                "left": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
                "right": {"type": "ball", "center": [4.0, 0.0, 0.0], "radius": 0.6},
            },
        },
    )
    out = str(tmp_path / "k")
    assert main(["crit", "--domain", dom, "--out", out, *MID]) == 0
    rep = json.loads(open(os.path.join(out, "census.json")).read())
    assert len(rep["points"]) == 2
    assert rep["cat_lower_bound"] == 2
    assert [p["morse_index"] for p in rep["points"]] == [0, 0]
    # report is ordered by landscape value: big lobe first
    assert rep["points"][0]["psi_value"] < rep["points"][1]["psi_value"]


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def test_predict_sub_ball_power_law(tmp_path):
    out = str(tmp_path / "p")
    rc = main(
        ["predict", "--regime", "sub", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--xi", "0", "0", "0", "--sweep-min", "1e-3", "--sweep-max", "1e-1", "--sweep-count", "5"]
    )
    assert rc == 0
    comments, header, rows = read_csv(os.path.join(out, "predict_sub.csv"))
    assert header == ["epsilon", "delta_1", "xi_1_0", "xi_1_1", "xi_1_2"]
    ratios = [float(r[1]) / float(r[0]) ** (1.0 / 3.0) for r in rows]
    for q in ratios[1:]:
        assert q == pytest.approx(ratios[0], rel=1e-12)
    for r in rows:
        assert all(float(v) == 0.0 for v in r[2:])
    blob = "\n".join(comments)
    d_star = float(re.search(r"d_star=([^;\s]+)", blob).group(1))
    assert ratios[0] == pytest.approx(d_star, rel=1e-12)


def test_predict_sub_default_xi_is_the_landscape_minimum(tmp_path):
    # find_minima lands on the ball's center, so the table equals that of --xi 0 0 0
    budget = ["--near-budget", "32768", "--replicates", "4", "--seed", "0"]
    tables = []
    for name, xi in (("default", []), ("center", ["--xi", "0", "0", "0"])):
        out = str(tmp_path / name)
        assert main(["predict", "--regime", "sub", "--domain", ball3_file(tmp_path), "--out", out, *budget, *xi]) == 0
        tables.append(open(os.path.join(out, "predict_sub.csv"), "rb").read())
    assert tables[0] == tables[1]


def test_predict_nodal_ball_antipodal_boundary_pair(tmp_path):
    out = str(tmp_path / "p")
    rc = main(
        ["predict", "--regime", "nodal", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--sweep-min", "1e-4", "--sweep-max", "1e-2", "--sweep-count", "3"]
    )
    assert rc == 0
    comments, header, rows = read_csv(os.path.join(out, "predict_nodal.csv"))
    assert header[:5] == ["epsilon", "delta_1", "delta_2", "tau_1", "tau_2"]
    # scale coefficients: the closed-form symmetric optimum for the unit ball
    for r in rows:
        eps = float(r[0])
        assert float(r[1]) / eps == pytest.approx(np.pi / 16.0, rel=1e-8)
        assert float(r[2]) / eps == pytest.approx(np.pi / 16.0, rel=1e-8)
        assert float(r[3]) / np.sqrt(eps) == pytest.approx((np.pi**2 / 512.0) ** 0.25, rel=1e-8)
    # the two centers stay antipodal and approach the boundary as eps -> 0;
    # the anchors are the exact diameter pair (+-1, 0, 0), so each center
    # sits a distance tau inward from its anchor on the first axis
    taus = [float(r[3]) for r in rows]
    assert taus == sorted(taus)
    for r in rows:
        c1 = np.array([float(v) for v in r[5:8]])
        c2 = np.array([float(v) for v in r[8:11]])
        np.testing.assert_allclose(c1, -c2, atol=1e-14)
        np.testing.assert_allclose(c1, [1.0 - float(r[3]), 0.0, 0.0], atol=1e-14)
    last = rows[0]
    c1 = np.array([float(v) for v in last[5:8]])
    assert np.linalg.norm(c1) == pytest.approx(1.0, abs=2.0 * taus[0])
    assert "signs=(1, -1)" in comments[0]


def test_predict_hole_ball_limit_constant(tmp_path):
    out = str(tmp_path / "p")
    rc = main(
        ["predict", "--regime", "hole", "--domain", ball3_file(tmp_path), "--out", out, *FAST]
        + ["--sweep-min", "1e-4", "--sweep-max", "1e-2", "--sweep-count", "3"]
    )
    assert rc == 0
    comments, header, rows = read_csv(os.path.join(out, "predict_hole.csv"))
    assert header[0] == "rho"
    blob = "\n".join(comments)
    d0 = float(re.search(r"d0=([^;\s]+)", blob).group(1))
    assert d0 == pytest.approx(1.0, abs=1e-10)  # unit ball: b1 equals b2
    for r in rows:
        assert float(r[1]) == pytest.approx(d0 * np.sqrt(float(r[0])), rel=1e-12)


def test_predict_nodal_misaligned_normals_exits_3(tmp_path):
    lens = write_domain(
        tmp_path,
        "lens.json",
        {
            "dimension": 3,
            "root": {
                "type": "difference",
                "left": {"type": "ball", "center": [-0.6, 0.0, 0.0], "radius": 1.0},
                "right": {
                    "type": "difference",
                    "left": {"type": "ball", "center": [-0.6, 0.0, 0.0], "radius": 1.0},
                    "right": {"type": "ball", "center": [0.6, 0.0, 0.0], "radius": 1.0},
                },
            },
        },
    )
    assert main(["predict", "--regime", "nodal", "--domain", lens, "--out", str(tmp_path / "p"), *FAST]) == 3


# ---------------------------------------------------------------------------
# energy-check
# ---------------------------------------------------------------------------


def test_energy_check_sub_ball4_pass(tmp_path):
    out = str(tmp_path / "e")
    rc = main(
        ["energy-check", "--regime", "sub", "--domain", ball4_file(tmp_path), "--out", out]
        + ["--near-budget", "65536", "--replicates", "4", "--values", "0.1", "0.025"]
        + ["--xi", "0", "0", "0", "0"]
    )
    assert rc == 0
    comments, header, rows = read_csv(os.path.join(out, "energy_check_sub.csv"))
    assert header == ["epsilon", "j_eps", "residual", "std_error"]
    assert any("verdict: PASS" in c for c in comments)
    assert float(rows[0][1]) == pytest.approx(30.164380956, rel=1e-8)
    assert float(rows[1][1]) == pytest.approx(27.550537512, rel=1e-8)
    assert float(rows[0][2]) == pytest.approx(-3.038699, abs=2e-3)
    assert float(rows[1][2]) == pytest.approx(-1.350812, abs=2e-3)


def test_energy_check_increasing_values_exit_2(tmp_path):
    rc = main(
        ["energy-check", "--regime", "sub", "--domain", ball4_file(tmp_path), "--out", str(tmp_path / "e")]
        + FAST
        + ["--values", "0.025", "0.1", "--xi", "0", "0", "0", "0"]
    )
    assert rc == 2


@pytest.mark.parametrize("values", [["0.025", "0.1"], ["0.3", "0.1"], ["0.1", "0.0"], ["0.1"]])
def test_energy_check_bad_values_exit_2_before_the_minimum_search(tmp_path, monkeypatch, values):
    def no_search(*a, **k):
        raise AssertionError("the default xi was searched for before --values was checked")

    monkeypatch.setattr("bubblescape.cli.find_minima", no_search)
    rc = main(
        ["energy-check", "--regime", "sub", "--domain", ball4_file(tmp_path), "--out", str(tmp_path / "e")]
        + FAST
        + ["--values", *values]
    )
    assert rc == 2


def test_energy_check_fail_verdict_exits_1(tmp_path, monkeypatch):
    rows = [
        ResidualRow(small_parameter=0.1, j_value=1.0, j_std=0.0, residual=-1.0, residual_std=0.0),
        ResidualRow(small_parameter=0.05, j_value=1.0, j_std=0.0, residual=-2.0, residual_std=0.0),
    ]
    table = ResidualTable(regime="subcritical", rows=rows, parameters={"d": 1.0})

    monkeypatch.setattr("bubblescape.cli.expansion_residual_sub", lambda *a, **k: table)
    out = str(tmp_path / "e")
    rc = main(
        ["energy-check", "--regime", "sub", "--domain", ball4_file(tmp_path), "--out", out, *FAST]
        + ["--xi", "0", "0", "0", "0"]
    )
    assert rc == 1
    comments, _, _ = read_csv(os.path.join(out, "energy_check_sub.csv"))
    assert any("verdict: FAIL" in c for c in comments)


# ---------------------------------------------------------------------------
# morse-audit
# ---------------------------------------------------------------------------


def test_morse_audit_ball_stable(tmp_path):
    out = str(tmp_path / "m")
    rc = main(
        ["morse-audit", "--domain", ball3_file(tmp_path), "--out", out, *MID]
        + ["--rho", "0.05", "--trials", "2"]
    )
    assert rc == 0
    audit = json.loads(open(os.path.join(out, "morse_audit.json")).read())
    assert audit["stable"] is True
    assert audit["trials"] == 2
    assert audit["failures"] == []
    assert audit["min_margin"] > 1e-6
    assert audit["base"]["satisfied"] is True


# ---------------------------------------------------------------------------
# manifest + shared precondition paths
# ---------------------------------------------------------------------------


def test_manifest_records_resolved_configuration(tmp_path):
    out = str(tmp_path / "c")
    main(["psi-grid", "--domain", ball3_file(tmp_path), "--steps", "3", "3", "--seed", "7", "--out", out, "--near-budget", "2048"])
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["command"] == "psi-grid"
    assert man["dimension"] == 3
    assert man["seed"] == 7
    assert man["quadrature"] == {"seed": 7, "near_budget": 2048, "far_shells": 64, "replicates": 8}
    assert man["critical"] == {"multistart": 12}


def test_constants_manifest_records_no_domain_and_the_default_solver_settings(tmp_path):
    out = str(tmp_path / "c")
    assert main(["constants", "--dim", "5", "--seed", "7", "--out", out]) == 0
    man = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert man["command"] == "constants" and man["dimension"] == 5 and man["domain_file"] is None
    assert man["quadrature"] == {"seed": 7, "near_budget": 2**20, "far_shells": 64, "replicates": 8}
    assert man["critical"] == {"multistart": 12}


# the subcommand that read each deleted flag, where it was not crit
_DELETED_FLAG_COMMAND = {
    "--min-depth": ["psi-grid"],
    "--d": ["energy-check", "--regime", "sub"],
    "--eps-power-scale": ["predict", "--regime", "nodal"],
}


@pytest.mark.parametrize(
    "flag", ["--target-rel-err", "--newton-tol", "--morse-tol", "--dedupe-radius", "--min-depth", "--d", "--eps-power-scale"]
)
def test_fixed_tolerance_flags_refused(tmp_path, flag):
    # these settings are module constants, derived or deleted: argparse refuses the flags with exit code 2
    command = _DELETED_FLAG_COMMAND.get(flag, ["crit"])
    with pytest.raises(SystemExit) as exc:
        main([*command, "--domain", ball3_file(tmp_path), "--out", str(tmp_path), *FAST, flag, "1e-3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, prefix",
    [
        (["crit"], ["--multi", "2"]),
        (["crit"], ["--near-b", "4096"]),
        (["crit"], ["--rep", "2"]),
        (["predict", "--regime", "hole"], ["--sweep-c", "3"]),
        (["constants", "--dim", "3"], ["--se", "1"]),
    ],
    ids=["multi", "near-b", "rep", "sweep-c", "se"],
)
def test_unique_flag_prefixes_refused(tmp_path, command, prefix):
    # argparse would read a unique prefix as the whole flag; every flag must be spelled out
    domain = [] if command[0] == "constants" else ["--domain", ball3_file(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main([*command, *domain, "--out", str(tmp_path), *prefix])
    assert exc.value.code == 2


def test_missing_domain_exits_2(tmp_path):
    assert main(["crit", "--out", str(tmp_path)]) == 2
    assert main(["crit", "--domain", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "root",
    [
        {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": math.inf},
        {"type": "ball", "center": [math.nan, 0.0, 0.0], "radius": 1.0},
    ],
)
def test_non_finite_domain_exits_2(tmp_path, capsys, root):
    path = write_domain(tmp_path, "bad.json", {"dimension": 3, "root": root})
    assert main(["crit", "--domain", path, "--out", str(tmp_path), *FAST]) == 2
    assert "finite" in capsys.readouterr().err


_BALL = {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0}


@pytest.mark.parametrize(
    "payload",
    [
        {"dimension": "abc", "root": _BALL},
        {"dimension": [3], "root": _BALL},
        {"dimension": 3.7, "root": _BALL},
        {"dimension": True, "root": _BALL},
        {"dimension": 3, "root": {**_BALL, "radius": "x"}},
        {"dimension": 3, "root": {**_BALL, "center": ["x", 0.0, 0.0]}},
        {"dimension": 3, "root": {"type": "scale", "factor": None, "inner": _BALL}},
    ],
    ids=[
        "dimension-text",
        "dimension-list",
        "dimension-fraction",
        "dimension-bool",
        "radius-text",
        "center-text",
        "factor-null",
    ],
)
def test_malformed_domain_numbers_exit_2(tmp_path, capsys, payload):
    path = write_domain(tmp_path, "bad.json", payload)
    assert main(["crit", "--domain", path, "--out", str(tmp_path), *FAST]) == 2
    assert "malformed" in capsys.readouterr().err


def _nested(kind: str, depth: int) -> str:
    """A domain file whose root nests ``depth`` nodes of ``kind`` around the unit ball, as JSON text."""
    ball = json.dumps(_BALL)
    if kind == "union":
        root = ball
        for _ in range(depth):
            root = f'{{"type": "union", "left": {root}, "right": {ball}}}'
    else:
        root = '{"type": "scale", "factor": 1.0, "inner": ' * depth + ball + "}" * depth
    return f'{{"dimension": 3, "root": {root}}}'


@pytest.mark.parametrize(
    "text, message",
    [
        # 500 unions overflow the recursion of the CSG loader, 3000 scales that
        # of the JSON decoder itself
        (_nested("union", 500), "nests too deeply"),
        (_nested("scale", 3000), "nests too deeply"),
        (json.dumps({"dimension": 1e20, "root": _BALL}), "dimension 100000000000000000000"),
    ],
    ids=["union-500", "scale-3000", "dimension-1e20"],
)
def test_unloadable_domain_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["crit", "--domain", str(path), "--out", str(tmp_path), *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violated:") and message in err and "Traceback" not in err


def carved_file(tmp_path):
    """Two unit balls, the right one's centre carved out, so crit's fallback draws Sobol starts there."""
    right = {"type": "difference", "left": {"type": "ball", "center": [2.5, 0.0, 0.0], "radius": 1.0},
             "right": {"type": "ball", "center": [2.6, 0.0, 0.0], "radius": 0.2}}
    root = {"type": "union", "left": {"type": "ball", "center": [-2.5, 0.0, 0.0], "radius": 1.0}, "right": right}
    return write_domain(tmp_path, "carved.json", {"dimension": 3, "root": root})


@pytest.mark.parametrize(
    "args, domain_file",
    [
        (["psi-grid", "--steps", "1000000", "1000000"], ball3_file),  # 21.8 TiB of grid points
        (["predict", "--regime", "hole", "--sweep-count", "1000000000000"], ball3_file),  # 7.28 TiB of sweep values
        (["crit", "--multistart", "100000000000"], carved_file),  # 8.73 TiB of fallback Sobol points
    ],
    ids=["psi-grid-steps", "predict-sweep-count", "crit-multistart"],
)
def test_request_too_large_to_allocate_exits_2(tmp_path, args, domain_file):
    # a 3 GiB address-space limit makes the allocation fail at malloc, so no large memory is touched
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        "from bubblescape.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bubblescape.__file__)))
    argv = [sys.executable, "-c", code, *args, "--domain", domain_file(tmp_path), "--out", str(tmp_path)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("precondition violated: Unable to allocate") and "Traceback" not in proc.stderr


EMPTY = "the domain is empty or too thin to find an interior point"


@pytest.mark.parametrize(
    "command, message",
    [
        pytest.param(["psi-grid"], EMPTY, id="psi-grid"),
        pytest.param(["crit"], EMPTY, id="crit"),
        pytest.param(["predict", "--regime", "sub"], EMPTY, id="predict-sub"),
        pytest.param(["predict", "--regime", "nodal"], EMPTY, id="predict-nodal"),
        pytest.param(["predict", "--regime", "hole"], "requires an interior point", id="predict-hole"),
        pytest.param(["energy-check", "--regime", "sub"], EMPTY, id="energy-sub"),
        pytest.param(["energy-check", "--regime", "hole"], "hole center must be interior", id="energy-hole"),
        pytest.param(["morse-audit"], EMPTY, id="morse-audit"),
    ],
)
def test_empty_domain_exits_2(tmp_path, capsys, command, message):
    empty = {
        "type": "difference",
        "left": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0},
        "right": {"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 2.0},
    }
    path = write_domain(tmp_path, "empty.json", {"dimension": 3, "root": empty})
    assert main([*command, "--domain", path, "--out", str(tmp_path), *FAST]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and message in err and "Traceback" not in err


def test_crit_past_the_sobol_table_exits_2(tmp_path, capsys):
    path = write_domain(tmp_path, "ball9.json", {"dimension": 9, "root": {"type": "ball", "center": [0.0] * 9, "radius": 1.0}})
    assert main(["crit", "--domain", path, "--out", str(tmp_path), *FAST]) == 2
    err = capsys.readouterr().err
    assert "dimensions 1 through 8, got 9" in err and "Traceback" not in err


@pytest.mark.parametrize("below", [False, True], ids=["names-a-file", "below-a-file"])
def test_out_that_cannot_become_a_directory_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "o" if below else blocker
    assert main(["constants", "--dim", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"precondition violated: cannot create output directory {str(out)!r}") and "Traceback" not in err


def test_negative_seed_exits_2(tmp_path, capsys):
    assert main(["crit", "--domain", ball3_file(tmp_path), "--seed", "-1", "--out", str(tmp_path), *FAST]) == 2
    assert "seed" in capsys.readouterr().err


def test_dimension_mismatch_exits_2(tmp_path):
    # the domain file sets the dimension: a domain subcommand has no --dim, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["crit", "--domain", ball3_file(tmp_path), "--dim", "4", "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command",
    [["psi-grid"], ["crit"], ["predict", "--regime", "hole"], ["energy-check", "--regime", "hole"], ["morse-audit"]],
    ids=lambda c: c[0],
)
def test_dim_is_refused_on_every_domain_subcommand(tmp_path, command):
    # even a --dim that agrees with the domain file
    with pytest.raises(SystemExit) as exc:
        main([*command, "--domain", ball3_file(tmp_path), "--dim", "3", "--out", str(tmp_path), *FAST])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [["--domain", "/nonexistent.json"], ["--multistart", "3"], ["--near-budget", "4096"], ["--far-shells", "16"], ["--replicates", "2"]],
    ids=lambda f: f[0],
)
def test_domain_and_solver_flags_are_refused_on_constants(tmp_path, flags):
    # constants loads no domain and runs no solver: argparse refuses the flags rather than recording them
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--dim", "3", "--out", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "root",
    [{"type": "ball", "center": [5.0], "radius": 1.0}, {"type": "translate", "offset": [1.0, 0.0], "inner": _BALL}],
    ids=["center", "offset"],
)
def test_domain_vector_of_wrong_dimension_exits_2(tmp_path, capsys, root):
    path = write_domain(tmp_path, "bad.json", {"dimension": 3, "root": root})
    assert main(["crit", "--domain", path, "--out", str(tmp_path), *FAST]) == 2
    assert "in a domain of dimension 3" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "args, message",
    [
        (["morse-audit", "--trials", "0"], "--trials must be at least 1"),
        (["psi-grid", "--steps", "1", "5"], "--steps must be at least 2 in each direction"),
        (["psi-grid", "--fixed", "0", "0"], "--fixed needs exactly 1 values"),
        (["psi-grid", "--lo", "1", "0", "--hi", "0", "1"], "--lo must be strictly below --hi on both axes"),
        (["predict", "--regime", "sub", "--xi", "0", "0"], "--xi needs exactly 3 coordinates"),
        (["predict", "--regime", "hole", "--sweep-min", "0.5", "--sweep-max", "0.1"], "need 0 < --sweep-min <= --sweep-max < inf"),
        (["predict", "--regime", "hole", "--sweep-count", "0"], "--sweep-count must be at least 1"),
        # non-finite numbers; the leading space gets "-inf" past argparse
        (["psi-grid", "--lo", " -inf", " -1", "--hi", "inf", "1"], "--lo must be finite"),
        (["psi-grid", "--fixed", "nan"], "--fixed must be finite"),
        (["predict", "--regime", "hole", "--sweep-max", "inf"], "need 0 < --sweep-min <= --sweep-max < inf"),
        (["energy-check", "--regime", "hole", "--values", "0.01", "nan"], "rho values must be finite"),
        (["predict", "--regime", "sub", "--xi", "nan", "0", "0"], "--xi must be finite"),
        (["predict", "--regime", "sub", "--sweep-max", "0.5"], "the subcriticality parameter must lie in (0, 0.2)"),
    ],
    ids=[
        "trials", "steps", "fixed-count", "lo-hi", "xi-length", "sweep-order", "sweep-count",
        "lo-inf", "fixed-nan", "sweep-max-inf", "values-nan", "xi-nan", "sub-sweep-max",
    ],
)
def test_flag_preconditions_exit_2_before_any_quadrature(tmp_path, monkeypatch, capsys, args, message):
    def no_quadrature(*a, **k):
        raise AssertionError("quadrature ran before the flags were checked")

    for module in ("cli", "critpoints", "bubbles", "landscape"):
        monkeypatch.setattr(f"bubblescape.{module}.psi_integrals", no_quadrature)
    assert main([*args, "--domain", ball3_file(tmp_path), "--out", str(tmp_path / "o"), *FAST]) == 2
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_bad_axes_exit_2(tmp_path):
    rc = main(
        ["psi-grid", "--domain", ball3_file(tmp_path), "--out", str(tmp_path), *FAST]
        + ["--axes", "0", "0"]
    )
    assert rc == 2


def test_xi_on_wrong_regime_exits_2(tmp_path):
    rc = main(
        ["predict", "--regime", "hole", "--domain", ball3_file(tmp_path), "--out", str(tmp_path), *FAST]
        + ["--xi", "0", "0", "0"]
    )
    assert rc == 2


# ---------------------------------------------------------------------------
# threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "command",
    [["psi-grid", "--steps", "3", "3"], ["crit"], ["predict", "--regime", "nodal"], ["morse-audit", "--trials", "1"]],
    ids=lambda c: c[0],
)
def test_no_subcommand_starts_a_thread(tmp_path, monkeypatch, command):
    started = []
    real_start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    assert main([*command, "--domain", ball3_file(tmp_path), "--out", str(tmp_path / "o"), *FAST]) == 0
    assert started == []


@pytest.mark.parametrize("preset", [None, "2"])
def test_import_sets_the_thread_default_unless_the_user_did(preset):
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(bubblescape.__file__))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = preset
    code = "import os, bubblescape; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    want = preset or "1"
    assert out.split() == [want, want]


@pytest.mark.parametrize(
    "command",
    [
        ["constants", "--dim", "3"],
        ["crit"],
        ["psi-grid", "--steps", "3", "3"],
        ["predict", "--regime", "sub"],
        ["predict", "--regime", "nodal"],
        ["predict", "--regime", "hole"],
        ["energy-check", "--regime", "sub"],
        ["energy-check", "--regime", "hole"],
    ],
    ids=lambda c: c[0] + ("-" + c[2] if c[1:2] == ["--regime"] else ""),
)
def test_subcommands_load_no_scipy_beyond_special(tmp_path, command):
    # scipy.stats, .integrate, .optimize and .sparse cost most of the start-up; the package imports only
    # scipy.special at module level.  morse-audit is left out: it pairs the base and the perturbed critical
    # points with scipy.optimize.linear_sum_assignment, imported when the audit runs.
    domain = [] if command[0] == "constants" else ["--domain", ball3_file(tmp_path), *FAST]
    args = [*command, *domain, "--out", str(tmp_path / "o")]
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.stats"]
    code = (
        "import json, sys, bubblescape.cli\n"
        f"rc = bubblescape.cli.main({args!r})\n"
        f"print(json.dumps([rc, [m for m in {heavy!r} if m in sys.modules]]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bubblescape.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
