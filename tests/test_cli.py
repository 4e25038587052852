import json
import math
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "vacpol.cli"]


def run_cli(*args, config=None):
    cmd = list(CLI)
    if config is not None:
        cmd += ["--config", str(config)]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestProfile:
    def test_reflecting_neumann_rows(self):
        out = run_cli(
            "profile", "--geometry", "reflecting", "--d", "3", "--m", "1",
            "--b-plus", "0", "--b-minus", "0", "--x-min", "0.1", "--x-max", "5",
            "--points", "10",
        )
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["x1", "free", "plane", "total", "asympt_small",
                          "asympt_large", "rel_dev_small", "rel_dev_large"]
        assert len(rows) == 10
        planes = [float(r["plane"]) for r in rows]
        assert all(p > 0.0 for p in planes)  # Neumann plane term is positive
        assert all(planes[i + 1] < planes[i] for i in range(len(planes) - 1))
        xs = [float(r["x1"]) for r in rows]
        assert xs == sorted(xs)

    def test_csv_round_trip_and_determinism(self):
        args = ("profile", "--geometry", "reflecting", "--d", "2", "--m", "1",
                "--b-plus", "1.5", "--b-minus", "dirichlet", "--points", "6",
                "--sides", "both")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-identical reruns
        _, rows = parse_csv(first.stdout)
        assert len(rows) == 12  # both sides
        # shortest round-trip decimals reparse to the same float exactly
        for row in rows:
            for value in row.values():
                assert repr(float(value)) == value or value == "nan"

    def test_semitransparent_free_wall_all_zero(self):
        out = run_cli("profile", "--geometry", "semitransparent", "--d", "2",
                      "--m", "1", "--points", "4")
        assert out.returncode == 0
        _, rows = parse_csv(out.stdout)
        assert all(float(r["plane"]) == 0.0 for r in rows)

    def test_json_structure(self):
        out = run_cli("profile", "--geometry", "semitransparent", "--gamma", "2",
                      "--d", "2", "--m", "1", "--points", "3", "--output", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["gamma"] == 2.0
        assert len(payload["rows"]) == 3

    def test_column_selection(self):
        out = run_cli("profile", "--d", "2", "--m", "1", "--points", "2",
                      "--columns", "x1,total")
        header, rows = parse_csv(out.stdout)
        assert header == ["x1", "total"]

    def test_massless_profile(self):
        out = run_cli("profile", "--geometry", "reflecting", "--d", "3", "--m", "0",
                      "--b-plus", "1", "--b-minus", "1", "--points", "3",
                      "--columns", "x1,total")
        assert out.returncode == 0

    def test_invalid_parameters_exit_2(self):
        out = run_cli("profile", "--d", "3", "--m", "1", "--b-plus", "-2",
                      "--b-minus", "0", "--points", "3")
        assert out.returncode == 2
        out = run_cli("profile", "--d", "0", "--m", "1", "--points", "3")
        assert out.returncode == 2
        out = run_cli("profile", "--d", "2", "--m", "1", "--x-min", "-1", "--points", "3")
        assert out.returncode == 2
        for m in ("inf", "nan"):
            out = run_cli("profile", "--d", "3", f"--m={m}", "--points", "3")
            assert out.returncode == 2
            assert ": m " in out.stderr

    def test_infrared_exit_3(self):
        out = run_cli("profile", "--geometry", "reflecting", "--d", "1", "--m", "0",
                      "--b-plus", "0", "--b-minus", "0", "--points", "3",
                      "--x-min", "0.5", "--x-max", "1")
        assert out.returncode == 3

    def test_semitransparent_positivity_exit_2(self):
        out = run_cli("profile", "--geometry", "semitransparent", "--beta", "1",
                      "--gamma", "-9", "--sigma", "-8", "--d", "2", "--m", "1",
                      "--points", "3")
        assert out.returncode == 2

    def test_omega_normalization(self):
        ok = run_cli("profile", "--geometry", "semitransparent", "--gamma", "1",
                     "--omega-re", "1.0000000001", "--omega-im", "0", "--d", "2",
                     "--m", "1", "--points", "2", "--columns", "x1,plane")
        assert ok.returncode == 0
        bad = run_cli("profile", "--geometry", "semitransparent", "--gamma", "1",
                      "--omega-re", "1.5", "--omega-im", "0", "--d", "2",
                      "--m", "1", "--points", "2")
        assert bad.returncode == 2


class TestSpectrum:
    def test_reflecting_bound_state(self):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "-0.5",
                      "--b-minus", "2", "--m", "1")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["positive"] is True
        assert payload["point_eigenvalues"] == [0.75]

    def test_reflecting_not_positive_exit_2(self):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "-2",
                      "--b-minus", "0", "--m", "1")
        assert out.returncode == 2
        assert json.loads(out.stdout)["positive"] is False

    @pytest.mark.parametrize("m", ["inf", "nan", "-1"])
    def test_bad_mass_exit_2(self, m):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "1", f"--m={m}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert ": m " in out.stderr

    def test_delta_prime_massless(self):
        out = run_cli("spectrum", "--geometry", "semitransparent", "--beta", "1",
                      "--m", "0")
        payload = json.loads(out.stdout)
        assert out.returncode == 0
        assert payload["lambda_plus"] == 2.0
        assert payload["lambda_minus"] == 0.0
        assert payload["positive"] is True


class TestHeatKernel:
    def test_tabulation(self):
        out = run_cli("heat-kernel", "--geometry", "reflecting", "--b-plus", "0",
                      "--b-minus", "0", "--tau", "1.0", "--x", "1.0", "--y", "1.0")
        assert out.returncode == 0
        _, rows = parse_csv(out.stdout)
        expected = (1.0 + math.exp(-1.0)) / math.sqrt(4.0 * math.pi)
        assert float(rows[0]["value"]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("argv, field", [
        (["--m=-1", "--b-plus=-5"], "m"),
        (["--m=nan"], "m"),
        (["--geometry=semitransparent", "--alpha=nan"], "alpha"),
        (["--geometry=semitransparent", "--omega-re=nan"], "omega"),
        (["--b-plus=-40", "--tau=3", "--x=0.5", "--y=0.5"], "b_plus"),
    ])
    def test_bad_parameters_exit_2(self, argv, field):
        out = run_cli("heat-kernel", "--tau", "0.5", "--x", "0.7", "--y", "0.3", *argv)
        assert out.returncode == 2
        assert f": {field} " in out.stderr

    def test_deep_bound_state(self):
        # rate -20 at m = 20.5: e^{-m^2 tau} and the bound-state growth are
        # each past double range at tau = 3, the kernel is 1.705e-34
        out = run_cli("heat-kernel", "--geometry", "semitransparent", "--gamma", "-40",
                      "--m", "20.5", "--tau", "1.8,3", "--x", "0.5", "--y", "0.5")
        assert out.returncode == 0, out.stderr
        _, rows = parse_csv(out.stdout)
        values = [float(row["re"]) for row in rows]
        assert values == pytest.approx([6.096863785307156e-24, 1.7051028565727498e-34], rel=1e-12)

    def test_semitransparent_complex_columns(self):
        out = run_cli("heat-kernel", "--geometry", "semitransparent", "--beta", "1",
                      "--tau", "0.5,1.0", "--x", "1.0", "--y", "1.0,-1.0")
        header, rows = parse_csv(out.stdout)
        assert header == ["tau", "x1", "y1", "re", "im"]
        assert len(rows) == 4


class TestValidate:
    def test_specialfns_suite_passes(self):
        out = run_cli("validate", "--suite", "specialfns")
        assert out.returncode == 0
        assert "FAIL" not in out.stdout

    def test_json_output(self):
        out = run_cli("validate", "--suite", "quadrature", "--output", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert all(entry["passed"] for entry in payload)

    def test_tol_scale_tightening_can_fail(self):
        out = run_cli("validate", "--suite", "specialfns", "--tol-scale", "1e-16")
        assert out.returncode == 1


class TestConfigFile:
    def test_config_defaults_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nm=1.5\nb-plus=dirichlet\npoints=3\n")
        out = run_cli("profile", "--x-min", "0.5", "--x-max", "1.0",
                      "--columns", "x1,plane", config=cfg)
        assert out.returncode == 0
        _, rows = parse_csv(out.stdout)
        assert len(rows) == 3
        assert all(float(r["plane"]) < 0.0 for r in rows)  # Dirichlet sign
        # explicit flag beats the file value
        out = run_cli("profile", "--x-min", "0.5", "--x-max", "1.0", "--points", "2",
                      "--columns", "x1,plane", config=cfg)
        _, rows = parse_csv(out.stdout)
        assert len(rows) == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        out = run_cli("profile", "--points", "2", config=cfg)
        assert out.returncode == 2


class TestAsymptotics:
    def test_curves_only(self):
        out = run_cli("asymptotics", "--geometry", "semitransparent", "--beta", "1",
                      "--d", "2", "--m", "1", "--points", "3", "--x-min", "1",
                      "--x-max", "3")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["x1", "asympt_small", "asympt_large"]
        assert len(rows) == 3

    def test_requires_mass(self):
        out = run_cli("asymptotics", "--d", "2", "--m", "0", "--points", "3")
        assert out.returncode == 2


@pytest.mark.parametrize("argv, rows", [
    (["profile", "--d", "2", "--m", "1", "--points", "2", "--output", "json"], 2),
    (["asymptotics", "--d", "2", "--m", "1", "--points", "2", "--output", "json"], 2),
    (["heat-kernel", "--tau", "1.0", "--x", "1.0", "--y", "0.5", "--output", "json"], 1),
])
def test_rows_follow_redirected_stdout(argv, rows):
    import contextlib
    import io

    from vacpol.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    assert len(json.loads(buffer.getvalue())["rows"]) == rows


def test_massive_profile_leaves_scipy_integrate_unloaded():
    # QUADPACK serves only the oracles and the fallback of the coupling
    # integral; a plain profile must not pay for its import
    code = ("import contextlib, io, sys\n"
            "import vacpol.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert vacpol.cli.main(['profile', '--b-plus=2', '--points=3']) == 0\n"
            "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
