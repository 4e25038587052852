import json
import math
import subprocess
import sys
from types import SimpleNamespace

import pytest

from vacpol import cli


@pytest.fixture
def run_cli(capsys):
    """Run ``vacpol`` in this process through :func:`vacpol.cli.main`; its
    exit code and captured output, as ``subprocess.run`` reports them."""

    def run(*args, config=None):
        argv = [] if config is None else ["--config", str(config)]
        argv += list(args)
        capsys.readouterr()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


class TestProfile:
    def test_reflecting_neumann_rows(self, run_cli):
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

    def test_csv_round_trip_and_determinism(self, run_cli):
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

    def test_semitransparent_free_wall_all_zero(self, run_cli):
        out = run_cli("profile", "--geometry", "semitransparent", "--d", "2",
                      "--m", "1", "--points", "4")
        assert out.returncode == 0
        _, rows = parse_csv(out.stdout)
        assert all(float(r["plane"]) == 0.0 for r in rows)

    def test_json_structure(self, run_cli):
        out = run_cli("profile", "--geometry", "semitransparent", "--gamma", "2",
                      "--d", "2", "--m", "1", "--points", "3", "--output", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["gamma"] == 2.0
        assert len(payload["rows"]) == 3

    def test_column_selection(self, run_cli):
        out = run_cli("profile", "--d", "2", "--m", "1", "--points", "2",
                      "--columns", "x1,total")
        header, rows = parse_csv(out.stdout)
        assert header == ["x1", "total"]

    def test_massless_profile(self, run_cli):
        out = run_cli("profile", "--geometry", "reflecting", "--d", "3", "--m", "0",
                      "--b-plus", "1", "--b-minus", "1", "--points", "3",
                      "--columns", "x1,total")
        assert out.returncode == 0

    def test_invalid_parameters_exit_2(self, run_cli):
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

    def test_infinite_grid_bound_exit_2(self, run_cli):
        out = run_cli("profile", "--x-max", "inf")
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1  # one line, no traceback or warning
        assert "x_max = inf" in out.stderr

    def test_infrared_exit_3(self, run_cli):
        out = run_cli("profile", "--geometry", "reflecting", "--d", "1", "--m", "0",
                      "--b-plus", "0", "--b-minus", "0", "--points", "3",
                      "--x-min", "0.5", "--x-max", "1")
        assert out.returncode == 3

    def test_semitransparent_positivity_exit_2(self, run_cli):
        out = run_cli("profile", "--geometry", "semitransparent", "--beta", "1",
                      "--gamma", "-9", "--sigma", "-8", "--d", "2", "--m", "1",
                      "--points", "3")
        assert out.returncode == 2

    def test_omega_normalization(self, run_cli):
        ok = run_cli("profile", "--geometry", "semitransparent", "--gamma", "1",
                     "--omega-re", "1.0000000001", "--omega-im", "0", "--d", "2",
                     "--m", "1", "--points", "2", "--columns", "x1,plane")
        assert ok.returncode == 0
        bad = run_cli("profile", "--geometry", "semitransparent", "--gamma", "1",
                      "--omega-re", "1.5", "--omega-im", "0", "--d", "2",
                      "--m", "1", "--points", "2")
        assert bad.returncode == 2


class TestSpectrum:
    def test_reflecting_bound_state(self, run_cli):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "-0.5",
                      "--b-minus", "2", "--m", "1")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["positive"] is True
        assert payload["point_eigenvalues"] == [0.75]

    def test_reflecting_not_positive_exit_2(self, run_cli):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "-2",
                      "--b-minus", "0", "--m", "1")
        assert out.returncode == 2
        assert json.loads(out.stdout)["positive"] is False

    @pytest.mark.parametrize("m", ["inf", "nan", "-1"])
    def test_bad_mass_exit_2(self, run_cli, m):
        out = run_cli("spectrum", "--geometry", "reflecting", "--b-plus", "1", f"--m={m}")
        assert out.returncode == 2
        assert out.stdout == ""
        assert ": m " in out.stderr

    def test_delta_prime_massless(self, run_cli):
        out = run_cli("spectrum", "--geometry", "semitransparent", "--beta", "1",
                      "--m", "0")
        payload = json.loads(out.stdout)
        assert out.returncode == 0
        assert payload["lambda_plus"] == 2.0
        assert payload["lambda_minus"] == 0.0
        assert payload["positive"] is True


class TestHeatKernel:
    def test_tabulation(self, run_cli):
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
    def test_bad_parameters_exit_2(self, run_cli, argv, field):
        out = run_cli("heat-kernel", "--tau", "0.5", "--x", "0.7", "--y", "0.3", *argv)
        assert out.returncode == 2
        assert f": {field} " in out.stderr

    def test_deep_bound_state(self, run_cli):
        # rate -20 at m = 20.5: e^{-m^2 tau} and the bound-state growth are
        # each past double range at tau = 3, the kernel is 1.705e-34
        out = run_cli("heat-kernel", "--geometry", "semitransparent", "--gamma", "-40",
                      "--m", "20.5", "--tau", "1.8,3", "--x", "0.5", "--y", "0.5")
        assert out.returncode == 0, out.stderr
        _, rows = parse_csv(out.stdout)
        values = [float(row["re"]) for row in rows]
        assert values == pytest.approx([6.096863785307156e-24, 1.7051028565727498e-34], rel=1e-12)

    def test_semitransparent_complex_columns(self, run_cli):
        out = run_cli("heat-kernel", "--geometry", "semitransparent", "--beta", "1",
                      "--tau", "0.5,1.0", "--x", "1.0", "--y", "1.0,-1.0")
        header, rows = parse_csv(out.stdout)
        assert header == ["tau", "x1", "y1", "re", "im"]
        assert len(rows) == 4


class TestValidate:
    def test_specialfns_suite_passes(self, run_cli):
        out = run_cli("validate", "--suite", "specialfns")
        assert out.returncode == 0
        assert "FAIL" not in out.stdout

    def test_json_output(self, run_cli):
        out = run_cli("validate", "--suite", "quadrature", "--output", "json")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert all(entry["passed"] for entry in payload)

    def test_failing_check_exits_1(self, run_cli, monkeypatch):
        # a suite with one failing check, run after every built-in suite
        from vacpol import validation

        monkeypatch.setitem(validation.SUITES, "failing",
                            lambda: [validation._check("failing.check", 2.0, 1.0)])
        out = run_cli("validate")
        assert out.returncode == 1
        lines = out.stdout.splitlines()
        assert "FAIL failing.check: deviation=2.000e+00 tolerance=1.000e+00" in lines
        n = len(lines) - 1
        assert lines[-1] == f"{n - 1}/{n} checks passed"
        out = run_cli("validate", "--output", "json")
        assert out.returncode == 1
        assert '"passed": false' in out.stdout
        payload = json.loads(out.stdout)
        assert [e["name"] for e in payload if not e["passed"]] == ["failing.check"]


class TestConfigFile:
    def test_config_defaults_and_override(self, run_cli, tmp_path):
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

    def test_unknown_config_key_exit_2(self, run_cli, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        out = run_cli("profile", "--points", "2", config=cfg)
        assert out.returncode == 2

    @pytest.mark.parametrize("line, named", [
        ("d=abc", "'d'"),
        ("b-plus=neumann", "'b_plus'"),
        ("geometry=cylinder", "'geometry'"),
    ])
    def test_bad_config_value_exit_2(self, run_cli, tmp_path, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = run_cli("profile", "--points", "2", config=cfg)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.count("\n") == 1  # one line, no traceback
        assert f"config key {named}" in out.stderr

    def test_missing_config_file_exit_2(self, run_cli, tmp_path):
        missing = tmp_path / "absent.cfg"
        out = run_cli("profile", "--points", "2", config=missing)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.count("\n") == 1
        assert str(missing) in out.stderr

    @pytest.mark.parametrize("spelling", [
        ["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--c={}"],
    ])
    def test_config_spellings(self, run_cli, tmp_path, spelling):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=3\n")
        out = run_cli(*[tok.format(cfg) for tok in spelling], "profile", "--d", "2",
                      "--columns", "x1")
        assert out.returncode == 0, out.stderr
        assert len(parse_csv(out.stdout)[1]) == 3

    def test_config_after_sub_command_rejected(self, run_cli, tmp_path):
        # --config belongs to the top level, before the sub-command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("points=3\n")
        out = run_cli("profile", "--config", str(cfg))
        assert out.returncode == 2
        assert "--config" in out.stderr


class TestCachedParser:
    """One parser serves every :func:`vacpol.cli.main` call of a process."""

    @staticmethod
    def meta(out):
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)["meta"]

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_config_does_not_leak_into_later_calls(self, run_cli, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b-plus=2\npoints=3\n")
        args = ("profile", "--d", "2", "--output", "json", "--columns", "x1")
        first = self.meta(run_cli(*args, config=cfg))
        assert (first["b_plus"], first["points"]) == (2.0, 3)
        plain = self.meta(run_cli(*args))
        assert (plain["b_plus"], plain["points"]) == (0.0, 10)

    def test_config_leaves_parser_unwritten(self, run_cli, tmp_path):
        parser, children = cli._parser()

        def state():
            return [(dict(p._defaults), [(a.dest, a.default) for a in p._actions])
                    for p in (parser, *children.values())]

        before = state()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nm=1.5\nb-plus=dirichlet\npoints=3\n")
        assert run_cli("profile", "--columns", "x1", config=cfg).returncode == 0
        assert state() == before

    def test_commands_resolved_per_call(self, run_cli, monkeypatch):
        cli._parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(args.m) or 0)
        assert run_cli("spectrum", "--m", "2").returncode == 0
        assert seen == [2.0]

    def test_back_to_back_flags(self, run_cli):
        args = ("profile", "--d", "2", "--output", "json", "--columns", "x1")
        first = self.meta(run_cli(*args, "--b-plus", "1.5", "--points", "2"))
        second = self.meta(run_cli(*args, "--b-minus", "dirichlet", "--sides", "minus"))
        assert (first["b_plus"], first["b_minus"], first["points"], first["sides"]) == (
            1.5, 0.0, 2, "plus")
        assert (second["b_plus"], second["b_minus"], second["points"], second["sides"]) == (
            0.0, "dirichlet", 10, "minus")


class TestAsymptotics:
    def test_curves_only(self, run_cli):
        out = run_cli("asymptotics", "--geometry", "semitransparent", "--beta", "1",
                      "--d", "2", "--m", "1", "--points", "3", "--x-min", "1",
                      "--x-max", "3")
        assert out.returncode == 0
        header, rows = parse_csv(out.stdout)
        assert header == ["x1", "asympt_small", "asympt_large"]
        assert len(rows) == 3

    @pytest.mark.parametrize("d, x_min, x_max", [(11, "1e-40", "1e-30"), (3, "1e-200", "1e-160")])
    def test_law_past_double_range_exit_2(self, run_cli, d, x_min, x_max):
        out = run_cli("asymptotics", "--d", str(d), "--x-min", x_min, "--x-max", x_max)
        assert out.returncode == 2
        assert out.stderr == ("vacpol: invalid parameters: the near-wall law is past double "
                              f"range at |x1| = {x_min}\n")

    def test_requires_mass(self, run_cli):
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


def test_module_entry_point(run_cli):
    # python -m vacpol.cli in a fresh interpreter prints what main prints here
    args = ["profile", "--geometry", "reflecting", "--d", "2", "--m", "1",
            "--b-plus", "1.5", "--b-minus", "dirichlet", "--points", "6", "--sides", "both"]
    out = subprocess.run([sys.executable, "-m", "vacpol.cli", *args],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run_cli(*args).stdout
    out = subprocess.run([sys.executable, "-m", "vacpol.cli", "profile", "--d", "0"],
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.startswith("vacpol: invalid parameters:")


def test_massive_profile_leaves_scipy_integrate_unloaded():
    # QUADPACK serves only the heat-kernel oracles and validation: neither a
    # plain profile nor the proper-time oracles nor the Laurent
    # renormalization pays for its import
    code = ("import contextlib, io, sys\n"
            "import vacpol.cli\n"
            "from vacpol import reflecting as rf\n"
            "from vacpol.core import FieldConfig\n"
            "from vacpol.heatkernel import ReflectingBC\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert vacpol.cli.main(['profile', '--b-plus=2', '--points=3']) == 0\n"
            "cfg, bc = FieldConfig(3, 1.0), ReflectingBC.robin(2.0)\n"
            "rf.plane_term_oracle(cfg, bc, [0.7, -1e-8])\n"
            "rf.regularized_polarization_oracle(cfg, bc, 0.7, 3.5)\n"
            "rf.renormalize_at_zero(cfg, bc, 0.7)\n"
            "print('scipy.integrate' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
