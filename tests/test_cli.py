import json
import os
import subprocess
import sys

import numpy as np
import pytest

from christoffel import body, cli, convexity, harmonics, kernels, sphere
from christoffel.errors import GridMismatch, NotPositive, ParseError
from christoffel.sphere import make_grid

from conftest import Sphere, clear_program_caches, hessian_at


def loop_field_to_csv(field):
    """Reference CSV text, one row at a time."""
    grid = field.grid
    lines = ["theta,phi,value"]
    vals = field.values.reshape(grid.L, grid.azimuth_count)
    for i, th in enumerate(grid.thetas):
        for j, ph in enumerate(grid.phis):
            lines.append(f"{float(th)!r},{float(ph)!r},{float(vals[i, j])!r}")
    return "\n".join(lines) + "\n"


def run_cli(argv, tmp_path, name="report.json"):
    report_path = tmp_path / name
    code = cli.main(argv + ["--report", str(report_path)])
    return json.loads(report_path.read_text()), code


# edge inputs at the ends of the documented ranges: band limit 0, field
# scales outside and at the ends of [cli._F_MIN, cli._F_MAX], and output
# paths in a directory that does not exist ("{missing}")
FIELD_COMMANDS = [["solve"], ["check"], ["reconstruct"], ["lp", "--p", "2"], ["lp", "--p", "4"]]
PROJECTED = [["solve", "--project"], ["check", "--project"], ["reconstruct", "--project"]]
BAND_LIMIT_0 = ["--input", "family:constant:c=2", "--L", "4", "--Lmax", "0"]
OUT_OF_SCALE = ["1e-160", "1e-300", "1e-310", "1e300"]
UNWRITABLE = [
    ["solve", "--L", "16", "--Lmax", "8", "--out", "{missing}"],
    ["kernels", "--n", "2", "--out", "{missing}"],
    ["reconstruct", "--L", "16", "--Lmax", "8", "--obj", "{missing}"],
    ["reconstruct", "--L", "16", "--Lmax", "8", "--out", "{missing}"],
]


def scaled(command, c):
    return command + ["--input", f"family:constant:c={c}", "--L", "8", "--Lmax", "4"]


EDGE_INPUTS = (
    [command + BAND_LIMIT_0 for command in FIELD_COMMANDS + PROJECTED]
    + [scaled(command, c) for command in FIELD_COMMANDS
       for c in OUT_OF_SCALE + ["1e-100", "1e100"]]
    + UNWRITABLE
)


def with_missing_dir(argv, tmp_path):
    return [str(tmp_path / "missing" / "out") if a == "{missing}" else a for a in argv]


class TestFieldSources:
    def test_constant_family(self, grid16):
        f, trunc = cli.parse_field_source("family:constant:c=2", grid16, 8)
        assert np.max(np.abs(f.values - 2.0)) < 1e-14
        assert trunc == 0.0

    def test_harmonic_family(self, grid16):
        f, _ = cli.parse_field_source("family:harmonic:l=2,m=0,eps=0.1,base=2", grid16, 8)
        expected = 2.0 + 0.1 * np.sqrt(5 / (16 * np.pi)) * (3 * grid16.nodes[:, 2] ** 2 - 1)
        assert np.max(np.abs(f.values - expected)) < 1e-12

    def test_ellipsoid_family_positive(self, grid16):
        f, _ = cli.parse_field_source("family:ellipsoid:a=1,b=1.2,c=0.8", grid16, 12)
        assert np.min(f.values) > 0

    def test_unknown_family(self, grid16):
        with pytest.raises(ParseError):
            cli.parse_field_source("family:cube:a=1", grid16, 8)

    def test_nonpositive_rejected(self, grid16):
        with pytest.raises(NotPositive):
            cli.parse_field_source("family:harmonic:l=2,m=0,eps=9,base=1", grid16, 8)

    def test_csv_round_trip_bit_exact(self, grid16, tmp_path):
        f, _ = cli.parse_field_source("family:harmonic:l=3,m=1,eps=0.2,base=2", grid16, 8)
        path = tmp_path / "field.csv"
        path.write_text(cli._field_to_csv(f))
        assert np.array_equal(cli._field_from_csv(str(path), grid16), f.values)

    @pytest.mark.parametrize("L", [16, 17, 48])
    @pytest.mark.parametrize("shape", [
        Sphere(1.0), body.Ellipsoid(1.0, 1.2, 1.5), body.Ellipsoid(0.5, 1.0, 2.0),
    ], ids=repr)
    def test_csv_text_matches_loop(self, L, shape):
        u = body.support_function(shape, make_grid(L), L_max=2 * L // 3)
        assert cli._field_to_csv(u) == loop_field_to_csv(u)

    def test_csv_rows_out_of_grid_order_rejected(self, grid16, tmp_path):
        f, _ = cli.parse_field_source("family:harmonic:l=3,m=1,eps=0.2,base=2", grid16, 8)
        lines = cli._field_to_csv(f).splitlines()
        path = tmp_path / "reversed.csv"
        path.write_text("\n".join([lines[0]] + lines[:0:-1]) + "\n")
        with pytest.raises(GridMismatch, match="line 2:"):
            cli._field_from_csv(str(path), grid16)

    def test_csv_angles_within_tolerance_accepted(self, grid16, tmp_path):
        f, _ = cli.parse_field_source("family:harmonic:l=3,m=1,eps=0.2,base=2", grid16, 8)
        thetas = np.repeat(grid16.thetas, grid16.azimuth_count) + 1e-12
        phis = np.tile(grid16.phis, grid16.L) - 1e-12
        rows = [f"{t!r},{p!r},{v!r}"
                for t, p, v in zip(thetas.tolist(), phis.tolist(), f.values.tolist())]
        path = tmp_path / "near.csv"
        path.write_text("\n".join(["theta,phi,value"] + rows) + "\n")
        assert np.array_equal(cli._field_from_csv(str(path), grid16), f.values)

    def test_csv_errors(self, grid16, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("theta,phi,value\n1.0,2.0,oops\n")
        with pytest.raises(GridMismatch):
            cli._field_from_csv(str(bad), grid16)
        rows = ["theta,phi,value"] + ["0.1,0.1,1.0"] * grid16.node_count
        rows[3] = "0.1,0.1"
        bad.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError) as exc:
            cli._field_from_csv(str(bad), grid16)
        assert exc.value.line == 4


class TestCommands:
    def test_solve_constant(self, tmp_path):
        out = tmp_path / "u.csv"
        report, code = run_cli(
            ["solve", "--input", "family:constant:c=2", "--L", "16", "--Lmax", "8",
             "--out", str(out)],
            tmp_path,
        )
        assert code == 0
        assert report["solver_residual_inf"] <= 1e-9
        grid = make_grid(16)
        u = cli._field_from_csv(str(out), grid)
        assert np.max(np.abs(u - 1.0)) < 1e-10

    def test_solve_orthogonality_exit(self, tmp_path):
        report, code = run_cli(
            ["solve", "--input", "family:harmonic:l=1,m=0,eps=0.6,base=2",
             "--L", "16", "--Lmax", "8"],
            tmp_path,
        )
        assert code == 1
        assert report["error"]["type"] == "OrthogonalityViolation"
        assert max(abs(v) for v in report["error"]["defect"]) > 1e-3

    @pytest.mark.parametrize("c", [1e-6, 1e6, 1e8])
    @pytest.mark.parametrize("command", ["solve", "check", "reconstruct"])
    def test_tol_relative_to_f(self, command, c, tmp_path):
        # --tol is a fraction of max|f|: a constant field solves at any
        # scale, while a degree-1 part of the same scale is still refused
        report, code = run_cli([command, "--input", f"family:constant:c={c!r}"], tmp_path)
        assert code == 0, report["error"]
        assert report["solver_residual_inf"] <= 1e-7 * c
        report, code = run_cli(
            [command, "--input", f"family:harmonic:l=1,m=0,eps={0.3 * c!r},base={c!r}"],
            tmp_path)
        assert code == 1
        assert report["error"]["type"] == "OrthogonalityViolation"

    def test_solve_project(self, tmp_path):
        report, code = run_cli(
            ["solve", "--input", "family:harmonic:l=1,m=0,eps=0.6,base=2",
             "--L", "16", "--Lmax", "8", "--project"],
            tmp_path,
        )
        assert code == 0
        assert abs(report["projected_degree1_magnitude"] - 0.6) < 1e-12

    def test_check_verdict_exit_codes(self, tmp_path):
        # convex case
        report, code = run_cli(
            ["check", "--input", "family:harmonic:l=2,m=0,eps=0.6,base=2",
             "--L", "24", "--Lmax", "12", "--criteria", "cr2"],
            tmp_path,
        )
        assert code == 0
        assert report["criteria"]["cr2"]["verdict"] == "holds"
        assert np.sign(report["criteria"]["cr2"]["min_margin"]) == np.sign(
            report["hessian_min"]["value"]
        )
        # non-convex case
        report, code = run_cli(
            ["check", "--input", "family:harmonic:l=2,m=0,eps=3.5,base=2",
             "--L", "24", "--Lmax", "12", "--criteria", "cr2"],
            tmp_path,
        )
        assert code == 2
        assert report["criteria"]["cr2"]["verdict"] == "fails"
        assert report["hessian_min"]["value"] < 0

    def test_check_report_fields(self, tmp_path):
        report, _ = run_cli(
            ["check", "--input", "family:harmonic:l=2,m=0,eps=0.3,base=2",
             "--L", "16", "--Lmax", "8", "--criteria", "cr1,cr2"],
            tmp_path,
        )
        for name in ("cr1", "cr2"):
            entry = report["criteria"][name]
            assert entry["verdict"] in ("holds", "fails", "inconclusive")
            assert np.isfinite(entry["min_margin"])
            assert len(entry["witness"]["x"]) == 3
            assert 0.0 <= entry["route_gap"] <= entry["error_band"]
        sc = report["sufficient_conditions"]
        assert set(sc) == {
            "holder_threshold", "symmetry_monotonicity", "pogorelov", "guan_ma"
        }
        assert sc["holder_threshold"]["seminorm_is_grid_lower_bound"] is True
        t33, pc = sc["symmetry_monotonicity"], sc["pogorelov"]
        assert set(t33) == {"holds", "min", "witness", "equivalent_to"}
        assert set(pc) == {"holds", "min", "witness"}
        assert t33["equivalent_to"] == "pogorelov"
        assert t33["min"] == pc["min"] and t33["witness"] == pc["witness"]
        assert set(pc["witness"]) == {"x", "xi"}
        assert len(pc["witness"]["x"]) == 3 and len(pc["witness"]["xi"]) == 3
        assert report["kernel_equivalence"]["max_abs_radial_minus_closed"] < 1e-8

    def test_lp_command(self, tmp_path):
        report, code = run_cli(
            ["lp", "--p", "4", "--input", "family:constant:c=8",
             "--L", "16", "--Lmax", "8"],
            tmp_path,
        )
        assert code == 0
        assert report["lp"]["converged"] is True
        assert report["lp"]["lambda"] is None
        report, code = run_cli(
            ["lp", "--p", "2", "--input", "family:constant:c=1",
             "--L", "16", "--Lmax", "8"],
            tmp_path,
        )
        assert abs(report["lp"]["lambda"] - 2.0) < 1e-10

    @pytest.mark.parametrize("p, paths", [("4", {"newton"}), ("2", {"newton"})])
    def test_lp_trace(self, p, paths, tmp_path):
        report, code = run_cli(
            ["lp", "--p", p, "--input", "family:harmonic:l=2,m=1,eps=0.1,base=2",
             "--L", "16", "--Lmax", "8"],
            tmp_path,
        )
        assert code == 0
        trace = report["lp"]["trace"]
        assert len(trace) == report["lp"]["iterations"] > 0
        assert {t["path"] for t in trace} == paths
        assert trace[-1]["residual_inf"] <= 1e-8
        assert all(t["krylov_iterations"] >= 1 for t in trace)
        assert 0.0 <= report["lp"]["residual_on_refined_grid"] <= 1e-8

    @staticmethod
    def _fresh_modules(code):
        """Top-level packages among scipy and sympy loaded by ``code`` run in
        a fresh interpreter (the last line of its stdout)."""
        code += (
            "; import sys; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        return out.stdout.strip().splitlines()[-1]

    def test_import_leaves_quadrature_out(self):
        # SciPy and SymPy are test dependencies only: no command imports
        # either
        assert self._fresh_modules("import christoffel.cli") == "[]"

    @pytest.mark.parametrize("argv, loaded", [
        (["solve", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5", "--L", "16", "--Lmax", "10"],
         "[]"),
        (["lp", "--p", "4", "--input", "family:harmonic:l=2,m=1,eps=0.1,base=2",
          "--L", "16", "--Lmax", "8"], "[]"),
        # the GMRES of the L_p Newton steps is numpy
        (["lp", "--p", "2", "--input", "family:harmonic:l=2,m=1,eps=0.1,base=2",
          "--L", "16", "--Lmax", "8"], "[]"),
        # the adaptive quadratures of kernels, gamma and the kernel
        # equivalence in check are numpy Gauss-Kronrod
        (["kernels", "--n", "2"], "[]"),
        (["gamma", "--n", "2", "--alpha", "0.5", "--mc-samples", "1000"], "[]"),
        (["check", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5", "--L", "16", "--Lmax", "10"],
         "[]"),
    ], ids=["solve", "lp", "lp2", "kernels", "gamma", "check"])
    def test_fresh_command_modules(self, argv, loaded, tmp_path):
        argv = argv + ["--report", str(tmp_path / "report.json")]
        code = f"from christoffel import cli; assert cli.main({argv!r}) == 0"
        assert self._fresh_modules(code) == loaded

    def test_gamma_command(self, tmp_path):
        report, code = run_cli(
            ["gamma", "--n", "2", "--alpha", "1", "--mc-samples", "100000"],
            tmp_path,
        )
        assert code == 0
        g = report["gamma"]
        assert abs(g["value"] - 0.07653734904388086) < 1e-10
        assert abs(g["monte_carlo"]["estimate"] - g["value"]) < 4 * g["monte_carlo"]["standard_error"]
        assert "monte_carlo_random_pole" in g

    def test_gamma_small_alpha_finite(self, tmp_path):
        report, code = run_cli(
            ["gamma", "--n", "2", "--alpha", "1e-3", "--mc-samples", "20000", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        g = report["gamma"]
        for est in (g["monte_carlo"], g["monte_carlo_random_pole"]):
            assert np.isfinite(est["estimate"]) and est["standard_error"] > 0.0
            assert abs(est["estimate"] - g["value"]) < 4 * est["standard_error"]
        se = g["monte_carlo"]["standard_error"]
        assert g["z_score"] == (g["monte_carlo"]["estimate"] - g["value"]) / se

    def test_kernels_command(self, tmp_path):
        out = tmp_path / "kernels.csv"
        report, code = run_cli(["kernels", "--n", "2", "--out", str(out)], tmp_path)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,omega_radial,omega_closed,firey_theta,berg_g2,berg_g3,berg_g4"
        assert len(lines) == 40  # header + 39 s-values
        row = dict(zip(lines[0].split(","), (float(x) for x in lines[20].split(","))))
        assert abs(row["omega_radial"] - row["omega_closed"]) < 1e-8

    def test_reconstruct_command(self, tmp_path):
        obj = tmp_path / "body.obj"
        report, code = run_cli(
            ["reconstruct", "--input", "family:ellipsoid:a=1,b=1.2,c=0.8",
             "--L", "16", "--Lmax", "12", "--obj", str(obj)],
            tmp_path,
        )
        assert code == 0
        text = obj.read_text().splitlines()
        assert report["mesh"]["vertices"] == 2 * 16 * 16 + 2
        assert sum(1 for ln in text if ln.startswith("v ")) == report["mesh"]["vertices"]
        assert sum(1 for ln in text if ln.startswith("f ")) == report["mesh"]["faces"]


class TestErrors:
    def test_closed_stdout_ends_quietly(self):
        # the reader has gone before the command writes anything, like
        # `christoffel kernels --n 2 | head -1` once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "christoffel.cli", "kernels", "--n", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv", [
        ["check", "--bogus", "1"],
        ["check", "--L", "many"],
        ["gamma", "--L", "16"],      # grid flags belong to the field commands
        ["solve", "--seed", "3"],    # only gamma draws random numbers
        ["lp", "--project"],         # lp never projects
        ["check", "--dirs", "8"],
        ["solve", "--threads", "2"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("samples", ["0", "-5", "1"])
    def test_monte_carlo_without_samples_reported(self, samples, tmp_path):
        report, code = run_cli(["gamma", "--mc-samples", samples], tmp_path)
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert set(report) == {"config", "error"}

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],       # a seed the random generator refuses
        ["--alpha", "1e-200"],  # gamma's integral and its square overflow
    ])
    def test_gamma_out_of_range_reported(self, flags, tmp_path):
        report, code = run_cli(["gamma", "--mc-samples", "100", *flags], tmp_path)
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert set(report) == {"config", "error"}

    def test_unknown_criterion_reported(self, tmp_path):
        report, code = run_cli(
            ["check", "--input", "family:constant:c=2", "--L", "16", "--Lmax", "8",
             "--criteria", "cr1,cr3"],
            tmp_path,
        )
        assert code == 1
        assert report["error"]["type"] == "ParseError"
        assert "cr3" in report["error"]["message"]
        # validated before the solve: no partial results in the report
        assert set(report) == {"config", "error"}

    @pytest.mark.parametrize("p, source", [
        ("nan", "family:ellipsoid:a=1,b=1.2,c=1.5"),
        ("inf", "family:ellipsoid:a=1,b=1.2,c=1.5"),
        ("1e308", "family:ellipsoid:a=1,b=1.2,c=1.5"),
        # u0 = (2 / mean f)^(1 / (p - 2)) overflows
        ("2.000001", "family:harmonic:l=2,m=0,eps=0.3,base=1.5"),
    ])
    def test_bad_lp_p_reported(self, p, source, tmp_path):
        report, code = run_cli(
            ["lp", "--p", p, "--input", source, "--L", "16", "--Lmax", "8"], tmp_path
        )
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert set(report) == {"config", "error"}

    def test_underflowing_lp_start_reported(self, tmp_path):
        # u0 = (2/3)^10000 underflows to 0, which solves the equation: it is
        # refused, not reported as converged
        report, code = run_cli(
            ["lp", "--p", "2.0001", "--input", "family:constant:c=3", "--L", "16", "--Lmax",
             "8"], tmp_path
        )
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert set(report) == {"config", "error"}

    @pytest.mark.parametrize("source, kind", [
        ("family:ellipsoid:a=nan", "InvalidParameter"),
        ("family:ellipsoid:a=1e200", "InvalidParameter"),
        ("family:constant:c=1e308", "InvalidParameter"),
        ("family:harmonic:l=2,m=0,eps=0.1,base=nan", "InvalidParameter"),
        ("family:harmonic:l=2.7,m=0,eps=0.1,base=2", "InvalidParameter"),
        ("family:harmonic:l=2,m=0.5,eps=0.1,base=2", "InvalidParameter"),
        ("family:harmonic:l=2,m=0,eps=0.1,base=1e308", "InvalidParameter"),
        ("family:harmonic:l=0,m=0,eps=1e308,base=5e307", "InvalidParameter"),
        ("family:constant:c=two", "ParseError"),
        ("file", "ParseError"),
    ])
    def test_bad_field_source_reported(self, source, kind, tmp_path):
        # not-finite parameters and values, a degree or order that is not
        # an integer, and values whose coefficients or transform overflow
        # end in a typed error in the report, with no warning or traceback
        if source == "file":
            f, _ = cli.parse_field_source("family:constant:c=2", make_grid(16), 8)
            lines = cli._field_to_csv(f).splitlines()
            lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
            (tmp_path / "nan.csv").write_text("\n".join(lines) + "\n")
            source = f"file:{tmp_path / 'nan.csv'}"
        report, code = run_cli(["solve", "--input", source, "--L", "16", "--Lmax", "8"],
                               tmp_path)
        assert code == 1
        assert report["error"]["type"] == kind
        assert set(report) == {"config", "error"}
        if kind == "ParseError" and "nan" in source:
            assert report["error"]["message"].startswith("line 6:")

    @pytest.mark.parametrize("command", FIELD_COMMANDS + PROJECTED, ids=" ".join)
    def test_band_limit_zero(self, command, tmp_path):
        # L_max = 0 has no degree-1 part, so the defect is 0 and every
        # command runs, with or without --project
        report, code = run_cli(command + BAND_LIMIT_0, tmp_path)
        assert code == 0 and report["error"] is None
        if command[0] != "lp":
            assert report["orthogonality_defect"] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("c", OUT_OF_SCALE)
    @pytest.mark.parametrize("command", FIELD_COMMANDS, ids=" ".join)
    def test_field_scale_out_of_range_reported(self, command, c, tmp_path):
        # f^2 goes subnormal, 1/f or squared Hessian entries overflow
        report, code = run_cli(scaled(command, c), tmp_path)
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert "field values must lie in [1e-100, 1e+100]" in report["error"]["message"]
        assert set(report) == {"config", "error"}

    @pytest.mark.parametrize("c", [1e-100, 1e100])
    def test_field_scale_range_ends_exact(self, c, tmp_path):
        # on the constant field c, Hess u + u I = c/2 I and the Guan-Ma form
        # is I / c
        report, code = run_cli(scaled(["check"], repr(c)), tmp_path)
        assert code == 0
        assert abs(report["hessian_min"]["value"] / (c / 2) - 1.0) < 1e-12
        guan_ma = report["sufficient_conditions"]["guan_ma"]
        assert guan_ma["holds"] and abs(guan_ma["min_eig"] * c - 1.0) < 1e-12

    def test_file_scale_out_of_range_reported(self, tmp_path):
        f, _ = cli.parse_field_source("family:constant:c=2", make_grid(8), 4)
        path = tmp_path / "tiny.csv"
        path.write_text(cli._field_to_csv(harmonics.SphericalField(
            grid=f.grid, values=1e-200 * f.values, coeffs=f.coeffs)))
        report, code = run_cli(["solve", "--input", f"file:{path}", "--L", "8", "--Lmax", "4"],
                               tmp_path)
        assert code == 1 and report["error"]["type"] == "InvalidParameter"

    @pytest.mark.parametrize("argv", UNWRITABLE, ids=lambda a: f"{a[0]} {a[-2]}")
    def test_unwritable_output_reported(self, argv, tmp_path):
        argv = with_missing_dir(argv, tmp_path)
        report, code = run_cli(argv, tmp_path)
        # the report names the path and the OSError's type
        assert code == 1
        assert report["error"]["type"] == "FileNotFoundError"
        assert argv[-1] in report["error"]["message"]
        assert not (tmp_path / "missing").exists()

    def test_unwritable_report_one_line(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "report.json")
        code = cli.main(["solve", "--L", "16", "--Lmax", "8", "--report", path])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and path in err and "Traceback" not in err

    def test_negative_band_limit_reported(self, tmp_path):
        report, code = run_cli(["solve", "--L", "16", "--Lmax", "-1"], tmp_path)
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert "L_max >= 0" in report["error"]["message"]

    def test_failed_lp_keeps_evidence(self, tmp_path):
        # the band-limit floor of this ellipsoid's grid residual (5.0e-8)
        # lies above the default tol: the solve stalls, and the report keeps
        # the best iterate's figures and trace next to the error
        report, code = run_cli(
            ["lp", "--p", "4", "--input", "family:ellipsoid:a=0.8,b=1.2,c=1.6"], tmp_path
        )
        assert code == 1
        assert report["error"]["type"] == "NonConvergence"
        assert "(stall)" in report["error"]["message"]
        lp_block = report["lp"]
        assert set(lp_block) == {"p", "lambda", "residual_inf", "iterations", "converged",
                                 "degree1_magnitude", "trace"}
        assert lp_block["p"] == 4.0 and lp_block["lambda"] is None
        assert lp_block["converged"] is False
        assert lp_block["residual_inf"] > 1e-8
        assert len(lp_block["trace"]) == lp_block["iterations"] > 0
        assert lp_block["trace"][-1]["residual_inf"] == lp_block["residual_inf"]

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    @pytest.mark.parametrize("command", [["solve"], ["lp", "--p", "4"], ["lp", "--p", "2"]],
                             ids=["solve", "lp4", "lp2"])
    def test_bad_tol_reported(self, command, tol, tmp_path):
        # the field has a degree-1 part: a NaN tol would let solve pass it
        report, code = run_cli(
            command + ["--tol=" + tol, "--input", "family:harmonic:l=1,m=0,eps=0.1,base=2",
                       "--L", "16", "--Lmax", "8"],
            tmp_path,
        )
        assert code == 1
        assert report["error"]["type"] == "InvalidParameter"
        assert set(report) == {"config", "error"}

    @pytest.mark.parametrize("command", [["check"], ["lp", "--p", "2"]])
    def test_unresolvable_band_limit_reported(self, command, tmp_path):
        report, code = run_cli(
            command + ["--L", "16", "--Lmax", "40",
                       "--input", "family:harmonic:l=2,m=0,eps=0.1,base=2"],
            tmp_path,
        )
        assert code == 1
        assert report["error"]["type"] == "BandLimitExceeded"
        assert "L_max=40" in report["error"]["message"]

    def test_settable_values(self):
        sub = cli._make_parser()._subparsers._group_actions[0].choices
        counts = {
            name: sum(1 for a in p._actions if a.option_strings and a.dest != "help")
            for name, p in sub.items()
        }
        assert counts == {"solve": 7, "check": 8, "lp": 6, "gamma": 5,
                          "kernels": 3, "reconstruct": 8}


    def test_every_option_has_help(self):
        parser = cli._make_parser()
        commands = parser._subparsers._group_actions[0]
        assert [c.dest for c in commands._choices_actions if not c.help] == []
        missing = [f"{name} {a.option_strings[0]}" for name, p in commands.choices.items()
                   for a in p._actions if a.option_strings and not a.help]
        assert missing == []


class TestStrictReports:
    @staticmethod
    def refuse(constant):
        raise ValueError(f"report holds {constant}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", EDGE_INPUTS, ids=" ".join)
    def test_edge_input_report_is_strict_json(self, argv, tmp_path):
        # no warning, no traceback, no NaN or Infinity in the report, and an
        # exit code the CLI documents
        path = tmp_path / "report.json"
        code = cli.main(with_missing_dir(argv, tmp_path) + ["--report", str(path)])
        report = json.loads(path.read_text(), parse_constant=self.refuse)
        assert code in {0, 1, 2, 3}
        assert (report["error"] is None) == (code != 1)


class TestDeterminism:
    def test_reports_byte_identical_across_threads(self, tmp_path):
        texts = []
        for name in ("a.json", "b.json", "c.json"):
            report_path = tmp_path / name
            cli.main(
                ["check", "--input", "family:harmonic:l=2,m=0,eps=0.4,base=2",
                 "--L", "16", "--Lmax", "8", "--report", str(report_path)]
            )
            doc = json.loads(report_path.read_text())
            doc.pop("timings")
            doc["config"].pop("report")
            texts.append(json.dumps(doc, sort_keys=True))
        assert texts[0] == texts[1] == texts[2]

    def test_repeat_run_identical(self, tmp_path):
        argv = ["lp", "--p", "4", "--input", "family:harmonic:l=2,m=0,eps=0.1,base=2",
                "--L", "16", "--Lmax", "8"]
        a, _ = run_cli(argv, tmp_path, "r1.json")
        b, _ = run_cli(argv, tmp_path, "r2.json")
        a.pop("timings")
        b.pop("timings")
        a["config"].pop("report")
        b["config"].pop("report")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_repeat_eigen_run_identical(self, tmp_path):
        argv = ["lp", "--p", "2", "--input", "family:harmonic:l=2,m=1,eps=0.1,base=2",
                "--L", "16", "--Lmax", "8"]
        a, _ = run_cli(argv, tmp_path, "r1.json")
        b, _ = run_cli(argv, tmp_path, "r2.json")
        for doc in (a, b):
            doc.pop("timings")
            doc["config"].pop("report")
        assert a["lp"]["trace"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestSharedWork:
    LP = ["lp", "--p", "4", "--input", "family:harmonic:l=2,m=0,eps=0.1,base=2",
          "--L", "16", "--Lmax", "10"]
    CHECK = ["check", "--input", "family:harmonic:l=2,m=0,eps=0.3,base=2",
             "--L", "16", "--Lmax", "10"]

    def test_check_forms_field_derivatives_once(self, tmp_path, monkeypatch):
        # each field's grid gradient and Hessian are formed at most once
        # per check, and the Hoelder ring table once
        fields = {"grid_gradient": [], "grid_hessian": []}
        for name, seen in fields.items():
            def spy(field, *args, _real=getattr(harmonics, name), _seen=seen, **kwargs):
                _seen.append(field)
                return _real(field, *args, **kwargs)

            monkeypatch.setattr(harmonics, name, spy)
        tables = []
        ring_cosines = convexity.ring_cosines
        monkeypatch.setattr(convexity, "ring_cosines", lambda grid: tables.append(grid.L)
                            or ring_cosines(grid))
        clear_program_caches()
        _, code = run_cli(self.CHECK, tmp_path)
        assert code in (0, 3)
        for name, seen in fields.items():
            assert seen, name
            assert len({id(f) for f in seen}) == len(seen), name
        assert tables == [16]

    def test_no_tangent_basis_on_grid_nodes(self, tmp_path, monkeypatch):
        # every grid form is read in the node frame (e_theta, e_phi): no
        # command builds the tangent bases that off-grid points use
        calls = []
        real = sphere.tangent_bases
        for mod in (sphere, harmonics, convexity, body):
            if getattr(mod, "tangent_bases", None) is real:
                monkeypatch.setattr(mod, "tangent_bases",
                                    lambda pts: calls.append(len(pts)) or real(pts))
        for argv in (self.CHECK, self.LP, self.LP[:2] + ["2"] + self.LP[3:],
                     ["reconstruct", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5",
                      "--L", "16", "--Lmax", "10", "--obj", str(tmp_path / "body.obj")]):
            _, code = run_cli(argv, tmp_path)
            assert code in (0, 2, 3), argv[0]
        assert calls == []
        # off-grid points, the poles among them, do use them: the tests'
        # oracle of the grid Hessian is seen to call them
        hessian_at(harmonics.HarmonicCoeffs(L_max=2, c=np.arange(9.0)), np.eye(3))
        assert calls == [3]

    def test_one_residual_per_solve(self, tmp_path, monkeypatch):
        # the report's solver residual is the one the solve computed
        seen = []
        real = harmonics.christoffel_residual
        monkeypatch.setattr(harmonics, "christoffel_residual",
                            lambda *a: seen.append(a[0]) or real(*a))
        for argv in (["solve", "--input", "family:harmonic:l=1,m=0,eps=0.6,base=2",
                      "--L", "16", "--Lmax", "8", "--project"], self.CHECK,
                     ["reconstruct", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5",
                      "--L", "16", "--Lmax", "10"]):
            seen.clear()
            report, code = run_cli(argv, tmp_path)
            assert code in (0, 3), argv[0]
            assert len(seen) == 1, argv[0]
            assert report["solver_residual_inf"] <= 1e-9

    def test_check_evaluates_no_kernel_quadrature(self, tmp_path, monkeypatch):
        # the criteria come from their Funk-Hecke multipliers; the kernel
        # table only backs the quadrature oracle of the tests
        for name in ("omega", "hat_A", "hat_B"):
            monkeypatch.setattr(kernels.ClosedFormKernelTable, name,
                                lambda *args, _name=name: pytest.fail(_name))
        _, code = run_cli(self.CHECK, tmp_path)
        assert code in (0, 3)

    def test_lp_forms_each_gradient_once(self, tmp_path, monkeypatch):
        # Lemma 4.1 and the T41 condition share the grid gradient of f
        seen = []
        real = harmonics.grid_gradient
        monkeypatch.setattr(harmonics, "grid_gradient",
                            lambda field: seen.append(field) or real(field))
        for p in ("4", "2"):
            seen.clear()
            _, code = run_cli(self.LP[:2] + [p] + self.LP[3:], tmp_path)
            assert code == 0
            # f and the solution u, each once
            assert len(seen) == 2 and len({id(f) for f in seen}) == 2, p

    def test_commands_build_no_extension_channels(self, tmp_path, monkeypatch):
        # every CLI output comes from grid derivatives; the off-grid
        # derivative channels stay unbuilt
        built = []
        monkeypatch.setattr(harmonics, "_extension_channels",
                            lambda coeffs: built.append(coeffs) or pytest.fail("built"))
        for argv in (
            ["solve", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5", "--L", "16",
             "--Lmax", "10", "--out", str(tmp_path / "u.csv")],
            self.CHECK,
            self.LP,
            self.LP[:2] + ["2"] + self.LP[3:],
            ["reconstruct", "--input", "family:ellipsoid:a=1,b=1.2,c=1.5", "--L", "16",
             "--Lmax", "10", "--obj", str(tmp_path / "body.obj")],
        ):
            _, code = run_cli(argv, tmp_path)
            assert code in (0, 3), argv[0]
        assert built == []

    def test_one_legendre_recursion_per_node_set(self, tmp_path, monkeypatch):
        # the transform plan runs the P recursion once per (node set, L_max)
        # in a command, derivative tables included, and emptying the caches
        # leaves nothing behind for the next command
        keys = []
        packed = harmonics._legendre_packed

        def spy(t, L_max, *args):
            keys.append((np.asarray(t).tobytes(), L_max))
            return packed(t, L_max, *args)

        monkeypatch.setattr(harmonics, "_legendre_packed", spy)
        runs = []
        for _ in range(2):
            counts = []
            for argv in (self.LP, self.CHECK):
                clear_program_caches()
                keys.clear()
                _, code = run_cli(argv, tmp_path)
                assert code in (0, 3)
                assert keys and len(keys) == len(set(keys)), argv[0]
                counts.append(len(keys))
            runs.append(counts)
        assert runs[0] == runs[1]

    def test_check_builds_no_legendre_table_above_channel_band(self, tmp_path, monkeypatch):
        # every transform of check stays within the channel band L_max + 2:
        # no hidden re-analysis at a wider band
        bands = []
        packed = harmonics._legendre_packed

        def spy(t, L_max, *args):
            bands.append(L_max)
            return packed(t, L_max, *args)

        monkeypatch.setattr(harmonics, "_legendre_packed", spy)
        clear_program_caches()
        _, code = run_cli(self.CHECK, tmp_path)
        assert code in (0, 3)
        assert bands and max(bands) <= 10 + 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_kernels_evaluates_each_quadrature_once(self, tmp_path, monkeypatch, n):
        # the CSV rows and the kernel_equivalence summary share one
        # evaluation per s, in the dimension n alone
        seen = []
        real = kernels.omega_radial
        monkeypatch.setattr(kernels, "omega_radial",
                            lambda s, dim: seen.append((dim, s)) or real(s, dim))
        report, code = run_cli(["kernels", "--n", str(n), "--out", str(tmp_path / "k.csv")],
                               tmp_path)
        assert code == 0
        assert len(seen) == len(set(seen)) == 39
        assert {dim for dim, _ in seen} == {n}
        assert report["kernel_equivalence"]["dimensions"] == [n]
