import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import chmass
from chmass.cli import run, to_json
from chmass.sphere import ScalarField, build_grid, random_c2_field, scalar_field_to_dict
from chmass.spectrum import eigenvalue_area_charge_residual


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_runtime_never_imports_scipy():
    # a fresh interpreter runs every former scipy consumer; scipy is a test
    # oracle only, so it must not be loaded
    code = textwrap.dedent("""
        import contextlib, io, sys
        import numpy as np
        import chmass.cli
        from chmass.models import params_from_neck
        from chmass.profile import arclength_from_r, integrate_profile
        from chmass.sphere import ScalarField, build_grid
        from chmass.spectrum import lambda1_discrete, laplace_spectrum_discrete
        from chmass.surfaces import GraphSurface

        prof = integrate_profile(0.5, 0.3, 1.0, s_max=2.0)
        arclength_from_r(params_from_neck(0.5, 0.3, 1.0), 0.7)
        grid = build_grid(16, 32)
        lambda1_discrete(GraphSurface(prof, 0.0, ScalarField(grid, np.zeros((16, 32)))), lmax=4)
        laplace_spectrum_discrete(grid, 0.5, 9, lmax=4)
        with contextlib.redirect_stdout(io.StringIO()):
            assert chmass.cli.run(["nariai", "--alpha", "0.8"]) == 0
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_json_serializer_digits_and_specials():
    text = to_json({"x": 0.1, "flag": True, "none": None, "bad": float("nan"), "neg": -0.0})
    parsed = json.loads(text)
    assert parsed["x"] == 0.1
    assert parsed["flag"] is True
    assert parsed["bad"] is None
    assert "0.10000000000000001" in text  # 17 significant digits
    assert "-0" not in text


def test_horizons_nariai_classification(capsys):
    code, out, _ = invoke(capsys, "horizons", "--neck-a", "0.8", "--q", "0.48")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "double-outer"
    mult = {round(r["r"], 3): r["multiplicity"] for r in payload["roots"]}
    assert mult[0.8] == 2


def test_horizons_from_mass_flags(capsys):
    code, out, _ = invoke(capsys, "horizons", "--m", "0.3191667", "--q", "0.3", "--lambda", "1")
    assert code == 0
    assert json.loads(out)["classification"] == "three-distinct-positive"


def test_profile_csv_schema(capsys, tmp_path):
    out_path = tmp_path / "prof.csv"
    code, _, _ = invoke(
        capsys, "profile", "--neck-a", "0.5", "--q", "0.3", "--lambda", "1",
        "--s-max", "1.0", "--tol", "1e-10", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "s,u,du,ddu,R,ric_nn,H,mch"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.abs(rows[:, 7] - 0.3191666666666667).max() <= 1e-8  # mch column constant
    mid = rows[len(rows) // 2]
    assert mid[0] == 0.0 and mid[1] == 0.5


def test_mass_zero_surface(capsys, tmp_path):
    grid = build_grid(32, 64)
    surface = {
        "base": {"neck_a": 0.5, "q": 0.3, "lambda": 1.0, "s0": 0.0},
        "phi": scalar_field_to_dict(ScalarField(grid, np.zeros((32, 64)))),
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(surface))
    code, out, _ = invoke(capsys, "mass", "--surface", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mch"] == pytest.approx(0.3191666666666667, abs=1e-10)
    assert payload["charge"] == pytest.approx(0.3, abs=1e-10)
    assert payload["area"] == pytest.approx(math.pi, abs=1e-10)


def test_mass_random_surface_round_trips_field(capsys, tmp_path):
    grid = build_grid(32, 64)
    fld = random_c2_field(grid, 3, 4, 0.02)
    surface = {
        "base": {"neck_a": 0.5, "q": 0.3, "lambda": 1.0, "s0": 0.0},
        "phi": scalar_field_to_dict(fld),
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(surface))
    code, out, _ = invoke(capsys, "mass", "--surface", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["mch"] < 0.3191666666666667  # strict local maximality
    assert payload["charge"] == pytest.approx(0.3, abs=1e-6)


def test_spectrum_report(capsys):
    code, out, _ = invoke(capsys, "spectrum", "--neck-a", "0.5", "--q", "0.3", "--grid", "16", "--k", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1_analytic"] == pytest.approx(1.56, abs=1e-12)
    assert payload["lambda1_discrete"] == pytest.approx(1.56, abs=2e-3)
    assert payload["window"] == pytest.approx([0.1, 0.9], abs=1e-12)
    assert payload["laplace_eigenvalues"][1] == pytest.approx(8.0, rel=1e-3)


def test_variation_minimal_slice(capsys):
    code, out, _ = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--s0", "0",
        "--phi", "Y:1,0", "--grid", "16",
    )
    assert code == 0
    payload = json.loads(out)
    # Y_{1,0} is quarter L2-normalized on the a = 1/2 slice: int phi^2 = 1/4
    assert payload["second_analytic"] == pytest.approx(-0.7607606279792597 / 4, abs=1e-9)
    assert payload["second_fd"] == pytest.approx(payload["second_analytic"], abs=1e-6)
    assert payload["first_analytic"] == pytest.approx(0.0, abs=1e-12)
    assert payload["z_max"] <= 1e-10


def test_variation_band_beyond_grid_is_usage_error(capsys):
    code, out, err = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:99,0",
    )
    assert code == 2 and out == ""
    assert "beyond grid band" in err and "Traceback" not in err


def test_foliate_csv(capsys):
    code, out, _ = invoke(
        capsys, "foliate", "--neck-a", "0.5", "--q", "0.3", "--t-max", "0.4", "--steps", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,u,H,dH,lambda1,dmch"
    mid = [float(v) for v in lines[3].split(",")]
    assert mid[0] == 0.0
    assert mid[3] == pytest.approx(-1.56, abs=1e-10)


def test_localmax_report(capsys):
    code, out, _ = invoke(
        capsys, "localmax", "--neck-a", "0.5", "--q", "0.3",
        "--samples", "10", "--amp", "0.02", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_excess"] <= 1e-9
    assert payload["all_near_equality_are_slices"] is True


def test_localmax_zero_samples_is_usage_error(capsys):
    code, out, err = invoke(capsys, "localmax", "--neck-a", "0.5", "--q", "0.3", "--samples", "0")
    assert code == 2 and out == ""
    assert "n_samples" in err


def test_electrostatics_rnds(capsys):
    code, out, _ = invoke(
        capsys, "electrostatics", "--m", "0.3191667", "--q", "0.3", "--lambda", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert max(payload["residuals"].values()) <= 1e-8
    assert payload["hypothesis_sup_e2_le_lambda"] is False
    assert payload["sup_e2"] == pytest.approx(1.44, abs=1e-4)
    assert all(c["satisfied"] for c in payload["components"])


def test_electrostatics_zero_samples_is_usage_error(capsys):
    code, out, err = invoke(capsys, "electrostatics", "--m", "0.3", "--q", "0.3", "--samples", "0")
    assert code == 2 and out == ""
    assert "samples must be at least 1" in err


def test_electrostatics_nariai(capsys):
    code, out, _ = invoke(capsys, "electrostatics", "--nariai-alpha", "0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "nariai"
    assert payload["weighted_sum_lhs"] <= 1e-8


def test_nariai_subcommand(capsys):
    code, out, _ = invoke(capsys, "nariai", "--alpha", "0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["equality_residual"] == pytest.approx(0.0, abs=1e-12)
    assert payload["q2"] == pytest.approx(0.2304, abs=1e-12)


class TestSweep:
    def test_identity_bounded(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "0.05:0.95:10", "--q2", "0:0.25:10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a2,q2,residual"
        assert len(lines) == 101
        residuals = [abs(float(line.split(",")[2])) for line in lines[1:]]
        assert max(residuals) <= 1e-12

    def test_area_charge_sweep_all_pass(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--check", "areacharge", "--q2", "0.01:0.24:6", "--mfrac", "0.05:0.95:6",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q2,mfrac,m,margin,pass"
        assert all(line.endswith(",1") for line in lines[1:])

    def test_window_agreement(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--check", "window", "--q2", "0.01:0.2:8", "--a2", "0.2:0.8:8",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            cols = line.split(",")
            assert cols[2] == cols[3]  # a is the middle root iff the neck is strictly stable

    def test_determinism_across_jobs(self, capsys):
        a1 = invoke(capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:8",
                    "--q2", "0:0.25:8", "--jobs", "1")[1]
        a8 = invoke(capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:8",
                    "--q2", "0:0.25:8", "--jobs", "8")[1]
        assert a1 == a8

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_usage_error(self, capsys, jobs):
        code, out, err = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:3", "--q2", "0:0.25:3",
            "--jobs", jobs,
        )
        assert code == 2 and out == ""
        assert "jobs" in err

    @pytest.mark.parametrize("q2", ["0:nan:2", "0:inf:2", "nan:0.2:2"])
    def test_nonfinite_axis_bounds_is_usage_error(self, capsys, q2):
        code, out, err = invoke(
            capsys, "sweep", "--check", "identity", "--q2", q2, "--a2", "0.1:0.9:2",
        )
        assert code == 2 and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("check, axes, axis", [
        ("identity", ("--a2", "-0.1:0.9:2", "--q2", "0:0.2:2"), "a2"),
        ("identity", ("--a2=-0.1:0.9:2", "--q2", "0:0.2:2"), "a2"),
        ("identity", ("--a2", "0.1:0.9:2", "--q2", "-0.2:0.2:2"), "q2"),
        ("window", ("--q2", "0.01:0.1:2", "--a2", "0.5:-0.5:2"), "a2"),
        ("areacharge", ("--q2", "0.01:0.1:2", "--mfrac", "-0.5:0.5:2"), "mfrac"),
    ])
    def test_negative_axis_bound_is_domain_error(self, capsys, check, axes, axis):
        # a spec with a leading minus reaches parse_axis, not argparse's flag reader
        code, out, err = invoke(capsys, "sweep", "--check", check, *axes)
        assert code == 2 and out == ""
        assert f"axis {axis} must be nonnegative" in err

    @pytest.mark.parametrize("check, axes, axis", [
        ("identity", ("--a2", "0:0.9:2", "--q2", "0:0.2:2"), "a2"),
        ("window", ("--q2", "0.01:0.1:2", "--a2", "0.9:0:2"), "a2"),
        ("areacharge", ("--q2", "0:0.2:2", "--mfrac", "0.1:0.9:2"), "q2"),
        ("areacharge", ("--q2", "0.1:0.25:2", "--mfrac", "0.1:0.9:2"), "q2"),
        ("areacharge", ("--q2", "0.1:0.2:2", "--mfrac", "0:0.5:2"), "mfrac"),
        ("areacharge", ("--q2", "0.1:0.2:2", "--mfrac", "0.1:1.5:2"), "mfrac"),
    ])
    def test_axis_outside_check_domain_is_named(self, capsys, check, axes, axis):
        # rejected before any point is evaluated, with the axis named
        code, out, err = invoke(capsys, "sweep", "--check", check, *axes)
        assert code == 2 and out == ""
        assert f"axis {axis} must lie in" in err

    def test_window_a2_above_nonnegative_mass_is_named(self, capsys):
        # m >= 0 needs a2 <= (3 + sqrt(9 + 12 q2))/2, about 3.0968 at q2 = 0.1
        code, out, err = invoke(
            capsys, "sweep", "--check", "window", "--q2", "0.1:0.2:2", "--a2", "0.5:4:2",
        )
        assert code == 2 and out == ""
        assert "axis a2 must be below (3 + sqrt(9 + 12 q2))/2 = 3.09687" in err
        code, out, _ = invoke(
            capsys, "sweep", "--check", "window", "--q2", "0.1:0.2:2", "--a2", "0.5:3.09:2",
        )
        assert code == 0 and len(out.strip().splitlines()) == 5

    def test_identity_rows_are_row_major_and_match_scalar(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "0.05:0.95:40", "--q2", "0:0.25:40",
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        expected = [(x, y) for x in np.linspace(0.05, 0.95, 40).tolist()
                    for y in np.linspace(0.0, 0.25, 40).tolist()]
        assert [(a2, q2) for a2, q2, _ in rows] == expected
        # the array expression and the scalar call may round differently
        # (numpy's array power vs libm's pow), by a few ulps of 4 pi
        worst = max(abs(res - eigenvalue_area_charge_residual(math.sqrt(a2), math.sqrt(q2)))
                    for a2, q2, res in rows)
        assert worst <= 1e-14

    def test_mass_flag_is_not_an_axis(self, capsys):
        # --m is a float flag that no sweep uses; it used to be parsed as an
        # axis spec and crash with a traceback
        code, out, _ = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:2", "--q2", "0:0.2:2",
            "--m", "0.3",
        )
        assert code == 0 and out.startswith("a2,q2,residual")

    def test_minus_leading_spec_reaches_parse_axis(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "-inf:0.9:2", "--q2", "0:0.2:2",
        )
        assert code == 2 and out == ""
        assert "finite" in err and "expected one argument" not in err

    def test_empty_or_unknown_grid_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--check", "identity")
        assert code == 2 and "needs axes" in err
        code, _, err = invoke(capsys, "sweep", "--check", "nope", "--a2", "0:1:2", "--q2", "0:1:2")
        assert code == 2


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("neck-a = 0.8\nq = 0.48\n# comment\n")
        code, out, _ = invoke(capsys, "horizons", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["classification"] == "double-outer"

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("neck-a = 0.8\nq = 0.48\n")
        code, out, _ = invoke(capsys, "horizons", "--config", str(cfg), "--neck-a", "0.5", "--q", "0.3")
        assert code == 0
        assert json.loads(out)["classification"] == "three-distinct-positive"

    @pytest.mark.parametrize("argv, flag", [
        (("horizons", "--m", "nan", "--q", "0.3"), "--m"),
        (("horizons", "--m", "0.3", "--q", "inf"), "--q"),
        (("horizons", "--m", "0.3", "--lambda", "nan"), "--lambda"),
        (("profile", "--neck-a", "0.5", "--s-max", "inf"), "--s-max"),
        (("nariai", "--alpha", "nan"), "--alpha"),
        # a value with one leading minus reaches the check, not argparse's flag reader
        (("nariai", "--alpha", "-inf"), "--alpha"),
        (("horizons", "--m", "-nan", "--q", "0.3"), "--m"),
    ])
    def test_nonfinite_flag_is_named(self, capsys, argv, flag):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert f"{flag} must be finite" in err

    def test_negative_float_flag_keeps_domain_message(self, capsys):
        code, out, err = invoke(capsys, "nariai", "--alpha", "-0.5")
        assert code == 2 and out == ""
        assert "outside the charged Nariai interval" in err

    def test_nonfinite_config_value_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("neck-a = 0.5\nq = nan\n")
        code, out, err = invoke(capsys, "horizons", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "--q must be finite" in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["horizons", "--bogus", "1"])
        assert err.value.code == 2

    def test_missing_required_exits_2(self, capsys):
        code, _, err = invoke(capsys, "profile")
        assert code == 2
        assert "neck-a" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, err = invoke(capsys, "nariai", "--alpha", "0.5")
        assert code == 2
        assert "Nariai" in err


def test_verify_quick_json(capsys):
    # tol-scale only loosens bounds; smoke the machinery end to end
    code, out, _ = invoke(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 14
    assert all(item["passed"] for item in payload)


def test_variation_emits_scalar_field_json(capsys, tmp_path):
    out_phi = tmp_path / "phi.json"
    code, _, _ = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--s0", "0",
        "--phi", "Y:2,1", "--grid", "16", "--emit-phi", str(out_phi),
    )
    assert code == 0
    payload = json.loads(out_phi.read_text())
    assert payload["n_theta"] == 16 and payload["n_phi"] == 32
    # round trip: feed the emitted field back in as a file
    code2, out2, _ = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--s0", "0",
        "--phi", str(out_phi), "--grid", "16",
    )
    assert code2 == 0
    assert json.loads(out2)["second_analytic"] is not None


def test_verify_text_rendering_and_failure_exit(capsys, monkeypatch):
    # exit-code contract: 1 when any criterion fails, lines list every check
    import chmass.cli as cli
    from chmass.verification import CheckResult, CriterionResult, VerificationSummary

    fake = VerificationSummary(
        results=[
            CriterionResult(
                cid="99", title="synthetic criterion", seconds=0.01,
                checks=[
                    CheckResult(name="good", value=0.0, bound=1.0, passed=True),
                    CheckResult(name="bad", value=2.0, bound=1.0, passed=False),
                ],
            )
        ]
    )
    monkeypatch.setattr(cli, "run_all", lambda tol_scale=1.0: fake)
    code, out, _ = invoke(capsys, "verify")
    assert code == 1
    assert "[FAIL] 99 synthetic criterion" in out
    assert "[BAD] bad" in out
    assert out.strip().endswith("overall: FAIL")


def test_json_serializer_empty_containers():
    assert to_json({}) == "{}"
    assert to_json([]) == "[]"
    assert json.loads(to_json({"a": [], "b": {}})) == {"a": [], "b": {}}


def test_axis_spec_validation(capsys):
    code, _, err = invoke(capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9", "--q2", "0:0.25:5")
    assert code == 2 and "lo:hi:count" in err
    code, _, err = invoke(capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:0", "--q2", "0:0.25:5")
    assert code == 2


def test_unit_lambda_normalization_enforced(capsys):
    code, _, err = invoke(capsys, "spectrum", "--neck-a", "0.5", "--q", "0.3", "--lambda", "2")
    assert code == 2 and "Lambda = 1" in err
