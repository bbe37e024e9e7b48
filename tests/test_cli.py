import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import chmass
from chmass import cli, sphere
from chmass.cli import run, to_json
from chmass.electrostatics import verify_einstein_maxwell_static
from chmass.models import ModelParams, nariai_from_alpha
from chmass.sphere import ScalarField, build_grid, random_c2_field, scalar_field_to_dict
from chmass.spectrum import eigenvalue_area_charge_residual


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_error(capsys, *argv):
    """Exit code, stdout and stderr of an argv that argparse itself ends."""
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


def declared_flags(cmd):
    """The flags a subcommand accepts: its own plus --out and --config."""
    own = {flag for flag, (dest, _, _) in cli._FLAGS.items() if dest in cli._COMMANDS[cmd][1]}
    return own | {"--out", "--config"}


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


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; the seeded draw reaches it on first use,
    # so a CLI start that draws nothing never pays for it.  Sweeps run
    # serially, so no CLI start loads concurrent.futures either.
    modules = ["numpy.random", "concurrent.futures"]
    code = f"import sys, chmass.cli; print([m for m in {modules} if m in sys.modules])"
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_values_do_not_depend_on_the_blas_thread_count():
    # a verify value is a function of the code alone: no contraction sums in
    # an order that follows BLAS's split of the work between threads, so the
    # JSON output, its timings left out, is the same bytes at 1 and 2 threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "chmass.cli", "verify", "--format", "json"],
                              env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([line for line in proc.stdout.splitlines() if b'"seconds"' not in line])
    assert outputs[0] == outputs[1]


def _fresh_chmass_modules(code):
    """The chmass submodules a fresh interpreter has loaded after ``code``."""
    code += "\nimport sys; print(' '.join(m for m in sys.modules if m.startswith('chmass.')))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(chmass.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_submodule():
    assert _fresh_chmass_modules("import chmass") == set()


@pytest.mark.parametrize("argv", [
    ["horizons", "--m", "0.3191667", "--q", "0.3"],
    ["electrostatics", "--m", "0.3191667", "--q", "0.3"],
    ["sweep", "--check", "identity", "--a2", "0.1:0.9:3", "--q2", "0:0.2:3"],
    ["sweep", "--check", "window", "--q2", "0.02:0.2:3", "--a2", "0.1:0.9:3"],
    ["sweep", "--check", "areacharge", "--q2", "0.02:0.2:3", "--mfrac", "0.1:0.9:3"],
    ["nariai", "--alpha", "0.8"],
    ["foliate", "--neck-a", "0.5", "--q", "0.3"],
], ids=[
    "horizons", "electrostatics", "sweep-identity", "sweep-window", "sweep-areacharge",
    "nariai", "foliate",
])
def test_closed_form_subcommands_skip_the_surface_modules(argv):
    # these subcommands read closed forms only: the surface stack, the
    # variations and the suite stay unloaded, and so do the spherical-harmonic
    # and profile modules, except where the closed form is the profile's (the
    # foliation and the Nariai equality)
    loaded = _fresh_chmass_modules(textwrap.dedent(f"""
        import contextlib, io, chmass.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert chmass.cli.run({argv!r}) == 0
    """))
    assert "chmass.sweeps" in loaded
    heavy = {"surfaces", "variations", "verification"}
    if argv[0] not in ("nariai", "foliate"):
        heavy |= {"sphere", "profile"}
    assert not loaded & {f"chmass.{m}" for m in heavy}
    if "identity" in argv:  # the closed form lives in spectrum alone
        assert loaded == {"chmass.cli", "chmass.sweeps", "chmass.spectrum"}


def test_export_table_resolves_each_name_in_its_submodule():
    for name in chmass.__all__:
        module = importlib.import_module(f"chmass.{chmass._SOURCE[name]}")
        assert getattr(chmass, name) is getattr(module, name), name
    # each function and class has one home: no module lists another's in __all__
    for info in pkgutil.iter_modules(chmass.__path__):
        module = importlib.import_module(f"chmass.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
    assert set(chmass.__all__) <= set(dir(chmass))
    with pytest.raises(AttributeError, match="no_such_name"):
        chmass.no_such_name  # noqa: B018
    from chmass import build_grid

    assert build_grid is sphere.build_grid


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


def test_horizons_exact_double_root_stays_on_the_root(capsys):
    # m = m_min at Q^2 = 0.01875: the companion eigenvalues of the double root
    # come out as a complex pair, and Newton polishing must not jump off it
    code, out, _ = invoke(
        capsys, "horizons", "--m", "0.13649657128902754", "--q", "0.13693067315251176"
    )
    assert code == 0
    payload = json.loads(out)
    double = [r["r"] for r in payload["roots"] if r["multiplicity"] == 2]
    assert double == [pytest.approx(0.1382585, abs=1e-7)]
    assert payload["classification"] == "double-inner"


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
    # the report's own fields, first_order renamed; the second-variation
    # block only at s0 = 0.  The Y_{1,0} stencil's masses are symmetric, so
    # its FD order and floor ratio are undefined and left out; Y_{2,0}'s at
    # s0 = 0.3 are defined.  The second differences of Y_{1,0} differ, so
    # their floor ratio is defined
    first = [
        "first_analytic", "first_fd", "first_fd_order", "first_floor_ratio", "z_max", "dt",
        "mass_resolution",
    ]
    second = [
        "second_analytic", "second_as_printed", "second_fd", "second_fd_step_gap",
        "second_floor_ratio",
    ]
    defined = [k for k in first if k not in ("first_fd_order", "first_floor_ratio")]
    assert list(payload) == defined + second
    code, out, _ = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--s0", "0.3",
        "--phi", "Y:1,0", "--grid", "16",
    )
    assert code == 0 and list(json.loads(out)) == defined
    code, out, _ = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--s0", "0.3",
        "--phi", "Y:2,0", "--grid", "16",
    )
    assert code == 0 and list(json.loads(out)) == first


def test_variation_second_floor_ratio(capsys):
    # the five-point stencil's roundoff floor (64/3) eps |m|/dt^2 over its
    # step gap: at dt = 1e-150 the second difference is roundoff (5.6e283
    # against a closed form of -1.53) and the ratio reads at least 1; at the
    # default dt = 1e-2 it reads far below 1.  A constant speed moves along
    # the slices, whose mass is constant, so its second difference (6.1e-12
    # at dt = 1e-2) is roundoff alone and its ratio reads at least 1 too
    argv = ["variation", "--neck-a", "0.5", "--q", "0.3", "--grid", "16"]
    ratios = {}
    for phi, dt in (("Y:2,0", "1e-150"), ("Y:2,0", "1e-2"), ("Y:0,0", "1e-2")):
        code, out, _ = invoke(capsys, *argv, "--phi", phi, "--dt", dt)
        assert code == 0
        ratios[phi, dt] = json.loads(out)["second_floor_ratio"]
    assert ratios["Y:2,0", "1e-150"] >= 1.0
    assert ratios["Y:2,0", "1e-2"] <= 1e-2
    assert ratios["Y:0,0", "1e-2"] >= 1.0


def test_variation_leaves_out_undefined_second_floor_ratio(capsys, monkeypatch):
    # two equal second differences leave a step gap of 0, so the ratio is
    # infinite in the report and left out of the JSON, not printed
    from chmass import variations

    monkeypatch.setattr(variations, "_second_fd", lambda mass, dt: -1.5)
    code, out, _ = invoke(capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:2,0")
    payload = json.loads(out)
    assert code == 0 and payload["second_fd_step_gap"] == 0.0
    assert "second_floor_ratio" not in payload and "Infinity" not in out


def test_variation_leaves_out_undefined_fd_fields(capsys):
    # README's example: the Y_{1,0} stencil's masses are exactly symmetric, so
    # the three central differences are 0, and the FD order (nan) and floor
    # ratio (inf) are left out, not printed as null.  The report keeps them,
    # so the order checks of criterion 08 fail on them.
    argv = ["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,0"]
    code, out, err = invoke(capsys, *argv)
    payload = json.loads(out)
    assert code == 0 and err == "" and payload["first_fd"] == 0.0
    assert "first_fd_order" not in payload and "first_floor_ratio" not in payload
    assert "second_fd" in payload and "null" not in out
    from chmass.profile import integrate_profile
    from chmass.variations import variation_report
    phi = ScalarField.from_coeffs(build_grid(32, 64), np.eye(4)[2])
    report = variation_report(integrate_profile(0.5, 0.3, 1.0, s_max=1.0), 0.0, phi)
    assert math.isnan(report.first_order) and report.first_floor_ratio == math.inf


def test_mass_wrong_length_surface_is_named(capsys, tmp_path):
    surface = {
        "base": {"neck_a": 0.5, "q": 0.3},
        "phi": {"n_theta": 16, "n_phi": 32, "values": [0.0] * 100},
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(surface))
    code, out, err = invoke(capsys, "mass", "--surface", str(path))
    assert code == 2 and out == ""
    assert "scalar field has 100 values, but n_theta * n_phi = 16 * 32 = 512" in err


@pytest.mark.parametrize(
    "payload,missing",
    [
        ({"n_theta": 16, "n_phi": 32, "values": [0.0] * 512}, "base, phi"),
        ({"phi": {"n_theta": 16, "n_phi": 32, "values": [0.0] * 512}}, "base"),
        ({"base": {"neck_a": 0.5}}, "phi"),
        ({"base": {"q": 0.3}, "phi": {"n_theta": 16, "n_phi": 32, "values": [0.0] * 512}},
         "base.neck_a"),
        ({"base": 0.5, "phi": {"n_theta": 16, "n_phi": 32, "values": [0.0] * 512}},
         "base.neck_a"),
        (0.5, "base, phi"),
    ],
    ids=["scalar-field-file", "no-base", "no-phi", "no-neck-a", "base-not-object", "not-object"],
)
def test_mass_surface_without_keys_is_named(capsys, tmp_path, payload, missing):
    # a bare ScalarField file is not a surface file
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, "mass", "--surface", str(path))
    assert code == 2 and out == ""
    assert f"surface JSON lacks {missing}" in err


_FIELD_16 = {"n_theta": 16, "n_phi": 32, "values": [0.0] * 512}


@pytest.mark.parametrize(
    "payload,named",
    [
        ({"base": {"neck_a": 0.5}, "phi": 7}, "surface JSON phi: scalar field JSON is not an object"),
        ({"base": {"neck_a": [1]}, "phi": _FIELD_16}, "surface JSON base.neck_a is not a number"),
        ({"base": {"neck_a": 0.5}, "phi": {**_FIELD_16, "values": {"a": 1}}},
         "surface JSON phi: scalar field JSON values:"),
        ({"base": {"neck_a": 0.5, "s0": None}, "phi": _FIELD_16},
         "surface JSON base.s0 is not a number"),
    ],
    ids=["phi-number", "neck-a-list", "values-object", "s0-null"],
)
def test_mass_surface_wrong_json_type_is_named(capsys, tmp_path, payload, named):
    # a nested value of the wrong JSON type is a usage error naming its key
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(payload))
    code, out, err = invoke(capsys, "mass", "--surface", str(path))
    assert code == 2 and out == ""
    assert named in err


def test_variation_phi_without_field_keys_is_named(capsys, tmp_path):
    # a surface file is not a ScalarField: its keys are base and phi
    grid = build_grid(16, 32)
    surface = {
        "base": {"neck_a": 0.5, "q": 0.3},
        "phi": scalar_field_to_dict(ScalarField(grid, np.zeros((16, 32)))),
    }
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(surface))
    code, out, err = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", str(path), "--grid", "16",
    )
    assert code == 2 and out == ""
    assert "scalar field JSON lacks n_theta, n_phi, values" in err


@pytest.mark.parametrize("dt", ["0", "-0.01"])
def test_variation_nonpositive_step_is_usage_error(capsys, dt):
    # dt 0 ended in a ZeroDivisionError traceback, and a negative dt ran
    code, out, err = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,0", "--grid", "16",
        "--dt", dt,
    )
    assert code == 2 and out == ""
    assert "dt must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_spectrum_nonpositive_count_is_usage_error(capsys, k):
    # k 0 printed no eigenvalues, and k -2 printed all but the last two
    code, out, err = invoke(
        capsys, "spectrum", "--neck-a", "0.5", "--q", "0.3", "--grid", "16", "--k", k,
    )
    assert code == 2 and out == ""
    assert "must be at least 1" in err


def test_variation_band_beyond_grid_is_usage_error(capsys):
    code, out, err = invoke(
        capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:99,0",
    )
    assert code == 2 and out == ""
    assert "beyond grid band" in err and "Traceback" not in err


# each subcommand that reads --q: its model flags other than --q, and the
# flags it needs besides
_Q_COMMANDS = [
    ("horizons", ["--m", "0.3"], []),
    ("profile", ["--neck-a", "0.5"], []),
    ("spectrum", ["--neck-a", "0.5"], ["--grid", "16"]),
    ("variation", ["--neck-a", "0.5"], ["--phi", "Y:1,0", "--grid", "16"]),
    ("foliate", ["--neck-a", "0.5"], []),
    ("localmax", ["--neck-a", "0.5"], []),
    ("electrostatics", ["--m", "0.3"], []),
]

# inputs at the edges of the float range, each with None (it must exit 0 with
# finite numbers) or a phrase of its one error line.  Below the neck floor u^3
# or a^2 underflows to 0; the identity sweeps' a^4 underflows or 4 pi a^2
# overflows; at Lambda = 1e-80 the companion roots lose the neck and merge
# into a spurious double root, and at 1e-300 they overflow.  Above 1.34e154
# the square of --q or --neck-a overflows; below s_max = 1e-290 a collocation
# panel's arithmetic leaves the normal floats, and below dt = 2^-511 dt^2
# does.  A Y:1,0 or Y:2,1 stencil has exactly symmetric masses, so its FD
# order and floor ratio are undefined and left out of the output.
_BOUNDARY = [
    (["profile", "--neck-a", "1e-110", "--q", "0"], "--neck-a must be at least"),
    (["spectrum", "--neck-a", "1e-110", "--q", "0", "--grid", "16"], "--neck-a must be at least"),
    (["foliate", "--neck-a", "1e-110", "--q", "0"], "--neck-a must be at least"),
    (["variation", "--neck-a", "1e-110", "--q", "0", "--phi", "Y:1,0", "--grid", "16"],
     "--neck-a must be at least"),
    (["localmax", "--neck-a", "1e-110", "--q", "0"], "--neck-a must be at least"),
    (["horizons", "--neck-a", "1e-170"], "--neck-a must be at least"),
    (["profile", "--neck-a", "1e-50", "--q", "0"], "collocation panel width collapsed"),
    (["horizons", "--neck-a", "0.5", "--q", "0.3", "--lambda", "1e-40"], None),
    (["horizons", "--neck-a", "0.5", "--q", "0.3", "--lambda", "1e-80"], "not a critical point"),
    (["horizons", "--neck-a", "0.5", "--q", "0.3", "--lambda", "1e-300"], "is not finite"),
    (["horizons", "--m", "1e308"], "non-finite monic coefficients"),
    (["sweep", "--check", "identity", "--a2", "1e-300:1e-299:3", "--q2", "0:1e-300:3"],
     "non-finite residual at a2 = 1e-300"),
    (["sweep", "--check", "identity", "--a2", "0.1:1e308:3", "--q2", "0:0.1:3"],
     "non-finite residual at a2 = 5e+307"),
    (["sweep", "--check", "identity", "--a2", "1e-10:1e10:3", "--q2", "0:1:3"], None),
    (["sweep", "--check", "window", "--a2", "1e-320:0.5:3", "--q2", "0.01:0.1:3"],
     "axis a2 must lie in (1.49167e-154, inf) for check 'window'"),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1", "--grid", "16"],
     "--phi must be 'Y:l,m' (integers l, m) or a ScalarField JSON path, got 'Y:1'"),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:a,b", "--grid", "16"],
     "--phi must be 'Y:l,m' (integers l, m) or a ScalarField JSON path, got 'Y:a,b'"),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,0", "--grid", "16",
      "--dt", "10"], "arclength outside integrated range [-1.0, 1.0]: |s| up to 9.66848"),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,0", "--grid", "16"], None),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,0"], None),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:2,1", "--grid", "16"], None),
    *[([cmd, *base, "--q", "1e160", *rest], "--q must be at most 1.34078e+154 in magnitude")
      for cmd, base, rest in _Q_COMMANDS],
    *[([cmd, "--neck-a", "1e160", *rest], "--neck-a must be at most 1.34078e+154 in magnitude")
      for cmd, base, rest in _Q_COMMANDS if cmd != "electrostatics"],
    (["profile", "--neck-a", "0.5", "--q", "0.3", "--s-max", "1e-320"],
     "s_max must be at least 1e-290"),
    *[(["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:2,0", "--grid", "16",
        "--dt", dt], f"dt must be at least 1.49167e-154 (a normal dt^2), got {dt}")
      for dt in ("1e-320", "1e-200", "1e-160")],
]


def test_window_a2_floor_keeps_every_neck_above_the_neck_floor():
    # sweeps writes the floor out, so that an identity sweep loads no models:
    # every a2 above it has sqrt(a2) >= MIN_NECK, and the floor is not stricter
    from chmass.models import MIN_NECK
    from chmass.sweeps import _DOMAINS
    lo = _DOMAINS["window"]["a2"][0]
    assert math.sqrt(math.nextafter(lo, 1.0)) >= MIN_NECK and lo <= MIN_NECK**2


def _numbers(argv, out):
    """The numbers a run printed: the horizons and variation JSON leaves, or the sweep CSV."""
    if argv[0] == "sweep":
        return [float(x) for line in out.splitlines()[1:] for x in line.split(",")]
    payload = json.loads(out)

    def leaves(x):
        if isinstance(x, dict):
            return [v for y in x.values() for v in leaves(y)]
        if isinstance(x, list):
            return [v for y in x for v in leaves(y)]
        return [x] if not isinstance(x, str) else []
    return leaves(payload)


@pytest.mark.parametrize("argv, error", _BOUNDARY, ids=[" ".join(a) for a, _ in _BOUNDARY])
def test_boundary_input_prints_finite_numbers_or_one_error_line(capsys, argv, error):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, *argv)
    assert [str(w.message) for w in caught] == []  # a warning would be a second stderr line
    if error is None:
        assert code == 0 and err == ""
        numbers = _numbers(argv, out)
        assert numbers and all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers)
    else:
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"chmass {argv[0]}: error: ")
        assert error in err and "Traceback" not in err


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


@pytest.mark.parametrize("steps", ["-3", "0", "1"])
def test_foliate_too_few_steps_is_usage_error(capsys, steps):
    code, out, err = invoke(capsys, "foliate", "--neck-a", "0.5", "--q", "0.3", "--steps", steps)
    assert code == 2 and out == ""
    assert "n_steps must be at least 2" in err


@pytest.mark.parametrize(
    "argv", [["spectrum", "--grid", "1000000"], ["variation", "--grid", "257", "--phi", "Y:1,0"]],
    ids=["spectrum", "variation"],
)
def test_grid_above_ceiling_is_usage_error(capsys, monkeypatch, argv):
    def no_rule(n_theta):
        raise AssertionError(f"built the rule of n_theta = {n_theta}")

    monkeypatch.setattr(sphere, "_theta_rule", no_rule)  # a missed ceiling fails, never allocates
    code, out, err = invoke(capsys, *argv, "--neck-a", "0.5", "--q", "0.3")
    assert code == 2 and out == ""
    assert f"n_theta must be at most {sphere.MAX_N_THETA}" in err


def test_localmax_report(capsys):
    code, out, _ = invoke(
        capsys, "localmax", "--neck-a", "0.5", "--q", "0.3",
        "--samples", "10", "--amp", "0.02", "--seed", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_excess"] <= 1e-9
    assert payload["all_near_equality_are_slices"] is True


def test_localmax_prints_second_variation_gap(capsys):
    code, out, _ = invoke(
        capsys, "localmax", "--neck-a", "0.5", "--q", "0.3",
        "--samples", "10", "--amp", "0.02", "--seed", "1",
    )
    assert code == 0
    assert 0.0 < json.loads(out)["max_second_variation_gap"] <= 1e-3


def test_localmax_zero_samples_is_usage_error(capsys):
    code, out, err = invoke(capsys, "localmax", "--neck-a", "0.5", "--q", "0.3", "--samples", "0")
    assert code == 2 and out == ""
    assert "n_samples" in err


def test_localmax_negative_seed_is_usage_error(capsys):
    code, out, err = invoke(capsys, "localmax", "--neck-a", "0.5", "--q", "0.3", "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed must be a nonnegative integer, got -1" in err


@pytest.mark.parametrize("argv, entry", [
    (["foliate", "--neck-a", "0.5", "--q", "0.3", "--steps"], "chmass.profile.integrate_profile"),
    (
        ["electrostatics", "--m", "0.3191667", "--q", "0.3", "--samples"],
        "chmass.electrostatics.verify_einstein_maxwell_static",
    ),
    (
        ["localmax", "--neck-a", "0.5", "--q", "0.3", "--samples"],
        "chmass.variations.local_max_experiment",
    ),
])
@pytest.mark.parametrize("count", [2**16 + 1, 10**9])
def test_oversized_count_is_refused_before_any_work(capsys, monkeypatch, argv, entry, count):
    # 2**16 at most; the refusal comes before the subcommand's first call
    monkeypatch.setattr(entry, lambda *args, **kwargs: pytest.fail("ran the subcommand"))
    code, out, err = invoke(capsys, *argv, str(count))
    assert code == 2 and out == ""
    assert f"{argv[-1]} must be at most 65536, got {count}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, just_above", [
    (["profile", "--neck-a", "0.5", "--q", "0.3", "--s-max"], "10000.000001"),
    (["foliate", "--neck-a", "0.5", "--q", "0.3", "--t-max"], "9999.900001"),
    (["variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:2,0", "--s0"], "9999.500001"),
], ids=["profile-s-max", "foliate-t-max", "variation-s0"])
@pytest.mark.parametrize("size", ["just-above", "1e9"])
def test_oversized_range_is_refused_before_any_panel(capsys, monkeypatch, argv, just_above, size):
    # each flag sets the profile's s_max (t_max + 0.1, |s0| + 0.5), which
    # is at most 1e4; the refusal comes before the first collocation panel
    monkeypatch.setattr("chmass.profile._newton_panel", lambda *a: pytest.fail("solved a panel"))
    code, out, err = invoke(capsys, *argv, just_above if size == "just-above" else size)
    assert code == 2 and out == ""
    assert "s_max must be positive and at most 10000, got" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["profile", "mass"])
def test_profile_that_cannot_be_integrated_is_a_domain_error(capsys, tmp_path, entry):
    # a neck of radius 1e-9 collapses its first panel even with the step
    # floor: exit 2 and one line on stderr, not a traceback
    argv = ["profile", "--neck-a", "1e-9"]
    if entry == "mass":
        surface = {
            "base": {"neck_a": 1e-9, "q": 0.0},
            "phi": scalar_field_to_dict(ScalarField(build_grid(16, 32), np.zeros((16, 32)))),
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(surface))
        argv = ["mass", "--surface", str(path)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"chmass {entry}: error: collocation panel width collapsed (last valid s = 0)\n"


@pytest.mark.parametrize("s0", [9999.500001, 1e9])
def test_mass_surface_beyond_the_range_bound_is_refused(capsys, monkeypatch, tmp_path, s0):
    # a surface's profile reaches |s0| + max |phi| + 0.5, at most 1e4
    monkeypatch.setattr("chmass.profile._newton_panel", lambda *a: pytest.fail("solved a panel"))
    surface = {
        "base": {"neck_a": 0.5, "q": 0.3, "lambda": 1.0, "s0": s0},
        "phi": scalar_field_to_dict(ScalarField(build_grid(16, 32), np.zeros((16, 32)))),
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(surface))
    code, out, err = invoke(capsys, "mass", "--surface", str(path))
    assert code == 2 and out == ""
    assert "s_max must be positive and at most 10000, got" in err and "Traceback" not in err


def test_localmax_negative_amplitude_is_usage_error(capsys):
    code, out, err = invoke(capsys, "localmax", "--neck-a", "0.5", "--q", "0.3", "--amp", "-0.01")
    assert code == 2 and out == ""
    assert "amplitude must be nonnegative" in err


def test_variation_order_above_degree_is_usage_error(capsys):
    code, out, err = invoke(capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:1,2")
    assert code == 2 and out == ""
    assert "|m| = 2 exceeds l = 1" in err


def test_variation_negative_degree_is_usage_error(capsys):
    code, out, err = invoke(capsys, "variation", "--neck-a", "0.5", "--q", "0.3", "--phi", "Y:-1,0")
    assert code == 2 and out == ""
    assert "l must be nonnegative, got -1" in err and "exceeds" not in err


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


@pytest.mark.parametrize("h", ["0", "-1", "1e-300"])
def test_electrostatics_bad_step_is_usage_error(capsys, h):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, "electrostatics", "--m", "0.3", "--q", "0.3", "--h", h)
    assert code == 2 and out == ""
    assert (
        "h must be finite and positive" in err
        or "residual is not finite" in err
        or "below the step floor" in err
    )
    assert not caught


@pytest.mark.parametrize("h", ["1e-160", "1e-8"])
def test_electrostatics_roundoff_step_is_usage_error(capsys, h):
    # these steps printed residual 0 (1e-160) and 4.5e5 (1e-8) with exit 0
    code, out, err = invoke(capsys, "electrostatics", "--m", "0.3", "--q", "0.3", "--h", h)
    assert code == 2 and out == ""
    assert f"h = {float(h)} is below the step floor 6.06e-06" in err


def test_electrostatics_wide_step_names_the_stencil(capsys):
    code, out, err = invoke(capsys, "electrostatics", "--m", "0.3", "--q", "0.3", "--h", "1e10")
    assert code == 2 and out == ""
    assert "h = 10000000000.0 is too wide: the stencil footprint point +- 3h" in err
    assert "leaves the static region" in err and "lapse_squared" not in err


def test_electrostatics_nariai(capsys):
    code, out, _ = invoke(capsys, "electrostatics", "--nariai-alpha", "0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "nariai"
    assert payload["weighted_sum_lhs"] <= 1e-8


@pytest.mark.parametrize(
    "argv,model",
    [
        (["--m", "0.3191667", "--q", "0.3"], ModelParams(0.3191667, 0.3, 1.0)),
        (["--m", "0", "--q", "0"], ModelParams(0.0, 0.0, 1.0)),
        (["--nariai-alpha", "0.8"], nariai_from_alpha(0.8, 1.0)),
    ],
    ids=["rnds", "desitter", "nariai"],
)
def test_electrostatics_robinson_shen_point_is_the_reports(capsys, argv, model):
    code, out, _ = invoke(capsys, "electrostatics", *argv)
    assert code == 0
    point = json.loads(out)["robinson_shen"]["point"]
    assert point == verify_einstein_maxwell_static(model).robinson_shen_point


def test_electrostatics_degenerate_model_is_usage_error(capsys):
    code, out, err = invoke(capsys, "electrostatics", "--m", "0.45", "--q", "0.1")
    assert code == 2 and out == ""
    assert "no static region between distinct horizons" in err


def test_nariai_subcommand(capsys):
    code, out, _ = invoke(capsys, "nariai", "--alpha", "0.8")
    assert code == 0
    payload = json.loads(out)
    assert payload["equality_residual"] == pytest.approx(0.0, abs=1e-12)
    assert payload["q2"] == pytest.approx(0.2304, abs=1e-12)
    # NariaiParams' fields (lam renamed), then those the flow report adds
    assert list(payload) == [
        "alpha", "lambda", "m", "q2", "r_minus", "omega", "area", "area_charge_value",
        "equality_residual", "max_abs_h", "hprime_lhs", "hprime_rhs",
    ]


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

    def test_near_extremal_area_charge_sweep_passes(self, capsys):
        # Q = 1e-4 at 1e-9 of the window above m_min: the two inner horizons are
        # 5.2e-7 apart and stay distinct, so each is checked as a horizon
        code, out, _ = invoke(
            capsys, "sweep", "--check", "areacharge", "--q2", "1e-8:1e-8:1", "--mfrac", "1e-9:1e-9:1",
        )
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",1")

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
        # --m is a float flag that no sweep reads; it used to be parsed as an
        # axis spec and crash with a traceback, and is now refused by name
        # (not prefix-matched to --mfrac)
        code, out, err = parse_error(
            capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:2", "--q2", "0:0.2:2",
            "--m", "0.3",
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --m 0.3" in err and "Traceback" not in err

    def test_minus_leading_spec_reaches_parse_axis(self, capsys):
        code, out, err = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "-inf:0.9:2", "--q2", "0:0.2:2",
        )
        assert code == 2 and out == ""
        assert "finite" in err and "expected one argument" not in err

    def test_negative_zero_axis_value_prints_as_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "--check", "identity", "--a2", "0.1:0.9:2", "--q2", "0:-0:2",
        )
        assert code == 0
        assert [line.split(",")[1] for line in out.strip().splitlines()[1:]] == ["0"] * 4

    @staticmethod
    def _plain_csv(header, rows):
        """Reference CSV: every value formatted on its own."""
        lines = [",".join(header)]
        lines += [",".join(format(x + 0.0, ".17g") for x in row) for row in rows]
        return "\n".join(lines) + "\n"

    def test_csv_formats_like_each_value_on_its_own(self):
        from chmass.sweeps import _Texts, _csv

        nan, inf = float("nan"), float("inf")
        rows = [
            (0.1, -0.0, 0.0), (0.1, 0.0, -0.0), (nan, nan, 0.1), (inf, -inf, inf),
            (1, 1.0, np.float64(1.0)), (np.float64(0.1), 0.1, 1e-300), (-inf, nan, -0.0),
        ]
        text = _csv(["a", "b", "c"], rows)
        assert text == self._plain_csv(["a", "b", "c"], rows)
        assert text.splitlines()[1:4] == [
            "0.10000000000000001,0,0", "0.10000000000000001,0,0", "nan,nan,0.10000000000000001",
        ]
        grid = np.array([[0.25, -0.0, nan], [0.25, 0.0, inf]] * 3)
        assert _csv(["x", "y", "z"], grid) == self._plain_csv(["x", "y", "z"], grid)
        texts = _Texts()
        assert texts[nan] == texts[np.nan] == "nan" and not texts  # no NaN key is kept
        assert texts[-0.0] == texts[0.0] == "0" and len(texts) == 1

    @pytest.mark.parametrize("check, axes", [
        ("identity", {"a2": (0.05, 0.95, 30), "q2": (0.0, 0.25, 30)}),
        ("areacharge", {"q2": (0.01, 0.2, 5), "mfrac": (0.05, 0.95, 5)}),
        ("window", {"q2": (0.01, 0.2, 6), "a2": (0.02, 0.98, 6)}),
    ])
    def test_render_csv_formats_like_each_value_on_its_own(self, check, axes):
        from chmass.sweeps import render_csv, sweep_table

        assert render_csv(check, axes) == self._plain_csv(*sweep_table(check, axes))

    @pytest.mark.parametrize("check, axes", [
        ("identity", ("--a2", "0.1:0.9:20000", "--q2", "0:0.2:20000")),
        ("window", ("--q2", "0.01:0.2:1025", "--a2", "0.1:0.9:1024")),
        ("areacharge", ("--q2", "0.01:0.2:3", "--mfrac", "0.1:0.9:1000000000000")),
    ])
    def test_oversized_grid_is_refused_before_any_array(self, capsys, monkeypatch, check, axes):
        # 2**20 points at most; the refusal comes before an axis array is built
        from chmass import sweeps

        monkeypatch.setattr(sweeps, "_axis_values", lambda triple: pytest.fail("built an axis"))
        code, out, err = invoke(capsys, "sweep", "--check", check, *axes)
        counts = [int(spec.split(":")[2]) for spec in axes[1::2]]
        assert code == 2 and out == ""
        assert f"{counts[0]} x {counts[1]} = {counts[0] * counts[1]} points" in err
        assert "limit of 1048576 points" in err and "Traceback" not in err

    @pytest.mark.parametrize("axes, message", [
        ({"a2": (0.1, 0.9, -1)}, "axis a2 count must be a positive integer, got -1"),
        ({"a2": (0.1, 0.9, 2.5)}, "axis a2 count must be a positive integer, got 2.5"),
        ({"q2": (0.0, 0.2, 0)}, "axis q2 count must be a positive integer, got 0"),
        ({"a2": (-math.inf, 0.9, 2)}, "axis a2 bounds must be finite, got -inf:0.9"),
        ({"q2": (0.0, math.nan, 2)}, "axis q2 bounds must be finite, got 0:nan"),
    ], ids=["count-negative", "count-fraction", "count-zero", "bound-inf", "bound-nan"])
    def test_axis_triple_is_checked_by_name(self, axes, message):
        # an API caller's triple gets the checks the CLI's axis specs get,
        # before the domain check and before any axis array is built
        from chmass.sweeps import sweep_table

        axes = {"a2": (0.1, 0.9, 2), "q2": (0.0, 0.2, 2), **axes}
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_table("identity", axes)

    def test_empty_or_unknown_grid_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "sweep", "--check", "identity")
        assert code == 2 and "needs axes" in err
        code, _, err = invoke(capsys, "sweep", "--check", "nope", "--a2", "0:1:2", "--q2", "0:1:2")
        assert code == 2


class TestFlagContract:
    @pytest.mark.parametrize("cmd", list(cli._COMMANDS))
    def test_unread_flag_is_refused_by_name(self, capsys, cmd):
        unread = sorted(set(cli._FLAGS) - declared_flags(cmd))
        assert unread
        for flag in unread:
            code, out, err = parse_error(capsys, cmd, flag, "1")
            assert code == 2 and out == ""
            assert f"unrecognized arguments: {flag} 1" in err

    def test_abbreviation_is_refused(self, capsys):
        code, out, err = parse_error(capsys, "horizons", "--neck", "0.5")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --neck 0.5" in err

    @pytest.mark.parametrize("cmd", list(cli._COMMANDS))
    def test_help_lists_exactly_the_declared_flags(self, capsys, cmd):
        code, out, _ = parse_error(capsys, cmd, "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z0-9-]+", out)) == declared_flags(cmd) | {"--help"}

    def test_flag_and_command_tables_agree(self):
        dests = {dest for dest, _, _ in cli._FLAGS.values()}
        read = {dest for _, defaults in cli._COMMANDS.values() for dest in defaults}
        assert read <= dests  # every declared key is a flag dest
        assert dests <= read | {"out", "config"}  # every flag is read somewhere
        assert len(cli._FLAGS) == len(dests)


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

    def test_config_keys_are_long_flag_names(self, capsys, tmp_path):
        # 'lambda' seeds --lambda; a key the subcommand does not read is ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("neck-a = 0.5\nq = 0.3\nlambda = 2\ngrid = 16\n")
        code, out, _ = invoke(capsys, "horizons", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["params"]["lambda"] == 2.0

    def test_unknown_flag_exits_2(self):
        # acceptance bounds are fixed: no flag scales them
        for argv in (["horizons", "--bogus", "1"], ["verify", "--tol-scale", "2"]):
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 2

    def test_config_line_without_equals_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nneck-a 0.5\n")
        code, out, err = invoke(capsys, "horizons", "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"{cfg}:2: expected 'key = value'" in err

    def test_horizons_without_model_flags_needs_m(self, capsys):
        code, out, err = invoke(capsys, "horizons")
        assert code == 2 and out == ""
        assert "missing required option --m" in err

    def test_missing_required_exits_2(self, capsys):
        code, _, err = invoke(capsys, "profile")
        assert code == 2
        assert "neck-a" in err

    def test_domain_error_exits_2(self, capsys):
        code, _, err = invoke(capsys, "nariai", "--alpha", "0.5")
        assert code == 2
        assert "Nariai" in err


def test_verify_quick_json(capsys):
    # the shipped suite end to end: every criterion passes its fixed bounds
    code, out, _ = invoke(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 13
    assert all(item["passed"] for item in payload)


def test_verify_rejects_unknown_format(capsys, monkeypatch):
    monkeypatch.setattr("chmass.verification.run_all", lambda: pytest.fail("ran the suite"))
    code, out, err = invoke(capsys, "verify", "--format", "xml")
    assert code == 2 and out == ""
    assert "--format must be text or json" in err


def test_verify_has_no_suite_flag(capsys):
    code, out, err = parse_error(capsys, "verify", "--suite", "all")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --suite all" in err


def test_verify_json_prints_margins(capsys, monkeypatch):
    # each check carries margin = value / bound; crit 03's neck mass sits
    # at about two thirds of its bound
    from chmass import verification

    monkeypatch.setattr(verification, "CRITERIA", [c for c in verification.CRITERIA if c[0] == "03"])
    code, out, _ = invoke(capsys, "verify", "--format", "json")
    assert code == 0
    (crit,) = json.loads(out)
    for check in crit["checks"]:
        assert check["margin"] == check["value"] / check["bound"]
    assert crit["checks"][0]["name"] == "neck mass vs 0.3191667"
    assert crit["checks"][0]["margin"] == pytest.approx(0.67, abs=0.01)


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
    monkeypatch.setattr("chmass.verification.run_all", lambda: fake)
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
