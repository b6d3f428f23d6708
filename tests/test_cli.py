import contextlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmech import cli, reference_baseline, sweep
from magmech.cli import main
from magmech.config import ConfigError, load_config
from magmech.dynamics import diffusion_matrices, format_matrix
from magmech.params import NUMERIC_FIELDS
from magmech.steady_state import solve_steady_states

from .oracles import (TC_CURVES, drift_matrix_general, prescribe_tc_curve,
                      stack_of)

GOOD_CONFIG = """\
[system]
units = Hz2pi
omega_b = 10e6
omega_1 = 10e9
omega_2 = 10e9
omega_m = 10e9
kappa_1 = 1e6
kappa_2 = 1 kappa1
kappa_m = 0.56e6
gamma_b = 100
g_ma = 3.2e6
J = 2 kappa1
Delta_1 = -0.91 omega_b
Delta_2 = -0.91 omega_b
Delta_m = 0.89 omega_b
eta = -0.5
G_mb = 3.2e6
temperature_T = 0.015
coupling_mode = direct_g
diffusion_convention = as_printed

[sweep]
axis1 = J, 1.5 kappa1, 2.5 kappa1, 3
quantities = E_a2m, E_a1m

[output]
format = csv
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_load_config_units(config_file, baseline):
    cfg = load_config(config_file)
    params = cfg["params"]
    assert params.kappa_1 == pytest.approx(baseline.kappa_1)
    assert params.Delta_1 == pytest.approx(-0.91 * baseline.omega_b)
    assert params.gain_g == pytest.approx(1.5 * baseline.kappa_1)
    assert cfg["spec"] is not None
    assert cfg["spec"].axes[0].count == 3


def test_load_config_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[system]\nkappa_1 = 1e6 Hz2pi\nomega_b = 10e6 Hz2pi\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_unknown_unit(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("2 kappa1", "2 parsec"))
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_load_config_rejects_a_bare_axis_key(tmp_path):
    # a sweep's axes are axis1 and axis2; a key named axis is not one
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace("axis1 =", "axis ="))
    with pytest.raises(ConfigError, match=re.escape(
            "[sweep] needs axis1 (and optionally axis2)")):
        load_config(str(path))


def test_cli_point(config_file, tmp_path, capsys):
    out = tmp_path / "point.json"
    assert main(["point", "--config", config_file, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["stable"] is True
    assert record["measures"]["E_a2m"] > 0.2
    err = capsys.readouterr().err
    assert "negative diffusion" in err


def test_cli_point_dump_matrices(config_file, tmp_path):
    dump = tmp_path / "mats"
    assert main(["point", "--config", config_file, "--out",
                 str(tmp_path / "p.json"), "--dump-matrices",
                 str(dump)]) == 0
    a_text = (dump / "A.txt").read_text()
    assert len(a_text.strip().splitlines()) == 8


def test_cli_point_dumps_the_matrices_of_the_pipeline(config_file,
                                                      tmp_path):
    # the dumps are the matrices built outside the kernel, byte for byte
    dump = tmp_path / "mats"
    assert main(["point", "--config", config_file, "--out",
                 str(tmp_path / "p.json"), "--dump-matrices",
                 str(dump)]) == 0
    cfg = load_config(config_file)
    params = cfg["params"]
    state = solve_steady_states(stack_of([params]))
    A = drift_matrix_general(params, state.delta_eff[0], params.G_mb)
    D = diffusion_matrices(stack_of([params]))[0]
    assert (dump / "A.txt").read_text() == format_matrix(A)
    assert (dump / "D.txt").read_text() == format_matrix(D)


def test_cli_sweep_writes_csv(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_file, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("J,stable,")


# runs two sweeps in one fresh process and prints the minor page faults
# that the second one took
_FAULT_PROBE = """\
import resource, sys
from magmech.cli import main
argv = ["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]
main(argv)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_cli_sweep_reuses_freed_memory_instead_of_faulting_it_in(tmp_path):
    # a fresh interpreter: large allocations of earlier tests would raise
    # glibc's dynamic thresholds and hide the faults of the default policy
    config = tmp_path / "row.cfg"
    config.write_text(GOOD_CONFIG.replace(
        "axis1 = J, 1.5 kappa1, 2.5 kappa1, 3\nquantities = E_a2m, E_a1m",
        "axis1 = eta, -1, 1, 201\nquantities = E_a2m").replace(
        "Delta_m = 0.89 omega_b", "Delta_m = 0.9 omega_b"))
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, str(config),
         str(tmp_path / "row.csv")], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # 225-390 with glibc's default policy, 4-8 with the CLI's
    assert int(proc.stdout) < 40
    assert len((tmp_path / "row.csv").read_text().splitlines()) == 202


def _microscopic_config() -> str:
    """The benchmark's microscopic sweep: 401 points over Delta_m."""
    base = reference_baseline().with_(coupling_mode="microscopic", G_mb=0.0,
                                      g_mb=2.0 * math.pi * 0.2)
    return "\n".join(
        ["[system]", "units = rad_s"]
        + [f"{name} = {getattr(base, name)!r}" for name in NUMERIC_FIELDS]
        + ["coupling_mode = microscopic", "diffusion_convention = as_printed",
           "epsilon_d = 1e15", "[sweep]",
           "axis1 = Delta_m, 0 omega_b, 2 omega_b, 401",
           "quantities = all, amplitudes", ""])


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to hold a child to one")
def test_cli_output_does_not_depend_on_the_usable_cpus(tmp_path):
    # fresh interpreters: a serial sweep runs its parts on a thread per
    # usable CPU, and a child held to one CPU runs them all in its main
    # thread; the affinity is set in the child only
    config = tmp_path / "micro.cfg"
    config.write_text(_microscopic_config())
    src = os.path.dirname(os.path.dirname(sweep.__file__))
    one_cpu = min(os.sched_getaffinity(0))
    texts = {}
    for cpus, preexec in (("all", None), ("one", lambda: os.sched_setaffinity(
            0, {one_cpu}))):
        for verb in (["preset", "fig2d"], ["sweep", "--config", str(config)]):
            out = tmp_path / f"{verb[0]}_{cpus}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "magmech.cli", *verb, "--out",
                 str(out)], capture_output=True, text=True, timeout=120,
                env=dict(os.environ, PYTHONPATH=src), preexec_fn=preexec)
            assert proc.returncode == 0, proc.stderr
            texts[verb[0], cpus] = out.read_bytes(), proc.stderr
    for verb in ("preset", "sweep"):
        assert texts[verb, "one"] == texts[verb, "all"]
    assert len(texts["sweep", "all"][0].splitlines()) == 402


def test_cli_sweep_diffusion_override(config_file, tmp_path):
    out_a = tmp_path / "as_printed.csv"
    out_b = tmp_path / "physical.csv"
    main(["sweep", "--config", config_file, "--out", str(out_a)])
    main(["sweep", "--config", config_file, "--out", str(out_b),
          "--diffusion", "physical"])
    assert out_a.read_text() != out_b.read_text()


def test_cli_tc(config_file, capsys):
    assert main(["tc", "--config", config_file, "--pair", "a2,m"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.1 < value < 0.4


def test_cli_tc_takes_a_pair_in_either_order(config_file, capsys):
    assert main(["tc", "--config", config_file, "--pair", "a2,m"]) == 0
    forward = capsys.readouterr().out
    assert main(["tc", "--config", config_file, "--pair", "m,a2"]) == 0
    assert capsys.readouterr().out == forward
    for pair in ("a2,x", "m,m", "a2"):
        assert main(["tc", "--config", config_file, "--pair", pair]) == 2
        assert "a1,a2 a1,m a2,m a1,b a2,b m,b" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "--jobs", "2"],
    ["validate", "--out", "v.txt"],
    ["point", "--jobs", "2"],
    ["tc", "--jobs", "2"],
    ["sweep", "--jobs", "0"],
    ["preset", "fig2d", "--jobs", "-1"],
])
def test_cli_rejects_flags_the_verb_does_not_read(config_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", config_file] + argv[1:])
    assert exc.value.code == 2


VALIDATE_PASSES = ("PASS steady state converged\n"
                   "PASS steady-state residual < 1e-9\n")


def test_cli_validate(config_file, capsys):
    assert main(["validate", "--config", config_file]) == 0
    assert capsys.readouterr().out == (VALIDATE_PASSES +
                                       "PASS steering implies entanglement\n"
                                       "0 failure(s)\n")


def test_cli_validate_fails_steering_without_entanglement(config_file,
                                                          monkeypatch,
                                                          capsys):
    # the kernel enforces no such rule, so a record breaks it by hand: a2
    # steers m while the pair has no entanglement
    def evaluated(params):
        rec = sweep.evaluate_point(params)
        assert rec.stable
        return replace(rec, measures={**rec.measures, "st_a2_to_m": 0.05,
                                      "E_a2m": 0.0})

    monkeypatch.setattr(cli, "evaluate_point", evaluated)
    assert main(["validate", "--config", config_file]) == 1
    assert capsys.readouterr().out == (
        VALIDATE_PASSES + "FAIL steering implies entanglement "
        "[('a2', 'm')]\n1 failure(s)\n")


@pytest.mark.parametrize("changes, line", [
    # fig2b at Delta_m = 0.1 omega_b, eta = 0: the solve misses the
    # residual gate
    ({"eta = -0.5": "eta = 0",
      "Delta_m = 0.89 omega_b": "Delta_m = 0.1 omega_b"},
     "FAIL Lyapunov residual < 1e-10 (residual 1.554e-10)"),
    # the printed drift matrix under absolute_value noise: the solution is
    # no quantum covariance
    ({"-0.91 omega_b": "1 omega_b", "0.89 omega_b": "-0.1 omega_b",
      "as_printed": "absolute_value\ndrift_mode = printed"},
     "FAIL covariance physicality >= -1e-9 (min eigenvalue -1.826e-01)")],
    ids=["residual", "physicality"])
def test_cli_validate_fails_the_check_that_nulled_the_point(tmp_path, capsys,
                                                           changes, line):
    text = GOOD_CONFIG.split("[sweep]")[0]
    for old, new in changes.items():
        text = text.replace(old, new)
    path = tmp_path / "nulled.cfg"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [x for x in out if x.startswith(("FAIL", "SKIP"))] == [line]
    assert out[-1] == "1 failure(s)"


@pytest.mark.parametrize("name", sorted(TC_CURVES))
def test_cli_tc_prints_each_warning(config_file, monkeypatch, capsys, name):
    tc, warnings = prescribe_tc_curve(monkeypatch, name)
    assert main(["tc", "--config", config_file]) == 0
    out, err = capsys.readouterr()
    assert float(out) == pytest.approx(tc, abs=1e-3)
    assert err.splitlines() == [f"warning: {w}" for w in warnings]


def test_cli_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("[system]\nkappa_1 = oops\nomega_b = 1\n")
    assert main(["point", "--config", str(path)]) == 2


def test_cli_missing_file_exit_code():
    assert main(["point", "--config", "/nonexistent/nowhere.cfg"]) == 2


@pytest.mark.parametrize("old, new, message", [
    ("temperature_T = 0.015", "temperature_T = warm",
     "bad number 'warm' for 'temperature_T'"),
    ("eta = -0.5", "eta = -0.5x", "bad number '-0.5x' for 'eta'"),
    ("quantities =", "links = Delta_2:Delta_1:abc\nquantities =",
     "bad number 'abc' for 'links'"),
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1", "axis1 = eta, -1, abc",
     "bad number 'abc' for 'eta'"),
    ("omega_1 = 10e9", "omega_1 = 0",
     "omega_1, omega_2 and omega_m must be positive"),
])
def test_cli_bad_config_value_names_the_key(tmp_path, capsys, old, new,
                                            message):
    path = tmp_path / "bad.cfg"
    path.write_text(GOOD_CONFIG.replace(old, new))
    assert main(["point", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("old, new, message", [
    ("J = 2 kappa1", "J = 2 kappa1 wide",
     "cannot parse rate '2 kappa1 wide' for 'J'"),
    ("kappa_1 = 1e6", "kappa_1 = 1 kappa1",
     "'kappa_1' uses kappa1 units but kappa_1 is not defined in absolute "
     "units"),
    ("omega_b = 10e6", "omega_b = 1 omega_b",
     "'omega_b' uses omega_b units but omega_b is not defined in absolute "
     "units"),
    ("units = Hz2pi", "units = GHz",
     "units must be rad_s or Hz2pi, got 'GHz'"),
    ("omega_b = 10e6\n", "", "[system] is missing required key 'omega_b'"),
    ("J = 2 kappa1", "J = 2 kappa1\nspin = 1", "unknown [system] key 'spin'"),
    ("eta = -0.5", "eta = -0.5\ngain_g = 1 kappa1",
     "give either eta or gain_g, not both"),
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3", "axis1 = J, 1.5 kappa1, 3",
     "axis must be 'name, start, stop, count': 'J, 1.5 kappa1, 3'"),
    ("quantities =", "links = Delta_2:Delta_1:1:2\nquantities =",
     "link must be target:source[:factor]: 'Delta_2:Delta_1:1:2'"),
    ("[system]", "[params]", "config file needs a [system] section"),
    ("format = csv", "format = xml", "unknown output format 'xml'"),
    ("drift_mode = derived", "drift_mode = sideways",
     "unknown drift mode 'sideways'"),
    # a '%' is taken as written, not as an interpolation
    ("J = 2 kappa1", "J = 2%", "bad number '2%' for 'J'"),
    # files that the INI reader itself rejects, and one that is no UTF-8
    ("[system]\n", "", "File contains no section headers. file: '{path}', "
     "line: 1 'units = Hz2pi\\n'"),
    ("[sweep]", "[system]", "While reading from '{path}' [line 23]: "
     "section 'system' already exists"),
    ("J = 2 kappa1", "J = 2 kappa1\nJ = 3 kappa1", "While reading from "
     "'{path}' [line 13]: option 'J' in section 'system' already exists"),
    ("J = 2 kappa1", "J = 2 kappa1\nspin", "Source contains parsing errors: "
     "'{path}' [line 13]: 'spin\\n'"),
    ("J = 2 kappa1", "J = 2 \udcff kappa1", "cannot read config file "
     "'{path}': 'utf-8' codec can't decode byte 0xff in position 166: "
     "invalid start byte"),
])
def test_cli_config_error_names_its_cause(tmp_path, capsys, old, new,
                                          message):
    # one malformed config per raise of the config reader
    text = GOOD_CONFIG.replace("diffusion_convention = as_printed\n",
                               "diffusion_convention = as_printed\n"
                               "drift_mode = derived\n")
    assert text.count(old) == 1
    path = tmp_path / "bad.cfg"
    # a lone surrogate of the text is written as the byte it escapes
    path.write_bytes(text.replace(old, new).encode(errors="surrogateescape"))
    assert main(["point", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {message.format(path=path)}\n")


@pytest.mark.parametrize("old, new, message", [
    # a misspelt key would leave its setting at the default silently
    ("quantities = E_a2m, E_a1m", "quantites = E_a2m",
     "unknown [sweep] key 'quantites'"),
    ("quantities =", "drfit = printed\nquantities =",
     "unknown [sweep] key 'drfit'"),
    # the drift mode is a [system] key, drift_mode
    ("quantities =", "drift = printed\nquantities =",
     "unknown [sweep] key 'drift'"),
    ("format = csv", "fromat = jsonl", "unknown [output] key 'fromat'"),
    # the link would overwrite the axis value on every row
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
     "axis1 = J, 1 kappa1, 3 kappa1, 3\nlinks = J:g_ma",
     "link J:g_ma sets J, which axis J already sets"),
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
     "axis1 = eta, -1, 1, 3\naxis2 = gain_g, 0 kappa1, 1 kappa1, 3",
     "axis gain_g sets gain_g, which axis eta already sets"),
    # the link would read the base Delta_2, and the eta labels would not
    # be the rows' (kappa_2 - gain_g) / kappa_1
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
     "axis1 = J, 1 kappa1, 2 kappa1, 2\nlinks = Delta_1:Delta_2, Delta_2:J",
     "link Delta_1:Delta_2 reads Delta_2, which link Delta_2:J sets later"),
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
     "axis1 = kappa_2, 1 kappa1, 2 kappa1, 2\naxis2 = eta, -1, 1, 3",
     "axis eta reads kappa_2, which axis kappa_2 sets in the same step"),
    ("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
     "axis1 = eta, -1, 1, 3\nlinks = kappa_2:kappa_1:2",
     "axis eta reads kappa_2, which link kappa_2:kappa_1 sets later"),
])
def test_cli_sweep_rejects_a_setting_it_would_ignore(tmp_path, capsys, old,
                                                      new, message):
    path, out = tmp_path / "bad.cfg", tmp_path / "bad.csv"
    path.write_text(GOOD_CONFIG.replace(old, new))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()


def test_cli_sweep_summarizes_warnings_with_counts(config_file, tmp_path,
                                                   capsys):
    # microscopic coupling over Delta_m: a band of points whose steady
    # state does not converge, each warning with its own residual
    text = GOOD_CONFIG.replace("coupling_mode = direct_g",
                               "coupling_mode = microscopic\ng_mb = 0.2\n"
                               "epsilon_d = 1e15 rad_s")
    text = text.replace("axis1 = J, 1.5 kappa1, 2.5 kappa1, 3",
                        "axis1 = Delta_m, 0 omega_b, 2 omega_b, 41")
    path = tmp_path / "micro.cfg"
    path.write_text(text)
    out = tmp_path / "micro.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    unconverged = sum("did not converge" in row
                      for row in out.read_text().splitlines()[1:])
    assert unconverged > 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if "did not converge" in line]
    assert lines == [f"warning: steady state did not converge "
                     f"({unconverged} points)"]


@pytest.fixture
def singular_config(tmp_path):
    # J^2 + f1*f2 = 0 with f1 = kappa_1 and f2 = kappa_2 - gain_g =
    # -4 kappa_1: the mean-field closed form divides by zero
    text = (GOOD_CONFIG.replace("-0.91 omega_b", "0")
            .replace("eta = -0.5", "eta = -4")
            .replace("coupling_mode", "epsilon_d = 1e14 rad_s\ncoupling_mode"))
    path = tmp_path / "singular.cfg"
    path.write_text(text)
    return str(path)


def test_cli_validate_singular_mean_field(singular_config, capsys):
    assert main(["validate", "--config", singular_config]) == 1
    out = capsys.readouterr().out
    assert ("FAIL steady state converged (singular: complex division by "
            "zero)") in out.splitlines()


def test_cli_point_dump_matrices_singular_mean_field(singular_config,
                                                     tmp_path, capsys):
    # as without the flag: the record with its warning, and no dumps
    out = tmp_path / "p.json"
    assert main(["point", "--config", singular_config, "--out", str(out),
                 "--dump-matrices", str(tmp_path / "mats")]) == 0
    record = json.loads(out.read_text())
    assert record["stable"] is False
    assert record["warnings"] == ["steady state singular: complex division "
                                  "by zero"]
    assert not (tmp_path / "mats").exists()
    err = capsys.readouterr().err
    assert "warning: steady state singular (1 point)" in err.splitlines()


@pytest.mark.parametrize("value, shown", [("nan", "nan"), ("inf", "inf"),
                                          ("-1", "-1.0")])
def test_cli_rejects_a_bad_drive_before_evaluating(tmp_path, capsys,
                                                   monkeypatch, value, shown):
    def evaluated(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweep, "_evaluate_chunk", evaluated)
    monkeypatch.setattr(sweep, "_gate", evaluated)
    message = f"epsilon_d must be finite and non-negative, got {shown}"
    text = GOOD_CONFIG.replace("coupling_mode",
                               f"epsilon_d = {value} rad_s\ncoupling_mode")
    path, out = tmp_path / "drive.cfg", tmp_path / "drive.csv"
    path.write_text(text)
    # the config's point is built, and rejected, when the config is read
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()
    # so every verb rejects it, without a [sweep] section too
    path.write_text(text.split("[sweep]")[0])
    for verb in ("point", "tc", "validate"):
        assert main([verb, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_cli_drift_flag_reaches_point_tc_and_validate(config_file, tmp_path,
                                                     capsys):
    # the config's point is reference_baseline(), which the printed drift
    # matrix makes unstable
    assert sweep.evaluate_point(reference_baseline()).stable
    printed = reference_baseline(drift_mode="printed")
    assert not sweep.evaluate_point(printed).stable
    out = tmp_path / "p.json"
    for drift, stable in (("derived", True), ("printed", False)):
        assert main(["point", "--config", config_file, "--drift", drift,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["stable"] is stable
    capsys.readouterr()
    assert main(["tc", "--config", config_file, "--drift", "printed"]) == 1
    # the printed drift makes the point unstable, and the search says so
    assert capsys.readouterr().err == (
        "error: E_a2m undefined: unstable (margin 4.668e+07 rad/s); "
        "critical temperature undefined\n")
    assert main(["validate", "--config", config_file, "--drift",
                 "printed"]) == 0
    assert ("SKIP Lyapunov checks (configured point is not stable)"
            in capsys.readouterr().out.splitlines())


def _printed_config(tmp_path):
    path = tmp_path / "printed.cfg"
    path.write_text(GOOD_CONFIG.replace(
        "diffusion_convention = as_printed\n",
        "diffusion_convention = as_printed\ndrift_mode = printed\n"))
    return str(path)


def _output(verb, config, tmp_path, *flags):
    out = tmp_path / "out.txt"
    assert main([verb, "--config", config, "--out", str(out), *flags]) == 0
    return out.read_text()


def test_cli_sweep_drift_key_and_its_override(config_file, tmp_path):
    # [system] drift_mode sets the sweep's drift mode, and --drift
    # overrides it
    printed_config = _printed_config(tmp_path)
    assert load_config(printed_config)["spec"].base.drift_mode == "printed"
    printed = _output("sweep", printed_config, tmp_path)
    assert [row.split(",")[1] for row in printed.splitlines()[1:]] == [
        "false"] * 3
    assert _output("sweep", config_file, tmp_path, "--drift",
                   "printed") == printed
    assert (_output("sweep", printed_config, tmp_path, "--drift", "derived")
            == _output("sweep", config_file, tmp_path))


def test_cli_point_and_tc_read_the_system_drift_key(config_file, tmp_path,
                                                   capsys):
    # the drift mode is a field of the point, so every verb reads it
    printed_config = _printed_config(tmp_path)
    assert load_config(printed_config)["params"].drift_mode == "printed"
    point = _output("point", printed_config, tmp_path)
    assert json.loads(point)["stable"] is False
    assert point == _output("point", config_file, tmp_path, "--drift",
                            "printed")
    assert _output("point", printed_config, tmp_path, "--drift",
                   "derived") == _output("point", config_file, tmp_path)
    capsys.readouterr()
    assert main(["tc", "--config", printed_config]) == 1
    # the printed drift makes the point unstable, and the search says so
    assert capsys.readouterr().err == (
        "error: E_a2m undefined: unstable (margin 4.668e+07 rad/s); "
        "critical temperature undefined\n")
    assert _output("tc", printed_config, tmp_path, "--drift",
                   "derived") == _output("tc", config_file, tmp_path)


@pytest.mark.parametrize("axis, shown", [
    ("J, 0, inf, 3", "0.0 to inf"),
    ("J, -1e308 rad_s, 1e308 rad_s, 3", "-1e+308 to 1e+308")],
    ids=["infinite", "overflowing"])
def test_cli_rejects_a_non_finite_axis(tmp_path, capsys, axis, shown):
    path, out = tmp_path / "axis.cfg", tmp_path / "axis.csv"
    path.write_text(GOOD_CONFIG.replace(
        "axis1 = J, 1.5 kappa1, 2.5 kappa1, 3", f"axis1 = {axis}"))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"config error: axis J from {shown} "
                                       "is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize("factor", ["inf", "nan"])
def test_cli_rejects_a_non_finite_link_factor(tmp_path, capsys, factor):
    path, out = tmp_path / "link.cfg", tmp_path / "link.csv"
    path.write_text(GOOD_CONFIG.replace(
        "quantities = E_a2m, E_a1m",
        f"quantities = E_a2m, E_a1m\nlinks = Delta_2:Delta_1:{factor}"))
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: link Delta_2:Delta_1 factor {factor} is not finite\n")
    assert not out.exists()


def _unevaluated(monkeypatch):
    """Make any evaluation of a point fail the test."""
    def evaluated(*args, **kwargs):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(sweep, "_gate", evaluated)


@pytest.mark.parametrize("verb", ["sweep", "point", "tc", "preset"])
def test_cli_out_in_a_missing_directory_fails_before_evaluating(
        config_file, tmp_path, capsys, monkeypatch, verb):
    _unevaluated(monkeypatch)
    out = tmp_path / "missing" / "out.csv"
    argv = ["preset", "fig2d"] if verb == "preset" else [
        verb, "--config", config_file]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {str(out)!r}: "
                                       "not a file in a writable directory\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("verb", ["sweep", "point", "tc", "preset"])
def test_cli_out_that_is_a_directory_fails_before_evaluating(
        config_file, tmp_path, capsys, monkeypatch, verb):
    _unevaluated(monkeypatch)
    argv = ["preset", "fig2d"] if verb == "preset" else [
        verb, "--config", config_file]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: cannot write "
                                       f"{str(tmp_path)!r}: not a file in a "
                                       "writable directory\n")


def test_cli_an_error_while_writing_is_an_error_line(config_file, tmp_path,
                                                     capsys, monkeypatch):
    # past the check, the OSError of the write itself exits 1 the same
    monkeypatch.setattr(cli, "_writable", lambda path: path)
    assert main(["point", "--config", config_file, "--out",
                 str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno ")
    assert err.endswith(f": {str(tmp_path)!r}\n")


@pytest.mark.parametrize("mode, lines", [
    # the steady state converges, but its residual overflows
    ("direct_g", ["PASS steady state converged",
                  "FAIL steady-state residual < 1e-9 (residual not finite)"]),
    # the mean field is not finite, and the steady state fails
    ("microscopic\ng_mb = 0.2",
     ["FAIL steady state converged (singular: mean field not finite)"])],
    ids=["direct_g", "microscopic"])
def test_cli_validate_with_a_null_residual(tmp_path, capsys, mode, lines):
    path = tmp_path / "overflow.cfg"
    path.write_text(GOOD_CONFIG.split("[sweep]")[0].replace(
        "coupling_mode = direct_g",
        f"epsilon_d = 1e300 rad_s\ncoupling_mode = {mode}"))
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if "steady" in line] == lines


@settings(max_examples=30, deadline=None, derandomize=True)
@given(eta=st.floats(-1.0, -0.05), J=st.floats(1.0, 3.0),
       Delta_m=st.floats(0.6, 1.2))
def test_validate_never_judges_physicality_on_negative_noise(eta, J,
                                                             Delta_m):
    # net cavity-2 gain (eta < 0) under as_printed makes the cavity-2
    # noise negative, where the kernel judges no physicality: a stable
    # point reaches the steering check, an unstable one skips it, and
    # neither passes or fails a physicality check
    text = (GOOD_CONFIG.replace("eta = -0.5", f"eta = {eta!r}")
            .replace("J = 2 kappa1", f"J = {J!r} kappa1")
            .replace("Delta_m = 0.89 omega_b",
                     f"Delta_m = {Delta_m!r} omega_b"))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "net_gain.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            main(["validate", "--config", path])
    lines = out.getvalue().splitlines()
    skipped = [line for line in lines if line.startswith("SKIP ")]
    steering = [line for line in lines if "steering" in line]
    assert (skipped, len(steering)) in (
        ([], 1), (["SKIP Lyapunov checks (configured point is not stable)"],
                  0))
    assert not [line for line in lines
                if line.startswith(("PASS", "FAIL")) and "physicality" in line]
