import json

import pytest

from magmech.cli import main
from magmech.config import ConfigError, load_config
from magmech.dynamics import diffusion_matrices, format_matrix
from magmech.steady_state import solve_steady_states

from .oracles import drift_matrix_general, stack_of

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
    state = solve_steady_states(stack_of([params]), cfg["epsilon_d"])
    A = drift_matrix_general(params, state.delta_eff[0], params.G_mb)
    D = diffusion_matrices(stack_of([params]))[0][0]
    assert (dump / "A.txt").read_text() == format_matrix(A)
    assert (dump / "D.txt").read_text() == format_matrix(D)


def test_cli_sweep_writes_csv(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config_file, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("J,stable,")


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
])
def test_cli_rejects_flags_the_verb_does_not_read(config_file, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", config_file] + argv[1:])
    assert exc.value.code == 2


def test_cli_validate(config_file, capsys):
    assert main(["validate", "--config", config_file]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


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
