"""Command-line surface: parsing, exit codes, determinism of the
machine-readable outputs, and the documented worked examples."""

import json

import pytest

from suq2 import acceptance
from suq2.actions import act_e
from suq2.algebra import gens
from suq2.cli import (_DEFAULTS, UsageError, _build_parser, parse_element,
                      run_command)
from suq2.functionals import haar
from suq2.scalars import Scalar

A, B, C, D = gens()


# ---------------------------------------------------------------------------
# Element syntax.

def test_parse_element_words_and_scalars():
    from fractions import Fraction

    from suq2.algebra import AlgebraElement

    assert parse_element("d a") == D * A
    assert parse_element("a^2 b") == A * A * B
    want = (A * A * B).scale(
        Scalar.from_fraction(Fraction(3, 2)) * Scalar.v_pow(-1))
    assert parse_element("3/2 v^-1 a^2 b") == want
    assert parse_element("v^2") == AlgebraElement.unit().scale(
        Scalar.v_pow(2))


def test_parse_element_rejects_garbage():
    with pytest.raises(UsageError):
        parse_element("a e")
    with pytest.raises(UsageError):
        parse_element("")
    with pytest.raises(UsageError):
        parse_element("a^")


# ---------------------------------------------------------------------------
# Worked examples and exit codes.

def test_normalize_worked_example(capsys):
    assert run_command(["normalize", "d a"]) == 0
    out = capsys.readouterr().out
    assert "1 + (v^-2)*b c" in out


def test_normalize_usage_error(capsys):
    assert run_command(["normalize", "x y"]) == 2
    assert "unrecognized token" in capsys.readouterr().err


@pytest.mark.parametrize("argv, token", [
    (["normalize", "1/0"], "'1/0'"),
    (["haar", "0/0 a"], "'0/0'"),
])
def test_zero_denominator_is_usage_error(argv, token, capsys):
    # Malformed input, not a numeric failure: exit 2, naming the token.
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and token in err


def test_missing_subcommand_is_usage_error(capsys):
    assert run_command([]) == 2


def test_act_matches_library(capsys):
    assert run_command(["act", "--which", "e", "c"]) == 0
    out = capsys.readouterr().out
    assert str(act_e(C)) in out
    assert run_command(["act", "--which", "h", "--side", "right", "a"]) == 2


def test_haar_value(capsys):
    assert run_command(["haar", "b c"]) == 0
    assert str(haar(B * C)) in capsys.readouterr().out


def test_cocycle_eval_arity(capsys):
    assert run_command(["cocycle-eval", "--cocycle", "phi",
                        "a", "b", "c", "d"]) == 0
    assert run_command(["cocycle-eval", "--cocycle", "phi", "a", "b"]) == 2
    assert run_command(["cocycle-eval", "--cocycle", "nope", "a"]) == 2
    assert run_command(["cocycle-eval", "--cocycle", "psi_213",
                        "a", "b", "c"]) == 0


def test_pair_dvol_reports_computed_value(capsys):
    assert run_command(["pair-dvol", "--cocycle", "phi"]) == 0
    out = capsys.readouterr().out
    assert "phi(dvol)" in out
    assert "1/2*v^-2" in out  # the computed pairing, printed as measured


# ---------------------------------------------------------------------------
# Golden bytes: a fixed configuration reproduces the --out file exactly.

COCYCLE_EVAL_BYTES = b"""{
  "command": "cocycle-eval",
  "inputs": [
    "a",
    "b",
    "c",
    "d"
  ],
  "value": "-1/2*v^2",
  "scalar": {
    "num": [
      [
        2,
        "-1/2"
      ]
    ],
    "den": [
      [
        0,
        "1"
      ]
    ]
  },
  "cocycle": "phi_res_over_R"
}
"""

PAIR_DVOL_BYTES = b"""{
  "command": "pair-dvol",
  "inputs": [
    "phi"
  ],
  "value": "1/2*v^-2",
  "scalar": {
    "num": [
      [
        -2,
        "1/2"
      ]
    ],
    "den": [
      [
        0,
        "1"
      ]
    ]
  },
  "cocycle": "phi"
}
"""


def test_cocycle_eval_golden_bytes(tmp_path):
    out = tmp_path / "value.json"
    assert run_command(["cocycle-eval", "--cocycle", "phi_res_over_R",
                        "a", "b", "c", "d", "--out", str(out)]) == 0
    assert out.read_bytes() == COCYCLE_EVAL_BYTES


def test_pair_dvol_golden_bytes(tmp_path):
    out = tmp_path / "pairing.json"
    assert run_command(["pair-dvol", "--out", str(out)]) == 0
    assert out.read_bytes() == PAIR_DVOL_BYTES


def test_hochschild_check_records_seed(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = run_command(["hochschild-check", "--tuples", "4",
                      "--seed", "11", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 11
    assert doc["tuples"] == 4
    assert doc["all_zero"] is True
    assert set(doc["nonzero_counts"]) == {
        "phi", "phi_132", "phi_213", "phi_231", "phi_312", "phi_321",
        "phi_res_over_R"}


def test_hochschild_check_rejects_zero_tuples(tmp_path, capsys):
    # 0 is an explicit count, not "use the default of 50".
    assert run_command(["hochschild-check", "--tuples", "0"]) == 2
    assert "tuple count must be positive" in capsys.readouterr().err
    cfgfile = tmp_path / "zero.cfg"
    cfgfile.write_text("tuples=0\n")
    assert run_command(["hochschild-check", "--config", str(cfgfile)]) == 2
    assert "tuple count must be positive" in capsys.readouterr().err


def test_spectrum_csv_shape(tmp_path):
    out = tmp_path / "spec.csv"
    assert run_command(["spectrum", "--q", "0.5", "--lmax", "2",
                        "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l2,eigenvalue,multiplicity"
    assert len(lines) == 1 + 2 + 4 + 6  # header + sector levels for 2l<=2


def test_upsilon_scan_csv_and_determinism(tmp_path):
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    argv = ["upsilon-scan", "--omega", "identity", "--q", "0.5",
            "--lmax", "40", "--z-from", "3.5", "--z-to", "4.0",
            "--z-steps", "3"]
    assert run_command(argv + ["--out", str(out1)]) == 0
    assert run_command(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "omega_tag,q,z,lmax,partial_sum,tail_bound"
    assert len(lines) == 4
    assert lines[1].startswith("identity,0.5,3.5,40,")


# Scans only: their terms use libm's pow, which is the same on every host.
# Lattice residues go through numpy's vectorized power, whose last bit
# depends on the CPU, so they get no golden bytes.
UPSILON_SCAN_CSV_BYTES = {
    "identity": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
identity,0.5,3.2,60,13.24422428055627,1.570976109686763
identity,0.5,3.6,60,8.357261639782251,0.29492476165142395
identity,0.5,4.0,60,5.661220978187634,0.06009904036784009
""",
    "deltaL2-e11": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
deltaL2-e11,0.5,3.2,60,11.163950273423296,20.939314309338776
deltaL2-e11,0.5,3.6,60,5.584583555909964,1.7667615093176867
deltaL2-e11,0.5,4.0,60,3.3044104760932105,0.2899657135855378
""",
    "cstarc": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
cstarc,0.5,3.2,60,4.26985940646591,0.18234115504902582
cstarc,0.5,3.6,60,2.9039254808712447,0.03595974055267433
cstarc,0.5,4.0,60,2.073276856337285,0.007546122213760629
""",
}


@pytest.mark.parametrize("omega", sorted(UPSILON_SCAN_CSV_BYTES))
def test_upsilon_scan_golden_bytes(omega, tmp_path):
    out = tmp_path / "scan.csv"
    assert run_command(["upsilon-scan", "--omega", omega, "--q", "0.5",
                        "--lmax", "60", "--z-from", "3.2", "--z-to", "4.0",
                        "--z-steps", "3", "--format", "csv",
                        "--out", str(out)]) == 0
    assert out.read_bytes() == UPSILON_SCAN_CSV_BYTES[omega]


def test_upsilon_scan_rejects_unknown_weight(capsys):
    assert run_command(["upsilon-scan", "--omega", "bogus"]) == 2
    assert "weight tag" in capsys.readouterr().err


def test_config_file_merging_flags_win(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("q=0.3\nlmax=30\nz-steps=2\nz-from=3.5\nz-to=4.0\n")
    out = tmp_path / "scan.csv"
    rc = run_command(["upsilon-scan", "--omega", "identity",
                      "--config", str(cfgfile), "--q", "0.5",
                      "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    # flag q=0.5 wins over the file's 0.3; lmax and the z grid come
    # from the file
    assert lines[1].startswith("identity,0.5,3.5,30,")
    assert len(lines) == 3


def test_config_file_bad_lines(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign\n")
    assert run_command(["spectrum", "--config", str(bad)]) == 2
    bad.write_text("unknown-key=1\n")
    assert run_command(["spectrum", "--config", str(bad)]) == 2


def test_config_file_format_is_honoured(tmp_path):
    cfgfile = tmp_path / "spec.cfg"
    cfgfile.write_text("format=json\nlmax=1\n")
    out = tmp_path / "spec.json"
    assert run_command(["spectrum", "--config", str(cfgfile),
                        "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "spectrum"
    assert doc["lmax"] == 1


@pytest.mark.parametrize("command, line", [
    (["act", "c"], "format=csv"),         # a flag of other commands only
    (["spectrum"], "omega=identity"),
    (["hochschild-check"], "tup=2"),      # a prefix, not the flag's name
    (["spectrum"], "config=other.cfg"),
])
def test_config_key_foreign_to_command(command, line, tmp_path, capsys):
    # Keys are the command's own flags; anything else was once dropped
    # silently, which is how format=csv on act wrote JSON.
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    out = tmp_path / "out.txt"
    argv = command[:1] + ["--config", str(cfgfile), "--out", str(out)]
    assert run_command(argv + command[1:]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_config_value_checked_by_the_flag_parser(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("eps=0.4, x\n")
    assert run_command(["residue", "--config", str(cfgfile)]) == 2
    assert "argument --eps: bad epsilon schedule" in capsys.readouterr().err
    cfgfile.write_text("lmax=six\n")
    assert run_command(["spectrum", "--config", str(cfgfile)]) == 2
    assert "argument --lmax: invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["act", "--which", "e", "c"],
    ["verify-all", "--only", "gamma-vanishes"],
])
def test_format_exists_only_where_honoured(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_command(argv + ["--format", "csv", "--out", str(out)]) == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert not out.exists()


def test_defaults_name_the_commands_own_options():
    # set_defaults accepts any key, so a misspelt one would be dropped.
    _, subs = _build_parser()
    for command, defaults in _DEFAULTS.items():
        dests = {a.dest for a in subs[command]._actions if a.option_strings}
        assert set(defaults) <= dests, command


def test_spectrum_rejects_negative_cutoff(capsys):
    assert run_command(["spectrum", "--lmax", "-1"]) == 2
    assert "cutoff must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["residue", "--omega", "identity", "--lmax", "401"],
    ["residue", "--omega", "gamma", "--lmax", "40"],
    ["residue", "--omega", "deltaL2-e11", "--lmax", "40"],
    ["residue", "--omega", "cstarc", "--lmax", "40"],
])
def test_residue_lmax_is_never_clipped_or_ignored(argv, capsys):
    # Only the identity weight is a cutoff scan, with a ceiling of 400.
    assert run_command(argv) == 2
    assert "lmax" in capsys.readouterr().err


def test_residue_json_shape(tmp_path):
    out = tmp_path / "res.json"
    assert run_command(["residue", "--omega", "gamma", "--q", "0.5",
                        "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["omega", "q", "estimate", "error_bar", "method"]
    assert doc["estimate"] == 0.0
    assert doc["method"] == "identically-zero"


def test_residue_custom_schedule_and_nonconvergence(capsys):
    rc = run_command(["residue", "--omega", "deltaL2-e11", "--q", "0.5",
                      "--eps", "0.4,0.2,0.1"])
    assert rc == 0
    rc = run_command(["residue", "--omega", "deltaL2-e11", "--q", "0.5",
                      "--max-error-bar", "1e-9"])
    assert rc == 3
    assert "non-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["upsilon-scan", "--omega", "identity", "--q", "0.5", "--lmax", "1100"],
    ["residue", "--omega", "identity", "--q", "0.1"],
])
def test_numeric_overflow_exits_3(argv, capsys):
    # Exit code 1 is reserved for a failed verification; an overflow in
    # the float layer is a numeric failure with a one-line message.
    assert run_command(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["upsilon-scan", "--omega", "identity", "--z-from", "nan",
     "--z-steps", "1", "--lmax", "10", "--format", "json"],
    ["upsilon-scan", "--omega", "identity", "--z-from", "4", "--z-to", "nan",
     "--z-steps", "3", "--lmax", "10", "--format", "json"],
    ["upsilon-scan", "--omega", "cstarc", "--z-from", "inf",
     "--z-steps", "1", "--lmax", "10"],
    ["residue", "--omega", "cstarc", "--eps", "nan,0.2,0.1"],
    ["residue", "--omega", "cstarc", "--eps", "inf,0.2,0.1"],
    ["residue", "--omega", "gamma", "--eps", "nan,0.2,0.1"],
    ["residue", "--omega", "gamma", "--max-error-bar", "nan"],
    ["residue", "--omega", "deltaL2-e11", "--max-error-bar", "-1"],
])
def test_non_finite_spectral_input_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_command(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_residue_invalid_q_is_usage_error(capsys):
    assert run_command(["residue", "--omega", "gamma", "--q", "1.5"]) == 2


def test_verify_all_subset(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = run_command(["verify-all", "--only",
                      "action-oracle,gamma-vanishes", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PASS  action-oracle" in stdout
    assert "2/2 checks passed" in stdout
    doc = json.loads(out.read_text())
    assert doc == [{"check_id": "action-oracle", "passed": True},
                   {"check_id": "gamma-vanishes", "passed": True}]


def test_verify_all_reports_failure_exit(monkeypatch, capsys):
    # The exit code must not depend on which real checks happen to be red,
    # so the registry entry is swapped for one that fails by construction.
    def always_fails():
        return acceptance.CheckResult("volume-pairings", False,
                                      "fails by construction", 0.0)

    monkeypatch.setattr(acceptance, "ALL_CHECKS", tuple(
        (name, always_fails if name == "volume-pairings" else fn)
        for name, fn in acceptance.ALL_CHECKS))
    rc = run_command(["verify-all", "--only", "volume-pairings"])
    assert rc == 1
    assert "FAIL  volume-pairings" in capsys.readouterr().out


def test_verify_all_unknown_id(capsys):
    assert run_command(["verify-all", "--only", "not-a-check"]) == 2
