"""Command-line surface: parsing, exit codes, determinism of the
machine-readable outputs, and the documented worked examples."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from suq2 import acceptance, spectral
from suq2.actions import act_e, act_k, act_weight
from suq2.algebra import gens
from suq2.cli import UsageError, _build_parser, parse_element, run_command
from suq2.functionals import haar
from suq2.scalars import Scalar
from suq2.spectral import OMEGA_TAGS

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


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    assert run_command(["normalize", "d a", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def test_verify_all_out_to_a_directory_is_usage_error(tmp_path, capsys):
    # The battery passes; only the write fails, and that is not exit 1.
    argv = ["verify-all", "--only", "gamma-vanishes", "--out", str(tmp_path)]
    assert run_command(argv) == 2
    captured = capsys.readouterr()
    assert "1/1 checks passed" in captured.out
    assert captured.err.startswith(f"error: cannot write {tmp_path}: ")


def test_missing_subcommand_is_usage_error(capsys):
    assert run_command([]) == 2


def test_act_matches_library(capsys):
    assert run_command(["act", "--which", "e", "c"]) == 0
    out = capsys.readouterr().out
    assert str(act_e(C)) in out
    assert run_command(["act", "--which", "h", "--side", "right", "a"]) == 2


@pytest.mark.parametrize("argv, result", [
    (["act", "--which", "e", "a^1200"], "a^1199 b"),
    (["act", "--which", "f", "--side", "right", "b^1500"], "b^1499 d"),
    (["cocycle-eval", "--cocycle", "phi", "1", "1", "b^600 c^601", "b"],
     "=  0"),
])
def test_high_degree_monomials(argv, result, capsys):
    # The ladders sum over a monomial's letters and the pairing is a
    # closed form, so no stack depth grows with the degree.
    assert run_command(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith(result)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("which, h", [("k", 1), ("kinv", -1)])
def test_act_weights_match_library(which, h, side, capsys):
    x = parse_element("a^2 b c")
    want = act_k(x, h) if side == "left" else act_weight(x, "right", h)
    assert run_command(["act", "--which", which, "--side", side,
                        "a^2 b c"]) == 0
    assert capsys.readouterr().out.rstrip().endswith(f"=  {want}")


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


@pytest.mark.parametrize("argv", [
    ["cocycle-eval", "--cocycle", "nope", "a"],
    ["pair-dvol", "--cocycle", "psi_132"],  # not closed: no volume pairing
])
def test_cocycle_name_outside_choices_is_usage_error(argv, capsys):
    assert run_command(argv) == 2
    assert "argument --cocycle: invalid choice" in capsys.readouterr().err


def test_cocycle_eval_needs_a_cocycle(capsys):
    assert run_command(["cocycle-eval", "a", "b", "c", "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown cocycle None; choose from phi, ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("q, lmax", [("0.1", "200"), ("0.1", "300"),
                                     ("0.5", "600")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_overflow_exits_3_without_inf(q, lmax, fmt, tmp_path,
                                               capsys):
    # From 2l = 156 at q = 0.1 and 2l = 513 at q = 0.5 the levels' squares
    # overflow; the command once printed the range [-inf, inf] and exit 0.
    out = tmp_path / "spec.out"
    assert run_command(["spectrum", "--q", q, "--lmax", lmax, "--format",
                        fmt, "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == ""  # no inf level, and no range line at all
    assert not out.exists()
    assert err.startswith("numeric failure: OverflowError: lambda^2")
    assert err.count("\n") == 1


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


# Scans only: their one-index tables and per-term powers are scalar libm
# calls (pow, expm1, log), the same on every host, and numpy only gathers
# and combines them with correctly rounded + - * /.  Lattice residues go
# through numpy's vectorized power, whose last bit depends on the CPU, so
# they get no golden bytes.  Re-pinned when the scan took the lattice's
# mode table and its cancellation-free base (two rows moved by one ulp),
# and when the tail bound became one envelope formula over the odd-m
# lattice: the identity and c*c bounds fell to about 0.52x and 0.65x, and
# two deltaL2 bounds moved by one ulp; no partial sum moved.
UPSILON_SCAN_CSV_BYTES = {
    "identity": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
identity,0.5,3.2,60,13.24422428055627,0.8153382093480801
identity,0.5,3.6,60,8.357261639782251,0.1533943062118876
identity,0.5,4.0,60,5.661220978187634,0.03131212034786301
""",
    "deltaL2-e11": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
deltaL2-e11,0.5,3.2,60,11.163950273423296,20.93931430933877
deltaL2-e11,0.5,3.6,60,5.584583555909964,1.7667615093176867
deltaL2-e11,0.5,4.0,60,3.304410476093211,0.28996571358553785
""",
    "cstarc": b"""omega_tag,q,z,lmax,partial_sum,tail_bound
cstarc,0.5,3.2,60,4.269859406465911,0.1188604084572506
cstarc,0.5,3.6,60,2.9039254808712447,0.02335399748131743
cstarc,0.5,4.0,60,2.073276856337285,0.004885109913183916
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


# The JSON writer streams each document into the file; these are the bytes
# of ``json.dumps(doc, indent=2) + "\n"``, the whole text formed at once.
SPECTRUM_JSON_BYTES = b"""{
  "command": "spectrum",
  "q": 0.5,
  "lmax": 2,
  "levels": [
    {
      "l2": 0,
      "eigenvalue": -0.5,
      "multiplicity": 1
    },
    {
      "l2": 0,
      "eigenvalue": -0.5,
      "multiplicity": 1
    },
    {
      "l2": 1,
      "eigenvalue": -1.0,
      "multiplicity": 2
    },
    {
      "l2": 1,
      "eigenvalue": -1.0,
      "multiplicity": 2
    },
    {
      "l2": 1,
      "eigenvalue": -1.0,
      "multiplicity": 2
    },
    {
      "l2": 1,
      "eigenvalue": 1.0,
      "multiplicity": 2
    },
    {
      "l2": 2,
      "eigenvalue": -2.29128784747792,
      "multiplicity": 3
    },
    {
      "l2": 2,
      "eigenvalue": -1.5,
      "multiplicity": 3
    },
    {
      "l2": 2,
      "eigenvalue": -1.5,
      "multiplicity": 3
    },
    {
      "l2": 2,
      "eigenvalue": -1.224744871391589,
      "multiplicity": 3
    },
    {
      "l2": 2,
      "eigenvalue": 1.224744871391589,
      "multiplicity": 3
    },
    {
      "l2": 2,
      "eigenvalue": 2.29128784747792,
      "multiplicity": 3
    }
  ]
}
"""

UPSILON_SCAN_JSON_BYTES = b"""{
  "command": "upsilon-scan",
  "rows": [
    {
      "omega_tag": "identity",
      "q": 0.5,
      "z": 3.2,
      "lmax": 60,
      "partial_sum": 13.24422428055627,
      "tail_bound": 0.8153382093480801
    },
    {
      "omega_tag": "identity",
      "q": 0.5,
      "z": 3.6,
      "lmax": 60,
      "partial_sum": 8.357261639782251,
      "tail_bound": 0.1533943062118876
    },
    {
      "omega_tag": "identity",
      "q": 0.5,
      "z": 4.0,
      "lmax": 60,
      "partial_sum": 5.661220978187634,
      "tail_bound": 0.03131212034786301
    }
  ]
}
"""


@pytest.mark.parametrize("argv, want", [
    (["spectrum", "--q", "0.5", "--lmax", "2"], SPECTRUM_JSON_BYTES),
    (["upsilon-scan", "--omega", "identity", "--q", "0.5", "--lmax", "60",
      "--z-from", "3.2", "--z-to", "4.0", "--z-steps", "3"],
     UPSILON_SCAN_JSON_BYTES),
], ids=["spectrum", "upsilon-scan"])
def test_json_golden_bytes(argv, want, tmp_path):
    out = tmp_path / "doc.json"
    assert run_command(argv + ["--format", "json", "--out", str(out)]) == 0
    assert out.read_bytes() == want


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


def test_each_command_declares_its_handler_and_choices():
    # Flags, defaults, choices and handler live on the subparser alone.
    _, subs = _build_parser()
    for command, sub in subs.items():
        assert callable(sub.get_default("handler")), command
        for action in sub._actions:
            # cocycle-eval's --cocycle defaults to None: it has no default.
            if action.choices is not None and action.default is not None:
                assert action.default in action.choices, (command, action)


def test_spectrum_rejects_negative_cutoff(capsys):
    assert run_command(["spectrum", "--lmax", "-1"]) == 2
    assert "cutoff must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["residue", "--omega", omega, "--lmax", "40"]
    for omega in ("identity", "gamma", "deltaL2-e11", "cstarc", "deltaL2-e22")
])
def test_residue_lmax_is_never_clipped_or_ignored(argv, capsys):
    # Every residue is a cutoff-free lattice sum, so residue declares no
    # --lmax: the flag is a usage error for every weight.
    assert run_command(argv) == 2
    assert "lmax" in capsys.readouterr().err


def test_residue_json_shape(tmp_path):
    out = tmp_path / "res.json"
    assert run_command(["residue", "--omega", "gamma", "--q", "0.5",
                        "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["omega", "q", "estimate", "error_bar", "method",
                         "least_squares", "schedule"]
    assert doc["estimate"] == 0.0
    assert doc["method"] == "identically-zero"
    assert doc["schedule"] == [0.4, 0.2, 0.1, 0.05]


def test_residue_csv_schedule_cell_is_an_eps_argument(tmp_path):
    # The CSV row carries every field of the report; its schedule cell is
    # the offsets comma-joined, which --eps takes back unchanged.
    out = tmp_path / "res.csv"
    argv = ["residue", "--omega", "cstarc", "--q", "0.5", "--format", "csv"]
    assert run_command(argv + ["--eps", "0.4,0.2,0.1", "--out",
                               str(out)]) == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["omega", "q", "estimate", "error_bar", "method",
                       "least_squares", "schedule"]
    assert rows[1][-1] == "0.4,0.2,0.1"
    again = tmp_path / "again.csv"
    assert run_command(argv + ["--eps", rows[1][-1], "--out",
                               str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_residue_custom_schedule_and_nonconvergence(capsys):
    rc = run_command(["residue", "--omega", "deltaL2-e11", "--q", "0.5",
                      "--eps", "0.4,0.2,0.1"])
    assert rc == 0
    rc = run_command(["residue", "--omega", "deltaL2-e11", "--q", "0.5",
                      "--max-error-bar", "1e-9"])
    assert rc == 3
    assert "non-convergence" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1e-200,1e-201,1e-202", "1e-17,1e-18,1e-19",
                                 "4e-16,3e-16,2.5e-16"])
@pytest.mark.parametrize("omega", ["identity", "cstarc", "deltaL2-e11"])
def test_residue_rejects_offsets_that_leave_z_at_3(omega, eps, capfd):
    # In the first two schedules each offset rounds 3 + eps to 3.0, where
    # no scan is defined: the least-squares fit once failed inside LAPACK,
    # which writes to fd 1, and the second gave a value computed at z = 3
    # exactly.  The third rounds all three to one z above 3, and once gave
    # a deltaL2 residue of 0 +- 2e-14 where it is 4.33.
    assert run_command(["residue", "--omega", omega, "--q", "0.5",
                        "--eps", eps]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert "schedule" in err


@pytest.mark.parametrize("argv", [
    ["upsilon-scan", "--omega", "identity", "--q", "0.5", "--lmax", "1100"],
])
def test_numeric_overflow_exits_3(argv, capsys):
    # Exit code 1 is reserved for a failed verification; an overflow in
    # the float layer is a numeric failure with a one-line message.
    assert run_command(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "OverflowError" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", ["0.1", "0.01", "0.00001"])
def test_small_q_identity_residue_is_finite(q, tmp_path, capsys):
    # From about q = 0.1 down, a scan's q^{-l2} tables overflow at cutoff
    # 400; the identity residue is a lattice sum and must stay finite,
    # with nothing on stderr.
    out = tmp_path / "res.json"
    assert run_command(["residue", "--omega", "identity", "--q", q,
                        "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_text())
    assert math.isfinite(doc["estimate"]) and math.isfinite(doc["error_bar"])


@pytest.mark.parametrize("q", ["0.999999999", "0.999999999999"])
@pytest.mark.parametrize("omega", ["deltaL2-e11", "deltaL2-e22", "cstarc",
                                   "identity"])
def test_lattice_cancellation_near_one_exits_3(omega, q, capsys):
    # Within about 1e-9 of q = 1 the lattice base n^2/4 + c_m - d_m q^{2n}
    # rounds to <= 0: a numeric failure with one line, not a traceback
    # from a complex power and not a nan residue with exit 0.
    assert run_command(["residue", "--omega", omega, "--q", q]) == 3
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.startswith("numeric failure: FloatingPointError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("q", [1.0 - 1e-9, 1.0 - 1e-12])
def test_lattice_sums_near_one_raise_arithmetic_error(q):
    from suq2 import mero
    from suq2.spectral import eigen_lattice_sum

    with pytest.raises(ArithmeticError):
        eigen_lattice_sum([3.1], q)
    with pytest.raises(ArithmeticError):
        mero.f_residue(q)


def test_memory_error_is_usage_error(monkeypatch, capsys):
    # An input too large for memory is the caller's to shrink: exit 2 with
    # one line, not a traceback and not exit 1 (a failed verification).
    def too_large(*args):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(spectral, "upsilon_scan", too_large)
    argv = ["upsilon-scan", "--omega", "identity", "--q", "0.5"]
    assert run_command(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: input too large for memory: "
                   "Unable to allocate 298. GiB for an array\n")


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


#: Ordinary values of each numeric flag, small enough to keep a run short.
_ORDINARY = {
    "--q": st.floats(0.05, 0.95),
    "--lmax": st.integers(0, 40),
    "--z-from": st.floats(2.0, 6.0),
    "--z-to": st.floats(2.0, 6.0),
    "--z-steps": st.integers(1, 4),
    "--max-error-bar": st.floats(0.0, 10.0),
    "--tuples": st.integers(1, 3),
    "--seed": st.integers(0, 2 ** 32),
}
_EDGES = st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300"])
_SUBPARSERS = _build_parser()[1]


@st.composite
def _numeric_argv(draw):
    """A command and a value, or none, for each of its int and float flags
    as its parser declares them."""
    command = draw(st.sampled_from(
        ["spectrum", "upsilon-scan", "residue", "hochschild-check"]))
    argv = [command]
    if command in ("upsilon-scan", "residue"):
        argv += ["--omega", draw(st.sampled_from(OMEGA_TAGS))]
    for action in _SUBPARSERS[command]._actions:
        if action.type in (int, float):
            flag = action.option_strings[0]
            value = draw(st.none() | _ORDINARY[flag].map(str) | _EDGES)
            if value is not None:
                argv.append(f"{flag}={value}")
    return argv


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_numeric_argv())
def test_numeric_flags_keep_the_documented_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run_command(argv)
    assert rc in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if rc == 0:
        assert "nan" not in out.getvalue(), argv
    if rc in (2, 3):
        assert out.getvalue() == "", argv


# ---------------------------------------------------------------------------
# The exact commands stand alone: they run with numpy and scipy blocked.

SRC = Path(__file__).resolve().parents[1] / "src"

#: A fresh interpreter in which every import of numpy or scipy raises
#: ImportError, so a command that loads the float layer fails.  It runs
#: each argv of the JSON list on its stdin through run_command and prints
#: one JSON record per argv: the exit code (or the ImportError that
#: escaped), stdout and stderr.
_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
from suq2.cli import run_command
records = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run_command(argv)
    except ImportError as exc:
        rc = repr(exc)
    records.append({"rc": rc, "out": out.getvalue(), "err": err.getvalue()})
print(json.dumps(records))
"""


def _run_blocked(argvs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _BLOCKED],
                         input=json.dumps(argvs), env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_command(argv) == 0, argv
    return out.getvalue()


def _without_seconds(text):
    # verify-all's lines carry each check's seconds, which vary by run.
    return re.sub(r"\(\s*[0-9.]+s\)", "(s)", text)


_EXACT_ARGVS = [
    ["pair-dvol"],
    ["act", "--which", "e", "a"],
    ["haar", "b c"],
    ["cocycle-eval", "--cocycle", "phi", "a", "b", "c", "d"],
    ["hochschild-check", "--tuples", "5"],
    ["verify-all", "--only", "algebra-suite,cocycle-closure"],
]


def test_exact_commands_run_with_numpy_and_scipy_blocked():
    # A float command under the same block fails on its import, which
    # shows that the block works.
    *exact, float_cmd = _run_blocked(_EXACT_ARGVS + [["spectrum",
                                                      "--lmax", "2"]])
    for argv, rec in zip(_EXACT_ARGVS, exact):
        assert rec["rc"] == 0, (argv, rec)
        assert (_without_seconds(rec["out"])
                == _without_seconds(_stdout(argv))), argv
    assert "ModuleNotFoundError" in float_cmd["rc"], float_cmd
    assert "numpy" in float_cmd["rc"], float_cmd


@pytest.mark.parametrize("argv, flag, ceiling", [
    (["spectrum", "--q", "0.999", "--lmax", "2001"], "--lmax", 2000),
    (["upsilon-scan", "--omega", "identity", "--q", "0.999",
      "--lmax", "10001"], "--lmax", 10000),
    (["upsilon-scan", "--omega", "identity", "--lmax", "1",
      "--z-steps", "1000001"], "--z-steps", 1000000),
], ids=["spectrum-lmax", "scan-lmax", "scan-z-steps"])
def test_size_flags_above_their_ceiling_are_usage_errors(argv, flag, ceiling):
    # Past its ceiling a size is a usage error before the float layer is
    # imported (it is blocked here) and before anything is allocated.
    (rec,) = _run_blocked([argv])
    assert rec["rc"] == 2, rec
    assert rec["out"] == ""
    assert rec["err"] == (f"error: {flag} {ceiling + 1} is above its "
                          f"ceiling {ceiling}\n")


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
    assert doc == [
        {"check_id": "action-oracle", "passed": True,
         "detail": "55 monomials x 8 actions, all exact"},
        {"check_id": "gamma-vanishes", "passed": True,
         "detail": "48 scan points and the residue report identically zero"}]


def test_verify_all_reports_failure_exit(monkeypatch, capsys):
    # The exit code must not depend on which real checks happen to be red,
    # so the registry entry is swapped for one that fails by construction.
    def always_fails():
        return False, "fails by construction"

    monkeypatch.setattr(acceptance, "ALL_CHECKS", tuple(
        (name, always_fails if name == "volume-pairings" else fn)
        for name, fn in acceptance.ALL_CHECKS))
    rc = run_command(["verify-all", "--only", "volume-pairings"])
    assert rc == 1
    assert "FAIL  volume-pairings" in capsys.readouterr().out


def test_verify_all_unknown_id(capsys):
    assert run_command(["verify-all", "--only", "not-a-check"]) == 2


@pytest.mark.parametrize("only", [",", "", "gamma-vanishes,gamma-vanishes"])
def test_verify_all_rejects_empty_or_repeated_selection(only, capsys):
    # A run that verified nothing, or one check twice, is a usage error,
    # not a pass.
    assert run_command(["verify-all", "--only", only]) == 2
    captured = capsys.readouterr()
    assert "checks passed" not in captured.out
    assert "naming each id once" in captured.err
