"""Tests for the command-line study driver: parsing, CSV output, exit codes."""

import io
import math
import re
import subprocess
import sys
from dataclasses import MISSING, fields

import pytest

from gwgfem.cli import (
    _KEYS,
    CSV_HEADER,
    ConfigError,
    StudyConfig,
    main,
    parse_config,
    run,
)


def parse(argv):
    return parse_config(argv)


# ---------------------------------------------------------------- parsing


def test_parse_minimal_flags():
    config = parse(["--element", "3,4,4", "--levels", "8,16,32,64"])
    assert config.element == (3, 4, 4)
    assert config.levels == (8, 16, 32, 64)
    assert config.mesh == "tri"
    assert config.rho == 1.0 and config.gamma == -1.0
    assert config.case == "cospi_cospi"
    assert config.output is None and config.manifest is False
    assert config.signature.k == 3
    assert config.params.gamma == -1.0


def test_parse_full_flags(tmp_path):
    out = tmp_path / "study.csv"
    config = parse(
        [
            "--element", "1,1,0",
            "--levels", "8,16",
            "--mesh", "tri",
            "--rho", "1",
            "--gamma", "-1",
            "--case", "lowreg",
            "--alpha", "0.5",
            "--output", str(out),
            "--manifest",
        ]
    )
    assert config.case == "lowreg" and config.alpha == 0.5
    assert config.output == str(out)
    assert config.manifest is True


@pytest.mark.parametrize(
    "argv",
    [
        ["--levels", "2,4"],  # element missing
        ["--element", "1,1,1"],  # levels missing
        ["--element", "1,1", "--levels", "2,4"],
        ["--element", "1,1,x", "--levels", "2,4"],
        ["--element", "1,-1,1", "--levels", "2,4"],
        ["--element", "1,1,1", "--levels", "4"],
        ["--element", "1,1,1", "--levels", "4,4"],
        ["--element", "1,1,1", "--levels", "8,4"],
        ["--element", "1,1,1", "--levels", "2,4", "--rho", "-1"],
        ["--element", "1,1,1", "--levels", "2,4", "--case", "nope"],
        ["--element", "1,1,1", "--levels", "2,4", "--case", "lowreg"],
        ["--element", "1,1,1", "--levels", "2,4", "--case", "lowreg", "--alpha", "2"],
        ["--element", "1,1,1", "--levels", "2,4", "--alpha", "0.5"],
        ["--element", "1,1,1", "--levels", "8,12", "--mesh", "rect"],
        ["--element", "1,1,1", "--levels", "6,12", "--mesh", "rect"],
    ],
)
def test_parse_rejects_bad_configuration(argv):
    with pytest.raises(ConfigError):
        parse(argv)


def test_solver_option_is_gone(tmp_path):
    # the direct factorization is the only solver, so there is nothing to choose
    assert main(["--element", "1,1,1", "--levels", "2,4", "--solver", "direct"]) == 2
    cfg = tmp_path / "study.cfg"
    cfg.write_text("element = 1,1,1\nlevels = 2,4\nsolver = direct\n")
    with pytest.raises(ConfigError, match="unknown key 'solver'"):
        parse(["--config", str(cfg)])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--case", "lowreg"], "requires the regularity index alpha"),
        (["--alpha", "0.5"], "does not take a regularity index"),
        (["--levels", "4"], "convergence study needs at least two"),
        (["--mesh", "rect", "--levels", "8,12"], "labels are 4\\*2\\^L, got 12"),
        (["--rho", "nan"], "rho must be finite"),
        (["--rho", "inf"], "rho must be finite"),
        (["--gamma", "inf"], "gamma must be finite"),
        (["--gamma=-inf"], "gamma must be finite"),
        (["--rho", "-1e-3"], "rho must be finite and non-negative"),
        (["--mesh", "hex"], "unknown mesh family 'hex'"),
    ],
)
def test_parse_reports_library_messages(argv, message):
    # configuration checks are the library's own, surfaced as ConfigError
    with pytest.raises(ConfigError, match=message):
        parse(["--element", "1,1,1", "--levels", "2,4", *argv])


def test_parse_accepts_exponent_form_negative_values(tmp_path):
    # argparse alone reads '-1e-3' as an option, not as the value of --gamma
    config = parse(["--element", "1,1,1", "--levels", "2,4", "--gamma", "-1e-3"])
    assert config.gamma == -0.001
    cfg = tmp_path / "study.cfg"
    cfg.write_text("element = 1,1,1\nlevels = 2,4\ngamma = -1e-3\n")
    assert parse(["--config", str(cfg)]).gamma == -0.001


def test_key_table_covers_every_config_field():
    assert list(_KEYS) == [f.name for f in fields(StudyConfig)]


def test_help_shows_dataclass_defaults(capsys):
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for f in fields(StudyConfig):
        if f.default is MISSING:
            assert re.search(rf"--{f.name} {f.name.upper()} (?:(?! --).)*\(required\)", text)
        elif f.default is not None and not isinstance(f.default, bool):
            shown = _KEYS[f.name][1](f.default)
            assert re.search(rf"--{f.name} {f.name.upper()} (?:(?! --).)*\(default {shown}\)", text)


def test_parse_accepts_rect_labels():
    config = parse(["--element", "3,2,2", "--levels", "4,8,16", "--mesh", "rect"])
    assert config.levels == (4, 8, 16)


def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(
        "# demo configuration\n"
        "element = 2,1,2\n"
        "levels = 2,4,8\n"
        "case = x2_cospi\n"
        "rho = 2.0  # stabilizer weight\n"
        "\n"
    )
    config = parse(["--config", str(cfg)])
    assert config.element == (2, 1, 2)
    assert config.case == "x2_cospi"
    assert config.rho == 2.0
    # explicit flags win over file values
    config = parse(["--config", str(cfg), "--rho", "0.5", "--levels", "4,8"])
    assert config.rho == 0.5
    assert config.levels == (4, 8)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        parse(["--config", str(tmp_path / "missing.cfg")])
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("element = 1,1,1\nturbo = on\n")
    with pytest.raises(ConfigError):
        parse(["--config", str(bad_key)])
    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("element 1,1,1\n")
    with pytest.raises(ConfigError):
        parse(["--config", str(bad_line)])


def test_manifest_boolean_from_config(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("element = 1,1,1\nlevels = 2,4\nmanifest = true\n")
    assert parse(["--config", str(cfg)]).manifest is True
    cfg.write_text("element = 1,1,1\nlevels = 2,4\nmanifest = off\n")
    assert parse(["--config", str(cfg)]).manifest is False
    cfg.write_text("element = 1,1,1\nlevels = 2,4\nmanifest = maybe\n")
    with pytest.raises(ConfigError):
        parse(["--config", str(cfg)])


# ------------------------------------------------------------- run + CSV


def run_study(tmp_path, extra=(), name="study.csv"):
    out = tmp_path / name
    config = parse(
        ["--element", "1,1,1", "--levels", "2,4,8", "--output", str(out), *extra]
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(config, stdout=stdout, stderr=stderr)
    return code, out, stdout.getvalue(), stderr.getvalue()


def test_run_writes_csv_and_table(tmp_path):
    code, out, stdout, stderr = run_study(tmp_path)
    assert code == 0 and stderr == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2"
    assert first[3] == "" and first[5] == "" and first[7] == ""  # blank rates
    second = lines[2].split(",")
    assert second[0] == "1" and second[1] == "4"
    assert all(second[i] != "" for i in (3, 5, 7))

    table = stdout.strip().split("\n")
    assert table[0].split() == [
        "inv_h", "energy_err", "rate", "l2_err", "rate", "edge_err", "rate",
    ]
    row = re.compile(
        r"^\s*\d+(\s+\d\.\d{2}E[+-]\d{2}\s+(--|-?\d+\.\d{2})){3}\s*$"
    )
    for line in table[1:]:
        assert row.match(line), line


def test_run_is_deterministic(tmp_path):
    _, out1, stdout1, _ = run_study(tmp_path, name="a.csv")
    _, out2, stdout2, _ = run_study(tmp_path, name="b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1 == stdout2


def test_csv_rates_recompute_from_errors(tmp_path):
    # the rate columns must be recomputable offline from the error columns;
    # triangular labels double, so log2 of consecutive error ratios applies
    _, out, _, _ = run_study(tmp_path)
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    for col in (2, 4, 6):
        errs = [float(r[col]) for r in rows]
        rates = [float(r[col + 1]) for r in rows[1:]]
        for (e0, e1), rate in zip(zip(errs, errs[1:]), rates):
            assert abs(math.log2(e0 / e1) - rate) <= 1e-9


def test_manifest_prefix(tmp_path):
    code, out, _, _ = run_study(
        tmp_path, extra=["--manifest", "--case", "x2_cospi", "--rho", "0.5"]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    manifest = [line for line in lines if line.startswith("# ")]
    assert manifest == [
        "# element = 1,1,1",
        "# levels = 2,4,8",
        "# mesh = tri",
        "# rho = 0.5",
        "# gamma = -1",
        "# case = x2_cospi",
    ]
    assert lines[len(manifest)] == CSV_HEADER


def test_manifest_includes_alpha(tmp_path):
    out = tmp_path / "low.csv"
    config = parse(
        [
            "--element", "1,1,0",
            "--levels", "2,4",
            "--case", "lowreg",
            "--alpha", "0.5",
            "--output", str(out),
            "--manifest",
        ]
    )
    assert run(config, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    lines = out.read_text().strip().split("\n")
    assert "# alpha = 0.5" in lines
    assert lines.index("# case = lowreg") + 1 == lines.index("# alpha = 0.5")
    assert lines[lines.index("# alpha = 0.5") + 1] == CSV_HEADER


def test_singular_run_exits_3_with_partial_csv(tmp_path):
    out = tmp_path / "singular.csv"
    config = parse(
        [
            "--element", "0,0,0",
            "--levels", "2,4",
            "--rho", "0",
            "--output", str(out),
        ]
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    assert run(config, stdout=stdout, stderr=stderr) == 3
    assert "level 2" in stderr.getvalue()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 1  # failed on the first level


def test_unwritable_output_exits_4(tmp_path):
    config = parse(
        [
            "--element", "1,1,1",
            "--levels", "2,4",
            "--output", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        ]
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    assert run(config, stdout=stdout, stderr=stderr) == 4
    assert "error" in stderr.getvalue()


def test_main_exit_codes(capsys):
    assert main(["--element", "1,1", "--levels", "2,4"]) == 2
    assert main(["--element", "1,1,1", "--levels", "2,4", "--rho", "nan"]) == 2
    assert main(["--element", "1,1,1", "--levels", "2,4", "--gamma", "inf"]) == 2
    assert main(["--no-such-flag"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_run_without_output_prints_only(capsys):
    config = parse(["--element", "1,1,1", "--levels", "2,4"])
    assert run(config) == 0
    captured = capsys.readouterr()
    assert "inv_h" in captured.out


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "gwgfem",
            "--element", "1,1,1",
            "--levels", "2,4",
            "--case", "x2_cospi",
            "--output", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "inv_h" in proc.stdout
    assert out.read_text().startswith(CSV_HEADER)


def test_study_config_direct_construction():
    config = StudyConfig(element=(2, 1, 3), levels=(8, 16), rho=0.0)
    assert config.params.rho == 0.0
    assert config.signature.m == 3
