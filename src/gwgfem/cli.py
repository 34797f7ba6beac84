"""Command-line driver for convergence studies.

Usage example:

    gwg-study --element 3,4,4 --mesh tri --levels 8,16,32,64 \
              --rho 1 --gamma -1 --case cospi_cospi --output study.csv

Configuration files (--config) hold 'key = value' lines with the same keys
as the long flags; explicit flags win over file values.  Exit codes:
0 success, 2 usage/configuration error, 3 singular system or CG not
converged (partial results are still written), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields

from .assembly import SchemeParameters, SingularSystem
from .verify import ErrorReport, _mesh_args, get_case, run_convergence_study
from .weakspace import WeakSpaceSignature

__all__ = ["StudyConfig", "ConfigError", "parse_config", "run", "main", "console_main"]

CSV_HEADER = "level,inv_h,energy_err,energy_rate,l2_err,l2_rate,edge_err,edge_rate"

class ConfigError(ValueError):
    """Invalid command line or configuration file contents."""


@dataclass
class StudyConfig:
    element: tuple
    levels: tuple
    mesh: str = "tri"
    rho: float = 1.0
    gamma: float = -1.0
    case: str = "cospi_cospi"
    alpha: float | None = None
    output: str | None = None
    manifest: bool = False

    @property
    def signature(self) -> WeakSpaceSignature:
        return WeakSpaceSignature(*self.element)

    @property
    def params(self) -> SchemeParameters:
        return SchemeParameters(rho=self.rho, gamma=self.gamma)


def _parse_element(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated degrees k,j,l, got {text!r}")
    try:
        degrees = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"degrees must be integers, got {text!r}") from None
    return degrees


def _parse_levels(text: str):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _parse_bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _join(values) -> str:
    return ",".join(str(v) for v in values)


# Every StudyConfig field, in field order: (text parser, manifest formatter or
# None, help text).  Defaults come from StudyConfig; value checks are the
# library's (see _study_args).
_KEYS = {
    "element": (_parse_element, _join, "degrees k,j,l of the element family"),
    "levels": (_parse_levels, _join, "comma-separated refinement labels (nominal 1/h)"),
    "mesh": (str, str, "mesh family"),
    "rho": (float, "{:.17g}".format, "stabilizer weight"),
    "gamma": (float, "{:.17g}".format, "stabilizer mesh-power"),
    "case": (str, str, "manufactured solution name"),
    "alpha": (float, "{:.17g}".format, "regularity index for case 'lowreg'"),
    "output": (lambda text: text or None, None, "write the study table to this CSV file"),
    "manifest": (
        _parse_bool, None, "prefix the CSV with '# key = value' lines recording the configuration"
    ),
}


def _study_args(config: StudyConfig) -> tuple:
    """run_convergence_study's arguments (case, mesh family, levels, signature, params).

    Each value is checked by the library itself, which raises ValueError.
    """
    _mesh_args(config.mesh, config.levels)
    case = get_case(config.case, alpha=config.alpha)
    return case, config.mesh, config.levels, config.signature, config.params


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwg-study",
        description="Run a convergence study of the weak Galerkin scheme.",
        allow_abbrev=False,
    )
    for f in fields(StudyConfig):
        _, show, text = _KEYS[f.name]
        if isinstance(f.default, bool):
            parser.add_argument(f"--{f.name}", action="store_const", const="true", help=text)
            continue
        if f.default is MISSING:
            text += " (required)"
        elif f.default is not None:
            text += f" (default {show(f.default)})"
        parser.add_argument(f"--{f.name}", help=text)
    parser.add_argument("--config", help="read defaults from a 'key = value' file")
    return parser


def _attach_negative_numbers(argv) -> list:
    """argv with '--key -1e-3' rewritten as '--key=-1e-3'.

    argparse reads a token that starts with '-' as an option unless it looks
    like '-5' or '-.5', so an exponent-form negative value must be attached.
    The parser accepts no abbreviated flags, so these are all its flags.
    """
    flags = {f"--{key}" for key in _KEYS}
    out = []
    for token in argv:
        if out and out[-1] in flags and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def parse_config(argv=None) -> StudyConfig:
    """Merge flags over config-file values and validate; raises ConfigError."""
    argv = sys.argv[1:] if argv is None else argv
    args = vars(_build_parser().parse_args(_attach_negative_numbers(argv)))
    merged = _read_config_file(args["config"]) if args["config"] else {}
    merged.update((key, args[key]) for key in _KEYS if args[key] is not None)
    values = {}
    for f in fields(StudyConfig):
        if f.name in merged:
            try:
                values[f.name] = _KEYS[f.name][0](merged[f.name])
            except ValueError as err:
                raise ConfigError(f"{f.name}: {err}") from None
        elif f.default is MISSING:
            raise ConfigError(f"{f.name} is required (--{f.name} or config file)")
    config = StudyConfig(**values)
    try:
        _study_args(config)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return config


def _csv_lines(report: ErrorReport, config: StudyConfig) -> list:
    lines = []
    if config.manifest:
        for key, (_, show, _) in _KEYS.items():
            value = getattr(config, key)
            if show is not None and value is not None:
                lines.append(f"# {key} = {show(value)}")
    lines.append(CSV_HEADER)
    rates = report.rates()
    for i, row in enumerate(report.rows):
        cells = [str(i), str(row.label)]
        for err, rate in zip(
            (row.energy_err, row.l2_err, row.edge_err), rates[i]
        ):
            cells.append(f"{err:.17g}")
            cells.append("" if rate is None else f"{rate:.17g}")
        lines.append(",".join(cells))
    return lines


def _print_table(report: ErrorReport, stream) -> None:
    header = f"{'inv_h':>6} {'energy_err':>12} {'rate':>6} {'l2_err':>12} {'rate':>6} {'edge_err':>12} {'rate':>6}"
    stream.write(header + "\n")
    rates = report.rates()
    for row, rate in zip(report.rows, rates):
        cells = [f"{row.label:>6}"]
        for err, r in zip((row.energy_err, row.l2_err, row.edge_err), rate):
            cells.append(f"{err:>12.2E}")
            cells.append(f"{'--':>6}" if r is None else f"{r:>6.2f}")
        stream.write(" ".join(cells) + "\n")


def run(config: StudyConfig, stdout=None, stderr=None) -> int:
    """Execute the configured study; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        report, code = run_convergence_study(*_study_args(config)), 0
    except SingularSystem as err:
        stderr.write(f"error: level {err.level}: {err}\n")
        report, code = err.partial, 3
    if config.output and report is not None:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write("\n".join(_csv_lines(report, config)) + "\n")
        except OSError as err:
            stderr.write(f"error: cannot write {config.output}: {err}\n")
            return 4
    if code == 0:
        _print_table(report, stdout)
    return code


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except ConfigError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except SystemExit as err:
        code = err.code
        return 0 if code in (0, None) else 2
    return run(config)


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
