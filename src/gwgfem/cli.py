"""Command-line driver for convergence studies.

Usage example:

    gwg-study --element 3,4,4 --mesh tri --levels 8,16,32,64 \
              --rho 1 --gamma -1 --case cospi_cospi --output study.csv

Configuration files (--config) hold 'key = value' lines with the same keys
as the long flags; explicit flags win over file values.  Exit codes:
0 success, 2 usage/configuration error, 3 singular system (partial results
are still written), 4 output I/O error.
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


# configuration keys and their defaults; None marks a required key
_DEFAULTS = {f.name: None if f.default is MISSING else f.default for f in fields(StudyConfig)}


def _parse_element(text: str):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError(f"element must be three comma-separated degrees k,j,l, got {text!r}")
    try:
        degrees = tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"element degrees must be integers, got {text!r}") from None
    return degrees


def _parse_levels(text: str):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"levels must be comma-separated integers, got {text!r}") from None


def _parse_bool(text):
    if isinstance(text, bool):
        return text
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


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
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwg-study",
        description="Run a convergence study of the weak Galerkin scheme.",
    )
    parser.add_argument("--element", help="degrees k,j,l of the element family")
    parser.add_argument("--levels", help="comma-separated refinement labels (nominal 1/h)")
    parser.add_argument("--mesh", choices=["tri", "rect"], help="mesh family (default tri)")
    parser.add_argument("--rho", type=float, help="stabilizer weight (default 1)")
    parser.add_argument("--gamma", type=float, help="stabilizer mesh-power (default -1)")
    parser.add_argument("--case", help="manufactured solution name (default cospi_cospi)")
    parser.add_argument("--alpha", type=float, help="regularity index for case 'lowreg'")
    parser.add_argument("--output", help="write the study table to this CSV file")
    parser.add_argument("--config", help="read defaults from a 'key = value' file")
    parser.add_argument(
        "--manifest",
        action="store_true",
        default=None,
        help="prefix the CSV with '# key = value' lines recording the configuration",
    )
    return parser


def parse_config(argv=None) -> StudyConfig:
    """Merge flags over config-file values and validate; raises ConfigError."""
    args = _build_parser().parse_args(argv)
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_read_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value

    if merged["element"] is None:
        raise ConfigError("element degrees are required (--element k,j,l or config)")
    if merged["levels"] is None:
        raise ConfigError("refinement levels are required (--levels ... or config)")
    element = _parse_element(merged["element"])
    levels = _parse_levels(merged["levels"])
    mesh = str(merged["mesh"])
    case = str(merged["case"])
    try:
        rho = float(merged["rho"])
        gamma = float(merged["gamma"])
        alpha = None if merged["alpha"] is None else float(merged["alpha"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    # the library's own checks, reported as configuration errors
    try:
        WeakSpaceSignature(*element)
        _mesh_args(mesh, levels)
        SchemeParameters(rho=rho, gamma=gamma)
        get_case(case, alpha=alpha)
    except ValueError as err:
        raise ConfigError(str(err)) from None
    output = merged["output"]
    return StudyConfig(
        element=element,
        levels=levels,
        mesh=mesh,
        rho=rho,
        gamma=gamma,
        case=case,
        alpha=alpha,
        output=None if output in (None, "") else str(output),
        manifest=_parse_bool(merged["manifest"]),
    )


def _csv_lines(report: ErrorReport, config: StudyConfig) -> list:
    lines = []
    if config.manifest:
        element = ",".join(str(d) for d in config.element)
        levels = ",".join(str(v) for v in config.levels)
        items = [
            ("element", element),
            ("levels", levels),
            ("mesh", config.mesh),
            ("rho", f"{config.rho:.17g}"),
            ("gamma", f"{config.gamma:.17g}"),
            ("case", config.case),
        ]
        if config.alpha is not None:
            items.append(("alpha", f"{config.alpha:.17g}"))
        lines.extend(f"# {key} = {value}" for key, value in items)
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


def _write_csv(report: ErrorReport, config: StudyConfig) -> None:
    text = "\n".join(_csv_lines(report, config)) + "\n"
    with open(config.output, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    case = get_case(config.case, alpha=config.alpha)
    try:
        report = run_convergence_study(
            case,
            config.mesh,
            config.levels,
            config.signature,
            config.params,
        )
    except SingularSystem as err:
        stderr.write(f"error: level {err.level}: {err}\n")
        if config.output and err.partial is not None:
            try:
                _write_csv(err.partial, config)
            except OSError as io_err:
                stderr.write(f"error: cannot write {config.output}: {io_err}\n")
                return 4
        return 3
    if config.output:
        try:
            _write_csv(report, config)
        except OSError as err:
            stderr.write(f"error: cannot write {config.output}: {err}\n")
            return 4
    _print_table(report, stdout)
    return 0


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
