"""The README's library tour runs as written and its option table matches the CLI."""

import pathlib
import re
from dataclasses import MISSING, fields

from gwgfem.cli import _KEYS, StudyConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # the tour prints the three error norms of a 16 x 16 (1, 2, 2) solve
    norms = [float(v) for v in capsys.readouterr().out.split()]
    assert len(norms) == 3 and all(0.0 < v < 0.1 for v in norms)


def test_option_table_matches_cli():
    # one row per CLI key, in key-table order, with the default StudyConfig declares
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*`(\w+)`\s*\|[^|]*\|\s*(.*?)\s*\|$", section, re.M)
    defaults = {f.name: f.default for f in fields(StudyConfig)}
    expected = []
    for key, (_, show, _) in _KEYS.items():
        default = defaults[key]
        if default is MISSING:
            shown = "required"
        elif default is None:
            shown = "none"
        elif isinstance(default, bool):
            shown = f"`{str(default).lower()}`"
        else:
            shown = f"`{show(default)}`"
        expected.append((key, shown))
    assert rows == expected
