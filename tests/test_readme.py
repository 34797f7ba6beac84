"""The README's library tour runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    # the tour prints the three error norms of a 16 x 16 (1, 2, 2) solve
    norms = [float(v) for v in capsys.readouterr().out.split()]
    assert len(norms) == 3 and all(0.0 < v < 0.1 for v in norms)
