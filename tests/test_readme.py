"""README's library example runs as written, so the docs name only APIs psg has."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library example\n\n```python\n(.*?)^```", text, flags=re.M | re.S)
    exec(compile(code, str(README), "exec"), {})
    t, _energy, violated = capsys.readouterr().out.split()
    assert float(t) == 42.0 and violated == "False"
