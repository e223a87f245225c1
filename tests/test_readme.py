import re
from pathlib import Path

import pytest

from oracles import Q_MU2

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs_as_written():
    # the README's quickstart is run verbatim, so the public API and its docs cannot drift apart
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library quickstart)", "exec"), namespace)
    assert namespace["extinction"].major_outbreak_prob == pytest.approx(1 - Q_MU2, abs=1e-9)
    assert len(namespace["ensemble"]) == 10_000
