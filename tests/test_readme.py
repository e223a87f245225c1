import ast
import re
from pathlib import Path

import pytest

from epifrost import ConfigError, parse_config
from epifrost.config import KINDS
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


def test_kernel_table_names_each_kind_and_its_fields():
    # each row's parameters column names exactly the fields its kind accepts, read as
    # the first identifier of each backticked token: `rows[i] = {values, probs}` is rows
    text = README.read_text()
    section = text[text.index("**Kernel kinds**"):text.index("Each kind states")]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    kinds = []
    for kind_cell, params_cell in rows:
        kind = re.fullmatch(r" `(\w+)` ", kind_cell).group(1)
        named = [re.match(r"\w+", token).group() for token in re.findall(r"`([^`]+)`", params_cell)]
        doc = {"population": {"m": 1, "pi": [1.0], "N": 100}, "kernel": {"kind": kind, "?": 1}}
        with pytest.raises(ConfigError, match="unknown field '\\?'; valid fields are") as info:
            parse_config(doc)
        accepted = ast.literal_eval(str(info.value).split("valid fields are ")[1])
        assert sorted(named) == sorted(accepted), kind
        kinds.append(kind)
    assert sorted(kinds) == sorted(KINDS)
