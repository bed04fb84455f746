"""Tables in the docs that a registry in the code owns must list what it holds."""

import inspect
import re
from pathlib import Path

from repro.core.strategies import available_strategies, strategy_class

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
#: DESIGN.md may shrink, never grow: a change that adds a section takes one out
DESIGN_MAX_LINES = 1321


def _section(text, heading):
    """The body of the ``## <heading>`` section of a markdown document."""
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_design_strategy_table_equals_the_registry():
    section = _section(DESIGN.read_text(), "3. System inventory")
    names = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert len(names) == len(set(names)), names
    # the shipped strategies: an example run in-process may register its own
    shipped = [
        name for name in available_strategies()
        if strategy_class(name).__module__.startswith("repro.core.strategies.")
    ]
    assert sorted(names) == shipped


def test_design_strategy_table_names_each_constructor_option():
    """A row names exactly its class's options (`name=`): an option cannot
    be added, or come back, without the table saying so."""
    section = _section(DESIGN.read_text(), "3. System inventory")
    rows = re.findall(r"^\| `(\w+)` \|(.*)$", section, flags=re.MULTILINE)
    assert rows
    for name, row in rows:
        named = set(re.findall(r"`(\w+)=", row))
        assert named == set(inspect.signature(strategy_class(name)).parameters), name


def test_design_stays_within_its_line_budget():
    assert len(DESIGN.read_text().splitlines()) <= DESIGN_MAX_LINES
