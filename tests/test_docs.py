"""Tables in the docs that a registry in the code owns must list what it holds."""

import inspect
import re
from pathlib import Path

from repro.core.strategies import available_strategies, strategy_class
from repro.hardware import presets
from repro.hardware.spec import DRIVER_APIS, RailSpec

ROOT = Path(__file__).resolve().parents[1]
DESIGN = ROOT / "DESIGN.md"
#: DESIGN.md may shrink, never grow: a change that adds a section takes one out
DESIGN_MAX_LINES = 1319


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


def _inventory(package):
    """``{file: description}`` of one package in DESIGN.md §3's module map:
    the entries indented one step under ``  <package>/``, each one or more
    file names, two spaces, then what they hold."""
    lines = _section(DESIGN.read_text(), "3. System inventory").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"  {package}/ "))
    entries = {}
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        if not line.startswith("     "):  # a deeper line continues the entry above
            names, _, text = line.strip().partition("  ")
            entries.update(dict.fromkeys(names.split(), text.strip()))
    return entries


def test_readme_transmit_layer_names_the_driver_apis():
    readme = (ROOT / "README.md").read_text().splitlines()
    line = next(line for line in readme if "transmit layer     repro.drivers" in line)
    assert tuple(re.findall(r"\w+", line.partition("—")[2])) == DRIVER_APIS


def test_design_drivers_block_names_the_package_files():
    shipped = {path.name for path in (ROOT / "src/repro/drivers").glob("*.py")}
    assert set(_inventory("drivers")) == shipped - {"__init__.py"}


def test_design_presets_line_names_the_rail_presets():
    rails = {name for name, value in vars(presets).items() if isinstance(value, RailSpec)}
    text = _inventory("hardware")["presets.py"]
    assert set(re.findall(r"\b[A-Z][A-Z0-9_]+\b", text)) == rails


def test_design_stays_within_its_line_budget():
    assert len(DESIGN.read_text().splitlines()) <= DESIGN_MAX_LINES
