"""README.md quotes every budget as `module.MAX_NAME` = value, at its value
in the code, and its Layout block names every module of the package."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
QUOTE = re.compile(r"`(\w+)\.(MAX_\w+)` = (\d+(?:,\d{3})*)")
DEFINITION = re.compile(r"^(MAX_\w+) = ", re.MULTILINE)
# a module's entry in the Layout block: its file name, indented by two spaces
LAYOUT_ENTRY = re.compile(r"^  (\w+\.py) ", re.MULTILINE)


def quotes():
    return QUOTE.findall((ROOT / "README.md").read_text())


def test_quoted_values_equal_the_constants():
    assert len(quotes()) >= 8
    for module, name, value in quotes():
        constant = getattr(importlib.import_module(f"pshdiag.{module}"), name)
        assert constant == int(value.replace(",", "")), f"{module}.{name}"


def test_every_budget_is_quoted():
    src = ROOT / "src"
    defined = {
        (".".join(path.relative_to(src).with_suffix("").parts), name)
        for path in src.rglob("*.py")
        for name in DEFINITION.findall(path.read_text())
    }
    assert len(defined) >= 8
    assert defined <= {(f"pshdiag.{module}", name) for module, name, _ in quotes()}


def test_layout_names_every_module():
    block = (ROOT / "README.md").read_text().split("## Layout", 1)[1].split("```")[1]
    modules = {path.name for path in (ROOT / "src" / "pshdiag").glob("*.py")} - {"__init__.py"}
    assert len(modules) >= 10
    assert set(LAYOUT_ENTRY.findall(block)) == modules
