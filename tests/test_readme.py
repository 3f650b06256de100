"""The README's examples run as written.

The `python` block runs, the `ini` block loads as a scenario and a sweep,
each value that its comments call a default is the record's default, and
every `qkdcoex ...` line of the `sh` blocks parses as a command line.
"""

import configparser
import re
import shlex
from pathlib import Path

import pytest

from qkdcoex import cli, config
from qkdcoex.config import load_scenario, load_sweep
from qkdcoex.decoy import DecoyIntensities, DetectorSpec, ProtocolParams
from qkdcoex.scenario import Scenario, SweepSpec

README = Path(__file__).resolve().parent.parent / "README.md"

# The records whose fields each INI section sets.
_RECORDS = {"classical": (Scenario,),
            "quantum": (DecoyIntensities, ProtocolParams),
            "detector": (DetectorSpec,)}


def _blocks(language: str) -> list[str]:
    """The text of each ```language fenced block of the README."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def _defaults(section: str) -> dict:
    """Each INI key of `section`, with its kind and its record default."""
    return {key: (kind, record._record_template[field])
            for record in _RECORDS[section]
            for field, key, kind in config._ini_fields(record)}


def test_each_example_kind_is_present():
    assert [len(_blocks(lang)) for lang in ("python", "ini")] == [1, 1]
    assert any("qkdcoex " in block for block in _blocks("sh"))


def test_python_block_runs(capsys):
    exec(compile(_blocks("python")[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("DistanceResult(")


def test_ini_block_loads(tmp_path):
    path = tmp_path / "lp02in.ini"
    path.write_text(_blocks("ini")[0], encoding="utf-8")
    scenario = load_scenario(path)
    assert scenario.link.scheme.name.value == "lp02in"
    assert load_sweep(path) == SweepSpec(0.0, 100.0, 1.0)


def test_ini_defaults_are_the_record_defaults():
    """Every key of a section whose header says "defaults shown", and each
    `key = value` of a comment that gives a field's only accepted value,
    holds the default of the record field it sets."""
    block = _blocks("ini")[0]
    shown = re.findall(r"^\[(\w+)\].*defaults shown", block, re.M)
    assert sorted(shown) == sorted(_RECORDS)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    checked = 0
    for name in shown:
        defaults = _defaults(name)
        section = config._Section(name, dict(parser[name]))
        for key in parser[name]:
            kind, default = defaults[key]
            assert section.get(key, kind) == default, (name, key)
            checked += 1
    only = re.search(r"^; accepted at their only value: (.*)$", block, re.M)
    defaults = _defaults("quantum")
    for key, value in re.findall(r"(\w+) = ([\d.]+)", only.group(1)):
        assert float(value) == defaults[key][1], key
        checked += 1
    assert checked == 19


@pytest.mark.parametrize("line", [
    line for block in _blocks("sh") for line in block.splitlines()
    if line.startswith("qkdcoex ")])
def test_sh_command_lines_parse(line):
    args = cli._parse_args(shlex.split(line)[1:])
    assert args.command == shlex.split(line)[1]
