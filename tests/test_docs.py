"""The README and the example configs agree with the config and output-column
declarations."""

import re
from pathlib import Path

import pytest

from pastarl import config as cfgmod
from pastarl.cli import MethodSummary, PreferenceSummary, ToybenchRecord, _layout, _parse_axis
from pastarl.scalarize import ALGORITHMS
from pastarl.trainer import EvalRecord, IterationReport

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCS = [README, *sorted((ROOT / "examples").glob("*.ini"))]


def _ini(value) -> str:
    """A value as it is written in a config file."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def _range_cell(valid) -> str:
    if valid is None:
        return "-"
    if isinstance(valid, tuple):
        return ", ".join(f"`{_ini(choice)}`" for choice in valid)
    return f"`{valid}`"


def _read_by_cell(read_by) -> str:
    """``all``, or the algorithms that read_by's first condition names, then,
    for each further condition, the settings of those algorithms that fail it."""
    if read_by is None:
        return "all"
    readers = read_by[0]["algorithm"]
    cell = ", ".join(readers)
    for cond in read_by[1:]:
        algorithms = [name for name in readers if name not in cond.get("algorithm", ())]
        settings = " and ".join(
            f"{cfgmod._knob_id(cfgmod.KNOB_FIELDS[name])} = "
            + " or ".join(_ini(v) for v in cfgmod.KNOB_FIELDS[name].metadata["valid"] if v not in values)
            for name, values in cond.items()
            if name != "algorithm"
        )
        if len(algorithms) < len(readers):
            settings = f"{', '.join(algorithms)} with {settings}"
        cell += f", except {settings}"
    return cell


def render_config_table() -> str:
    """The README configuration table, one row per declared knob."""
    lines = ["| Section | Key | Default | Range | Read by | Meaning |", "|---|---|---|---|---|---|"]
    for f in cfgmod.KNOBS:
        meta = f.metadata
        lines.append(
            f"| {meta['section']} | {meta['key']} | {_ini(f.default)} "
            f"| {_range_cell(meta['valid'])} | {_read_by_cell(meta['read_by'])} | {meta['doc']} |"
        )
        if f.name == "env_name":
            keys = ", ".join(cfgmod.ENV_PARAM_KEYS)
            lines.append(
                f"| environment | {keys} | env-specific | checked by the environment | all "
                "| the environment constructors' keyword parameters, forwarded only when set |"
            )
    return "\n".join(lines) + "\n"


def readme_config_table() -> str:
    text = README.read_text()
    section = text[text.index("## Configuration reference"):]
    table = re.search(r"^\|.*?\n(?!\|)", section, flags=re.M | re.S)
    return table[0] if table else ""


def test_readme_config_table_matches_the_declarations():
    rendered = render_config_table()
    assert readme_config_table() == rendered, (
        "README configuration table is out of date; regenerated:\n\n" + rendered
    )


def render_algorithm_table() -> str:
    """The README algorithm table, one row per entry of ALGORITHMS."""
    lines = ["| Algorithm | mu | Coefficients c | Clip | Projects |", "|---|---|---|---|---|"]
    for name, row in ALGORITHMS.items():
        mu = f"`{row.mu}`" if row.mu else "-"
        projects = "yes" if row.projects else "no"
        lines.append(f"| {name} | {mu} | `{row.rule}` | `{row.clip}` | {projects} |")
    return "\n".join(lines) + "\n"


def test_readme_algorithm_table_matches_the_declarations():
    text = README.read_text()
    table = re.search(r"^\|.*?\n(?!\|)", text[text.index("## Algorithms"):], flags=re.M | re.S)
    rendered = render_algorithm_table()
    assert table and table[0] == rendered, "README algorithm table is out of date; regenerated:\n\n" + rendered


def readme_minimal_config() -> str:
    text = README.read_text()
    start = text.index("A minimal `cfg.ini`")
    return re.search(r"```ini\n(.*?)```", text[start:], flags=re.S)[1]


@pytest.mark.parametrize(
    "name", [p.name for p in sorted((ROOT / "examples").glob("*.ini"))] + ["README cfg.ini"]
)
def test_example_config_is_valid(name, tmp_path):
    if name == "README cfg.ini":
        path = tmp_path / "cfg.ini"
        path.write_text(readme_minimal_config())
    else:
        path = ROOT / "examples" / name
    cfgmod.build_train_config(cfgmod.load_config(path))


def documented_axes() -> list:
    return [(path.name, spec) for path in DOCS for spec in re.findall(r"--axis[ =](\S+)", path.read_text())]


@pytest.mark.parametrize("where, spec", documented_axes())
def test_documented_sweep_axis_resolves(where, spec):
    _parse_axis(spec)


def render_columns(record_type) -> str:
    """A record's CSV columns as the README lists them, ``name_i...`` for a
    per-objective field."""
    return ", ".join(stem + ("_i..." if kind is tuple else "") for _, stem, kind in _layout(record_type))


@pytest.mark.parametrize(
    "file_name, record_type",
    [
        ("metrics.csv", IterationReport),
        ("eval.csv", EvalRecord),
        ("summary.csv", MethodSummary),
        ("per_preference.csv", PreferenceSummary),
        ("toybench.csv", ToybenchRecord),
    ],
)
def test_readme_output_columns_match_the_declarations(file_name, record_type):
    text = README.read_text()
    section = text[text.index("Writes to the output directory"):]
    listed = re.search(rf"^- `{re.escape(file_name)}` - [^:]*: `([^`]*)`", section, flags=re.M)
    assert listed, f"README lists no columns for {file_name}"
    assert " ".join(listed[1].split()) == render_columns(record_type)
