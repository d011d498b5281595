"""Golden pin: fixed tiny runs whose outputs must not change.

Each ``tests/golden/<name>.ini`` is trained with ``pastarl train`` and its
final checkpoint is rolled out with ``pastarl evaluate``, both through
``cli.main``.  The outputs are compared with the files committed in
``tests/golden/<name>/``:

- ``metrics.csv`` and ``eval.csv``, as written by ``pastarl train``;
- ``checkpoints.sha256``: the sha256 of every checkpoint file the run writes,
  ``checkpoint_final.json`` included;
- ``checkpoint_final.csv``: per network and vector of the final checkpoint,
  its size, sum of absolute values and sum of squares;
- ``evaluate.txt``: what ``pastarl evaluate --episodes 3 --seed 5`` prints.

Two more pins hold the tables of ``pastarl compare`` and ``pastarl toybench``:

- ``compare/``: ``summary.csv``, ``per_preference.csv`` and the printed table
  of a compare over a 16-run stub sweep (pasta, linear, tch and a tagged
  ``pasta[lr=0.01]``, two preferences, two seeds, evaluated every iteration);
- ``toybench/``: ``toybench.csv`` and the printed hit lines of a small
  ``pastarl toybench`` run.

Printed paths read ``OUT`` for the temporary output directory.

``tests/golden/platform.json`` records the numpy version and BLAS build the
files were made with.  On a matching platform every file must match byte for
byte.  Elsewhere the last bits of floating-point results may differ, so every
CSV cell and every number ``evaluate`` prints is compared with rtol 1e-9
instead; the checkpoint digests cannot be compared with a tolerance, and the
checkpoint fingerprint stands in for them.

The files change only when behaviour changes on purpose; say why in
CHANGES.md.  Regenerate all of them from the repository root with:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import functools
import hashlib
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from pastarl.cli import main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = sorted(p.stem for p in GOLDEN.glob("*.ini"))
EVALUATE_ARGS = ("--episodes", "3", "--seed", "5")
RTOL = 1e-9
SWEEP_INI = """
[environment]
name = stub
episode_cap = 8

[ppo]
horizon = 32
epochs = 1
minibatch = 16
total_iterations = 2
hidden = 8

[output]
eval_every = 1
eval_episodes = 1
"""
SWEEPS = {
    "algorithms": ("--axis", "algorithm.name=pasta,linear,tch"),
    "tagged": ("--override", "algorithm.name=pasta", "--override", "ppo.lr=0.01"),
}
PREFERENCES_AND_SEEDS = ("--axis", "preference=0.3,0.7;0.7,0.3", "--axis", "seed=0,1")
TOYBENCH_ARGS = ("--n-prefs", "8", "--steps", "300", "--resolution", "120")


def platform_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} {blas.get('openblas configuration', '')}".strip(),
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fingerprint(checkpoint: Path) -> str:
    payload = json.loads(checkpoint.read_text())
    arrays = {name: entry["flat"] for name, entry in payload["networks"].items()}
    arrays.update(payload["vectors"])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["name", "size", "sum_abs", "sum_sq"])
    for name in sorted(arrays):
        a = np.array(arrays[name], dtype=np.float64)
        writer.writerow([name, a.size, repr(float(np.abs(a).sum())), repr(float(a @ a))])
    return out.getvalue()


def _printed(argv: list, out: Path) -> str:
    """What ``cli.main(argv)`` prints, with ``out`` written as ``OUT``."""
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main([str(a) for a in argv]) == 0
    return printed.getvalue().replace(str(out), "OUT")


def produce(name: str, run_dir: Path) -> dict:
    """Train and evaluate one golden config; returns {file name: text}."""
    assert main(["train", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(run_dir)]) == 0
    printed = _printed(["evaluate", "--run", run_dir, *EVALUATE_ARGS], run_dir)
    checkpoints = sorted(run_dir.glob("checkpoint_*.json"))
    return {
        "metrics.csv": (run_dir / "metrics.csv").read_text(),
        "eval.csv": (run_dir / "eval.csv").read_text(),
        "checkpoints.sha256": "".join(f"{_sha256(p)}  {p.name}\n" for p in checkpoints),
        "checkpoint_final.csv": _fingerprint(run_dir / "checkpoint_final.json"),
        "evaluate.txt": printed,
    }


def produce_compare(out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.ini").write_text(SWEEP_INI)
    for name, args in SWEEPS.items():
        _printed(["sweep", "--config", out / "sweep.ini", "--out", out / name, *args, *PREFERENCES_AND_SEEDS], out)
    runs = sorted(run for name in SWEEPS for run in (out / name).iterdir() if run.is_dir())
    printed = _printed(["compare", *runs, "--out", out / "tables"], out)
    return {
        "summary.csv": (out / "tables" / "summary.csv").read_text(),
        "per_preference.csv": (out / "tables" / "per_preference.csv").read_text(),
        "compare.txt": printed,
    }


def produce_toybench(out: Path) -> dict:
    printed = _printed(["toybench", "--out", out, *TOYBENCH_ARGS], out)
    return {"toybench.csv": (out / "toybench.csv").read_text(), "toybench.txt": printed}


TABLES = {"compare": produce_compare, "toybench": produce_toybench}


def _assert_close_cells(a: list, b: list, where: str) -> None:
    assert len(a) == len(b), f"{where}: {len(a)} cells, expected {len(b)}"
    for j, (got, want) in enumerate(zip(a, b)):
        try:
            g, w = float(got), float(want)
        except ValueError:
            assert got == want, f"{where} cell {j}: {got!r} != {want!r}"
            continue
        if math.isnan(w):
            assert math.isnan(g), f"{where} cell {j}: {got} != nan"
        else:
            assert math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), f"{where} cell {j}: {got} != {want}"


def _assert_close(name: str, got: str, want: str) -> None:
    if name.endswith(".csv"):
        rows_got = list(csv.reader(io.StringIO(got)))
        rows_want = list(csv.reader(io.StringIO(want)))
    else:  # printed text, compared token by token
        rows_got = [line.split() for line in got.splitlines()]
        rows_want = [line.split() for line in want.splitlines()]
    assert len(rows_got) == len(rows_want), f"{name}: {len(rows_got)} rows, expected {len(rows_want)}"
    for i, (a, b) in enumerate(zip(rows_got, rows_want)):
        _assert_close_cells(a, b, f"{name} row {i}")


def _assert_matches(name: str, produced: dict) -> None:
    same_platform = platform_info() == json.loads((GOLDEN / "platform.json").read_text())
    for file_name, got in produced.items():
        want = (GOLDEN / name / file_name).read_text()
        if same_platform:
            assert got == want, f"{name}/{file_name} differs from the golden file"
        elif file_name != "checkpoints.sha256":
            _assert_close(f"{name}/{file_name}", got, want)


@pytest.mark.parametrize("name", CONFIGS)
def test_golden_run_matches(name, tmp_path):
    _assert_matches(name, produce(name, tmp_path / name))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_golden_tables_match(name, tmp_path):
    _assert_matches(name, TABLES[name](tmp_path / name))


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: functools.partial(produce, name) for name in CONFIGS} | TABLES
        for name, make in pins.items():
            out = GOLDEN / name
            out.mkdir(exist_ok=True)
            for file_name, text in make(Path(tmp) / name).items():
                (out / file_name).write_text(text)
    (GOLDEN / "platform.json").write_text(json.dumps(platform_info(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
