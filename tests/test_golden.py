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
CSV_FILES = ("metrics.csv", "eval.csv", "checkpoint_final.csv")
EVALUATE_ARGS = ("--episodes", "3", "--seed", "5")
RTOL = 1e-9


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


def produce(name: str, run_dir: Path) -> dict:
    """Train and evaluate one golden config; returns {file name: text}."""
    assert main(["train", "--config", str(GOLDEN / f"{name}.ini"), "--out", str(run_dir)]) == 0
    printed = io.StringIO()
    with redirect_stdout(printed):
        assert main(["evaluate", "--run", str(run_dir), *EVALUATE_ARGS]) == 0
    checkpoints = sorted(run_dir.glob("checkpoint_*.json"))
    return {
        "metrics.csv": (run_dir / "metrics.csv").read_text(),
        "eval.csv": (run_dir / "eval.csv").read_text(),
        "checkpoints.sha256": "".join(f"{_sha256(p)}  {p.name}\n" for p in checkpoints),
        "checkpoint_final.csv": _fingerprint(run_dir / "checkpoint_final.json"),
        "evaluate.txt": printed.getvalue(),
    }


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
    if name in CSV_FILES:
        rows_got = list(csv.reader(io.StringIO(got)))
        rows_want = list(csv.reader(io.StringIO(want)))
    else:  # evaluate.txt: "<label> <value>" per line
        rows_got = [line.split() for line in got.splitlines()]
        rows_want = [line.split() for line in want.splitlines()]
    assert len(rows_got) == len(rows_want), f"{name}: {len(rows_got)} rows, expected {len(rows_want)}"
    for i, (a, b) in enumerate(zip(rows_got, rows_want)):
        _assert_close_cells(a, b, f"{name} row {i}")


@pytest.mark.parametrize("name", CONFIGS)
def test_golden_run_matches(name, tmp_path):
    produced = produce(name, tmp_path / name)
    same_platform = platform_info() == json.loads((GOLDEN / "platform.json").read_text())
    for file_name, got in produced.items():
        want = (GOLDEN / name / file_name).read_text()
        if same_platform:
            assert got == want, f"{name}/{file_name} differs from the golden file"
        elif file_name != "checkpoints.sha256":
            _assert_close(f"{name}/{file_name}", got, want)


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            out = GOLDEN / name
            out.mkdir(exist_ok=True)
            for file_name, text in produce(name, Path(tmp) / name).items():
                (out / file_name).write_text(text)
    (GOLDEN / "platform.json").write_text(json.dumps(platform_info(), indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
