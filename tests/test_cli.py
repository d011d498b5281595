import csv
import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import pastarl
from pastarl import config as configlib
from pastarl.cli import _parse_axis, main
from pastarl.envs import ENV_CLASSES
from pastarl.trainer import EvalRecord, IterationReport


TINY_INI = """
[environment]
name = stub
episode_cap = 8

[algorithm]
name = pasta

[ppo]
horizon = 64
epochs = 2
minibatch = 32
total_iterations = 3
seed = 7
hidden = 16

[output]
eval_every = 2
eval_episodes = 2
"""


@pytest.fixture
def tiny_ini(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text(TINY_INI)
    return p


def declared_columns(record_type, m: int) -> list:
    """Each field of a record is a column named by its field or its metadata's
    ``column`` stem; a tuple field is one column per objective."""
    types = typing.get_type_hints(record_type)
    columns = []
    for f in dataclasses.fields(record_type):
        stem = f.metadata.get("column", f.name)
        columns += [f"{stem}_{i}" for i in range(m)] if types[f.name] is tuple else [stem]
    return columns


def train(tiny_ini, out, extra=()):
    rc = main(["train", "--config", str(tiny_ini), "--out", str(out), *extra])
    assert rc == 0
    return out


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestTrain:
    def test_writes_expected_artifacts(self, tiny_ini, tmp_path):
        out = train(tiny_ini, tmp_path / "run")
        for name in ("manifest.json", "metrics.csv", "eval.csv", "checkpoint_final.json"):
            assert (out / name).exists(), name

    def test_metrics_csv_schema(self, tiny_ini, tmp_path):
        out = train(tiny_ini, tmp_path / "run")
        rows = read_csv(out / "metrics.csv")
        header, body = rows[0], rows[1:]
        assert header[:6] == ["iteration", "kappa", "mu", "mu_base", "beta", "lift"]
        assert "return_0" in header and "return_1" in header
        assert len(body) == 3
        assert [r[0] for r in body] == ["1", "2", "3"]
        # fixed-width float formatting
        assert "." in body[0][2] and len(body[0][2].split(".")[1]) == 10

    @pytest.mark.parametrize(
        "env, preference",
        [("stub", "0.5, 0.5"), ("frogger", "0.2, 0.3, 0.5"), ("formation", "0.25, 0.25, 0.25, 0.25")],
        ids=["stub", "frogger", "formation"],
    )
    def test_csv_columns_are_the_record_fields(self, tiny_ini, tmp_path, env, preference):
        ini = tmp_path / f"{env}.ini"
        ini.write_text(tiny_ini.read_text().replace("name = stub", f"name = {env}").replace(
            "[algorithm]", f"[algorithm]\npreference = {preference}"))
        out = train(ini, tmp_path / env)
        m = len(preference.split(","))
        for name, record_type in (("metrics.csv", IterationReport), ("eval.csv", EvalRecord)):
            rows = read_csv(out / name)
            assert rows[0] == declared_columns(record_type, m), name
            assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), name

    def test_eval_csv_has_initial_row(self, tiny_ini, tmp_path):
        out = train(tiny_ini, tmp_path / "run")
        rows = read_csv(out / "eval.csv")
        assert rows[0][0] == "iteration"
        assert [r[0] for r in rows[1:]] == ["0", "2", "3"]

    def test_reruns_are_byte_identical(self, tiny_ini, tmp_path):
        a = train(tiny_ini, tmp_path / "a")
        b = train(tiny_ini, tmp_path / "b")
        for name in ("metrics.csv", "eval.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_reproduces_run_bytes(self, tiny_ini, tmp_path):
        a = train(tiny_ini, tmp_path / "a")
        rc = main(["train", "--manifest", str(a / "manifest.json"), "--out", str(tmp_path / "c")])
        assert rc == 0
        assert (a / "metrics.csv").read_bytes() == (tmp_path / "c" / "metrics.csv").read_bytes()
        # A manifest written before algorithm.tch_per_minibatch,
        # algorithm.weighted_pcgrad and ppo.c1 were removed still reruns.
        old = json.loads((a / "manifest.json").read_text())
        old["config"]["algorithm"]["tch_per_minibatch"] = False
        old["config"]["algorithm"]["weighted_pcgrad"] = False
        old["config"]["ppo"]["c1"] = 0.5
        (tmp_path / "old.json").write_text(json.dumps(old))
        rc = main(["train", "--manifest", str(tmp_path / "old.json"), "--out", str(tmp_path / "d")])
        assert rc == 0
        for name in ("metrics.csv", "eval.csv"):
            assert (a / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
        rerun = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert not {"tch_per_minibatch", "weighted_pcgrad"} & set(rerun["config"]["algorithm"])
        assert "c1" not in rerun["config"]["ppo"]

    def test_seed_flag_changes_results(self, tiny_ini, tmp_path):
        a = train(tiny_ini, tmp_path / "a")
        b = train(tiny_ini, tmp_path / "b", extra=["--seed", "123"])
        assert (a / "metrics.csv").read_bytes() != (b / "metrics.csv").read_bytes()
        assert json.loads((b / "manifest.json").read_text())["seed"] == 123

    def test_periodic_checkpoints(self, tiny_ini, tmp_path):
        out = train(tiny_ini, tmp_path / "run", extra=["--override", "output.checkpoint_every=2"])
        assert (out / "checkpoint_iter00002.json").exists()

    def test_a_checkpoint_after_the_last_iteration_is_only_the_final_one(self, tiny_ini, tmp_path):
        out = train(tiny_ini, tmp_path / "run", extra=["--override", "output.checkpoint_every=3"])
        assert [p.name for p in out.glob("checkpoint_*.json")] == ["checkpoint_final.json"]

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "x")]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ini"
        p.write_text("[ppo]\nlearning_rate = 0.001\n")
        assert main(["train", "--config", str(p), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "learning_rate" in err and "lr" in err

    def test_zero_eval_counts_are_usage_errors(self, tiny_ini, tmp_path, capsys):
        for key in ("eval_every", "eval_episodes"):
            rc = main([
                "train", "--config", str(tiny_ini), "--out", str(tmp_path / key),
                "--override", f"output.{key}=0",
            ])
            assert rc == 2
            assert key in capsys.readouterr().err

    # Each first array needs 2^58 to 2^59 bytes: more than any address space
    # maps, so the request fails at once, and under numpy's 2^63-byte ValueError.
    @pytest.mark.parametrize(
        "override", [f"ppo.hidden={2**28}", f"ppo.horizon={2**53}", f"output.eval_episodes={2**55}"]
    )
    def test_a_size_that_cannot_be_allocated_is_usage_error(self, tiny_ini, tmp_path, capsys, override):
        argv = ["train", "--config", str(tiny_ini), "--out", str(tmp_path / "x")]
        assert main([*argv, "--override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate")
        assert err.endswith("lower ppo.hidden, ppo.horizon or output.eval_episodes (evaluate: --episodes)\n")

    @pytest.mark.parametrize(
        "override",
        ["ppo.gamma=1.5", "ppo.lambda_gae=2.0", "ppo.lr=-1", "ppo.hidden=0", "ppo.hidden=-4",
         "ppo.c2=nan", "ppo.c2=-0.5", "ppo.seed=-1",
         "controller.zeta=nan", "algorithm.name=stch_fixed algorithm.fixed_mu=nan",
         "algorithm.preference=nan,nan", "controller.rho=0", "controller.rho=nan",
         "output.checkpoint_every=-1", "controller.mu_start=0.01", "controller.mu_max=0.01"],
    )
    def test_out_of_range_ppo_value_is_usage_error(self, tiny_ini, tmp_path, capsys, override):
        # Space-separated overrides apply in order; the last one is the bad value.
        argv = ["train", "--config", str(tiny_ini), "--out", str(tmp_path / "x")]
        for item in override.split():
            argv += ["--override", item]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert override.split()[-1].split("=")[0] in err
        if override.startswith("controller.mu_"):  # the ordering names the knob it constrains
            assert "controller.mu_start" in err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "environment.n_targets=-2",
            "environment.n_circles=-1",
            "environment.n_rects=-1",
            "environment.episode_cap=0",
            "environment.scan_range=0",
            "environment.safe_frac=0",
            "environment.safe_frac=1.5",
        ],
    )
    def test_bad_stealth_parameter_is_usage_error(self, tiny_ini, tmp_path, capsys, override):
        rc = main([
            "train", "--config", str(tiny_ini), "--out", str(tmp_path / "x"),
            "--override", "environment.name=stealth", "--override", override,
        ])
        assert rc == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    @pytest.mark.parametrize("env", ["stub", "formation", "frogger"])
    @pytest.mark.parametrize("cap", [0, -3])
    def test_nonpositive_episode_cap_is_usage_error(self, tiny_ini, tmp_path, capsys, env, cap):
        rc = main([
            "train", "--config", str(tiny_ini), "--out", str(tmp_path / "x"),
            "--override", f"environment.name={env}", "--override", f"environment.episode_cap={cap}",
        ])
        assert rc == 2
        assert "environment.episode_cap" in capsys.readouterr().err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_bad_preference_is_usage_error(self, tiny_ini, tmp_path):
        rc = main([
            "train", "--config", str(tiny_ini), "--out", str(tmp_path / "x"),
            "--override", "algorithm.preference=-0.5,1.5",
        ])
        assert rc == 2


class TestDivergence:
    def test_divergence_prints_its_message_alone(self, tiny_ini, tmp_path):
        """A fresh interpreter, with numpy's default warnings: the run's
        overflows raise no RuntimeWarning, so stderr holds only the line
        that names where the run diverged."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(pastarl.__file__).parents[1]), env.get("PYTHONPATH", "")])
        argv = ["train", "--config", str(tiny_ini), "--out", str(tmp_path / "run"), "--override", "ppo.lr=1e300"]
        proc = subprocess.run(
            [sys.executable, "-m", "pastarl.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("divergence: critic update at iteration 1, "), proc.stderr


class TestEvaluate:
    def test_prints_per_objective_returns(self, tiny_ini, tmp_path, capsys):
        out = train(tiny_ini, tmp_path / "run")
        rc = main(["evaluate", "--run", str(out), "--episodes", "2"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "return_0" in text and "return_1" in text
        assert "expected_utility" in text

    def test_is_deterministic(self, tiny_ini, tmp_path, capsys):
        out = train(tiny_ini, tmp_path / "run")
        capsys.readouterr()  # drop training output
        main(["evaluate", "--run", str(out), "--episodes", "2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["evaluate", "--run", str(out), "--episodes", "2", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_missing_checkpoint_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["evaluate", "--run", str(tmp_path / "empty")]) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_zero_episodes_is_usage_error(self, tiny_ini, tmp_path, capsys):
        out = train(tiny_ini, tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--run", str(out), "--episodes", "0"]) == 2
        captured = capsys.readouterr()
        assert "--episodes" in captured.err and captured.out == ""

    def test_negative_seed_is_usage_error(self, tiny_ini, tmp_path, capsys):
        out = train(tiny_ini, tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--run", str(out), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda p: {**p, "format_version": 2}, id="format_version"),
            pytest.param(
                lambda p: {**p, "networks": {
                    **p["networks"],
                    "actor_mean_head": {
                        **p["networks"]["actor_mean_head"],
                        "flat": p["networks"]["actor_mean_head"]["flat"][:-1],
                    },
                }},
                id="flat_one_short",
            ),
            pytest.param(
                lambda p: {**p, "networks": {
                    k: v for k, v in p["networks"].items() if k != "actor_backbone"
                }},
                id="missing_network",
            ),
            pytest.param(
                lambda p: {**p, "networks": {
                    **p["networks"],
                    "actor_backbone": {
                        **p["networks"]["actor_backbone"],
                        "flat": [float("nan"), *p["networks"]["actor_backbone"]["flat"][1:]],
                    },
                }},
                id="non_finite_flat",
            ),
            pytest.param(None, id="truncated_json"),
            pytest.param(
                lambda p: {**p, "networks": {
                    **p["networks"],
                    "actor_mean_head": {**p["networks"]["actor_mean_head"], "activations": ["identity"]},
                }},
                id="mean_head_not_sigmoid",
            ),
            pytest.param(
                lambda p: {**p, "metadata": {**p["metadata"], "preference": [0.2, 0.3, 0.5]}},
                id="preference_of_three",
            ),
            pytest.param(
                lambda p: {**p, "metadata": {**p["metadata"], "environment": "frogger"}},
                id="other_environment",
            ),
            pytest.param(  # the preference fits frogger; the actor's inputs do not
                lambda p: {**p, "metadata": {
                    **p["metadata"], "environment": "frogger", "preference": [0.4, 0.3, 0.3],
                }},
                id="other_environment_and_preference",
            ),
        ],
    )
    def test_malformed_checkpoint_is_usage_error(self, corrupt, tiny_ini, tmp_path, capsys):
        out = train(tiny_ini, tmp_path / "run")
        ckpt = out / "checkpoint_final.json"
        text = ckpt.read_text()
        ckpt.write_text(text[: len(text) // 2] if corrupt is None else json.dumps(corrupt(json.loads(text))))
        capsys.readouterr()
        assert main(["evaluate", "--run", str(out)]) == 2
        assert str(ckpt) in capsys.readouterr().err


def first_difference(a: dict, b: dict) -> str:
    """The first file, by name, whose bytes differ between two {name: bytes}
    maps, and its first differing line."""
    for name in sorted(a.keys() | b.keys()):
        if a.get(name) == b.get(name):
            continue
        if name not in a or name not in b:
            return f"{name} is written by one side only"
        first, second = a[name].splitlines(), b[name].splitlines()
        i = next((i for i, (x, y) in enumerate(zip(first, second)) if x != y), min(len(first), len(second)))
        x, y = (lines[i] if i < len(lines) else b"(end of file)" for lines in (first, second))
        return f"{name} first differs at line {i + 1}: {x!r} against {y!r}"
    return "no file differs"


def describe_processes(pids) -> str:
    """Each process's state letter and command line, from /proc."""
    lines = []
    for pid in sorted(pids):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError as e:
            state, cmdline = "?", f"unreadable: {e}"
        lines.append(f"child {pid}: state {state}, command line {cmdline.strip()!r}")
    return "; ".join(lines)


class TestSweep:
    def test_seed_axis_expands_runs(self, tiny_ini, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", "seed=0,1"])
        assert rc == 0
        doc = json.loads((out / "sweep_manifest.json").read_text())
        assert len(doc["runs"]) == 2
        for rec in doc["runs"]:
            run_dir = Path(rec)
            assert (run_dir / "metrics.csv").exists()
            assert (run_dir / "manifest.json").exists()

    def test_pool_workers_write_the_same_bytes_as_one_process(self, tiny_ini, tmp_path, child_pids):
        """Pool processes run the critic inline; this process may fork a
        critic worker.  The outputs are the same bytes either way."""
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            argv = ["sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", "seed=0,1"]
            assert main(argv + ["--workers", workers]) == 0
            outputs.append({
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file() and p.name not in ("manifest.json", "sweep_manifest.json")
            })
        assert len(outputs[0]) == 2 * 3  # metrics.csv, eval.csv, final checkpoint per run
        assert outputs[0] == outputs[1], first_difference(*outputs)
        left = child_pids()
        assert not left, describe_processes(left)

    def test_cartesian_product_of_axes(self, tiny_ini, tmp_path):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(out),
            "--axis", "seed=0,1", "--axis", "rho=0.1,0.2",
        ])
        assert rc == 0
        doc = json.loads((out / "sweep_manifest.json").read_text())
        assert len(doc["runs"]) == 4
        assert len(set(doc["runs"])) == 4
        assert doc["axes"][0]["name"] == "seed"

    def test_mu_grid_keyword(self, tiny_ini, tmp_path):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(out),
            "--override", "algorithm.name=stch_fixed",
            "--axis", "fixed_mu=0.1,1.0",
        ])
        assert rc == 0
        doc = json.loads((out / "sweep_manifest.json").read_text())
        mus = sorted(
            json.loads((Path(rec) / "manifest.json").read_text())["config"]["algorithm"]["fixed_mu"]
            for rec in doc["runs"]
        )
        assert mus == [0.1, 1.0]

    def test_every_combination_is_checked_before_the_first_run(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", "rho=0.1,1.5",
        ])
        assert rc == 2
        assert "controller.rho" in capsys.readouterr().err
        assert not (out / "rho_0.1").exists() and not (out / "rho_1.5").exists()

    def test_controller_ordering_is_checked_before_the_first_run(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(out),
            "--override", "controller.mu_start=0.01", "--axis", "seed=0,1",
        ])
        assert rc == 2
        assert "controller.mu_start" in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_axis_value_is_usage_error(self, tiny_ini, tmp_path, capsys):
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(tmp_path / "sw"), "--axis", "seed=0,x",
        ])
        assert rc == 2
        assert "ppo.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, tiny_ini, tmp_path, capsys, workers):
        out = tmp_path / "sw"
        rc = main([
            "sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", "seed=0,1",
            "--workers", workers,
        ])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis_is_usage_error(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "sw"
        for axis, message in [
            ("velocity=1,2", "unknown knob 'velocity'"),
            ("name=pasta,linear", "environment.name or algorithm.name"),
            ("output.dir=a,b", "output.dir"),
        ]:
            rc = main(["sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", axis])
            assert rc == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--axis", "environment.episode_cap=16,0"], "environment.episode_cap"),
            (["--override", "environment.name=stealth", "--override", "environment.scan_range=0",
              "--axis", "seed=0,1"], "environment.scan_range"),
            # stub has two objectives, frogger three
            (["--axis", "environment.name=stub,frogger"], "preference has 2 entries, expected 3"),
        ],
    )
    def test_environment_is_checked_before_the_first_run(self, tiny_ini, tmp_path, capsys, argv, message):
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(tiny_ini), "--out", str(out), *argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_knob_an_algorithm_does_not_read_is_refused_first(self, tiny_ini, tmp_path, capsys):
        out = tmp_path / "sw"
        argv = ["--axis", "algorithm.name=pasta,linear", "--axis", "algorithm.no_pcgrad=false,true"]
        assert main(["sweep", "--config", str(tiny_ini), "--out", str(out), *argv]) == 2
        assert "linear does not read algorithm.no_pcgrad" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axes", [["seed=0,1", "ppo.seed=2"], ["seed=0,0"], ["rho=0.1,0.10"]]
    )
    def test_runs_that_would_coincide_are_usage_error(self, tiny_ini, tmp_path, axes):
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(tiny_ini), "--out", str(out)]
        for axis in axes:
            argv += ["--axis", axis]
        assert main(argv) == 2
        assert not out.exists()


def declared_knobs():
    """(section, key, default) of every knob a sweep may vary: each TrainConfig
    knob but output.dir, and each environment key with its constructors' default."""
    for f in configlib.KNOBS:
        if f.name != "out_dir":
            yield f.metadata["section"], f.metadata["key"], f.default
    for key in configlib.ENV_PARAM_KEYS:
        default = next(
            p.default
            for cls in ENV_CLASSES.values()
            for p in inspect.signature(cls).parameters.values()
            if p.name == key
        )
        yield "environment", key, default


def ini(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


class TestAxis:
    @pytest.mark.parametrize(
        "section, key, default",
        [pytest.param(*knob, id=f"{knob[0]}.{knob[1]}") for knob in declared_knobs()],
    )
    def test_every_declared_knob_is_an_axis(self, section, key, default):
        names = [f"{section}.{key}"] + ([] if key == "name" else [key])
        for name in names:
            assert _parse_axis(f"{name}={ini(default)}") == (name, section, key, [default])

    def test_named_value_sets(self):
        assert _parse_axis("preference=default8")[3] == list(configlib.DEFAULT_PREFERENCES_M3)
        assert _parse_axis("algorithm.fixed_mu=grid")[3] == list(configlib.FIXED_MU_GRID)

    def test_tuple_values_are_separated_by_semicolons(self):
        assert _parse_axis("preference=0.2,0.8;0.5, 0.5")[3] == [(0.2, 0.8), (0.5, 0.5)]


def sweep(tiny_ini, out, *argv):
    assert main(["sweep", "--config", str(tiny_ini), "--out", str(out), *argv]) == 0
    return sorted(p for p in out.iterdir() if p.is_dir())


class TestCompare:
    @pytest.fixture
    def four_runs(self, tiny_ini, tmp_path):
        dirs = []
        for algo in ("pasta", "linear"):
            for seed in (0, 1):
                out = tmp_path / f"{algo}_s{seed}"
                train(
                    tiny_ini,
                    out,
                    extra=["--override", f"algorithm.name={algo}", "--seed", str(seed)],
                )
                dirs.append(out)
        return dirs

    def test_writes_summary_tables(self, four_runs, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["compare", *map(str, four_runs), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "summary.csv")
        header, body = rows[0], rows[1:]
        assert header == ["method", "expected_utility_mean", "expected_utility_std"]
        assert sorted(r[0] for r in body) == ["linear", "pasta"]
        per_pref = read_csv(out / "per_preference.csv")
        assert per_pref[0] == ["method", "pref_0", "pref_1", "eu_mean", "eu_std", "return_0", "return_1"]
        assert len(per_pref) == 3  # two methods, one preference each
        assert "eu_mean" in capsys.readouterr().out

    def test_scores_each_run_by_its_final_evaluation(self, four_runs, tmp_path):
        """Each cell is the mean over seeds of the runs' last eval.csv rows,
        even where every run's untrained iteration-0 row dominates them."""
        finals = {}  # method -> each seed's last (return_0, return_1, eu)
        for run in four_runs:
            for col in (1, 2, 3):
                replace_cell(run / "eval.csv", 1, col, "100.0000000000")
            last = [float(v) for v in read_csv(run / "eval.csv")[-1][1:]]
            finals.setdefault(run.name.split("_")[0], []).append(last)
        assert main(["compare", *map(str, four_runs), "--out", str(tmp_path / "cmp")]) == 0
        for method, _, _, eu_mean, eu_std, *returns in read_csv(tmp_path / "cmp" / "per_preference.csv")[1:]:
            runs = np.array(finals[method])
            got = np.array([*returns, eu_mean, eu_std], dtype=float)
            np.testing.assert_allclose(got, [*runs.mean(axis=0), runs[:, 2].std()], rtol=0, atol=1e-9)
        for method, eu_mean, eu_std in read_csv(tmp_path / "cmp" / "summary.csv")[1:]:
            eu = np.array(finals[method])[:, 2]
            np.testing.assert_allclose([float(eu_mean), float(eu_std)], [eu.mean(), eu.std()], rtol=0, atol=1e-9)

    def test_rejects_duplicate_runs(self, four_runs, tmp_path, capsys):
        copy = tmp_path / "copy"
        shutil.copytree(four_runs[0], copy)
        for original, duplicate in ((four_runs[0], copy), (four_runs[1], four_runs[1])):
            dirs = [*four_runs, duplicate]
            assert main(["compare", *map(str, dirs), "--out", str(tmp_path / "cmp")]) == 2
            assert f"{original} and {duplicate} are the same run" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, labels",
        [
            pytest.param(
                ["--axis", "rho=0.1,0.5"], ["pasta[rho=0.1]", "pasta[rho=0.5]"], id="rho"
            ),
            pytest.param(
                ["--override", "algorithm.name=tch", "--axis", "critic=branched_weighted,shared_weighted"],
                ["tch", "tch[critic=shared_weighted]"],
                id="tch_critic",
            ),
            pytest.param(
                ["--override", "algorithm.name=stch_fixed", "--axis", "fixed_mu=0.1,1"],
                ["stch_fixed", "stch_fixed[fixed_mu=0.1]"],
                id="fixed_mu",
            ),
            pytest.param(
                ["--override", "algorithm.name=stch_fixed", "--override", "algorithm.fixed_mu=0.1",
                 "--axis", "seed=0,1"],
                ["stch_fixed"],
                id="one_fixed_mu",
            ),
        ],
    )
    def test_runs_that_differ_in_a_knob_are_separate_methods(self, tiny_ini, tmp_path, argv, labels):
        runs = sweep(tiny_ini, tmp_path / "sw", *argv)
        assert main(["compare", *map(str, runs), "--out", str(tmp_path / "cmp")]) == 0
        assert [r[0] for r in read_csv(tmp_path / "cmp" / "summary.csv")[1:]] == labels

    def test_ablations_and_baselines_are_two_sweeps(self, tiny_ini, tmp_path):
        """pasta's ablations cross no knob that linear does not read."""
        seeds = ("--axis", "seed=0,1")
        ablations = sweep(tiny_ini, tmp_path / "ablations", "--axis", "no_pcgrad=false,true", *seeds)
        baselines = sweep(tiny_ini, tmp_path / "baselines", "--axis", "algorithm.name=linear", *seeds)
        assert main(["compare", *map(str, ablations + baselines), "--out", str(tmp_path / "cmp")]) == 0
        assert [r[0] for r in read_csv(tmp_path / "cmp" / "summary.csv")[1:]] == [
            "linear", "pasta", "pasta[no_pcgrad=true]",
        ]

    def test_rejects_a_knob_the_runs_algorithm_does_not_read(self, tiny_ini, tmp_path, capsys):
        run = train(tiny_ini, tmp_path / "run", extra=["--override", "algorithm.name=linear"])
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["config"]["algorithm"]["no_pcgrad"] = True  # as code that did not check it wrote
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["compare", str(run), "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert str(run / "manifest.json") in err and "linear does not read algorithm.no_pcgrad" in err
        assert not (tmp_path / "cmp").exists()

    def test_rejects_directory_without_manifest(self, tmp_path):
        (tmp_path / "junk").mkdir()
        assert main(["compare", str(tmp_path / "junk"), "--out", str(tmp_path / "cmp")]) == 2

    def test_rejects_mixed_environments(self, four_runs, tiny_ini, tmp_path):
        other = tmp_path / "frog"
        train(
            tiny_ini,
            other,
            extra=[
                "--override", "environment.name=frogger",
                "--override", "environment.episode_cap=16",
                "--override", "algorithm.preference=0.4,0.3,0.3",
            ],
        )
        rc = main(["compare", str(four_runs[0]), str(other), "--out", str(tmp_path / "cmp")])
        assert rc == 2


# Overrides that set a knob off its default where the configuration turns it
# off, or that set a removed choice, and what the refusal says.
TURNED_OFF = [
    pytest.param(["controller.mode=no_conflict", "controller.tau=0.3"],
                 "pasta with controller.mode = no_conflict does not read controller.tau", id="no_conflict-tau"),
    pytest.param(["controller.mode=no_conflict", "controller.mu_max=20"],
                 "pasta with controller.mode = no_conflict does not read controller.mu_max",
                 id="no_conflict-mu_max"),
    pytest.param(["controller.mode=no_conflict", "controller.lambda_ema=0.5"],
                 "pasta with controller.mode = no_conflict does not read controller.lambda_ema",
                 id="no_conflict-lambda_ema"),
    pytest.param(["algorithm.name=tch", "controller.rho=0.3"], "tch does not read controller.rho", id="tch-rho"),
    pytest.param(["algorithm.name=linear", "controller.rho=0.3"], "linear does not read controller.rho",
                 id="linear-rho"),
    pytest.param(["algorithm.name=linear", "controller.zeta=1.5"], "linear does not read controller.zeta",
                 id="linear-zeta"),
    pytest.param(["algorithm.name=stch_fixed", "algorithm.critic=shared_unweighted"],
                 "algorithm.critic = shared_unweighted was removed: every value loss is eta-weighted, "
                 "as shared_weighted weights it", id="removed_critic"),
    pytest.param(["algorithm.critic=branched_unweighted"],
                 "algorithm.critic = branched_unweighted was removed: every value loss is eta-weighted, "
                 "as branched_weighted weights it", id="removed_branched_critic"),
    pytest.param(["controller.mode=no_conflict_no_decay", "controller.mu_start=5"],
                 "controller.mode (controller_mode) = no_conflict_no_decay was removed: it held mu at "
                 "controller.mu_start, which is algorithm.name = stch_fixed with algorithm.fixed_mu = 5.0",
                 id="removed_mode"),
    pytest.param(["controller.mode=no_decay", "controller.mu_start=5"],
                 "controller.mode (controller_mode) = no_decay was removed: it did not anneal, and at "
                 "mu_start = mu_max it held mu at controller.mu_start, which is algorithm.name = stch_fixed "
                 "with algorithm.fixed_mu = 5.0", id="removed_no_decay"),
]


def as_overrides(settings) -> list:
    return [arg for setting in settings for arg in ("--override", setting)]


class TestTurnedOffKnobs:
    """A knob set off its default where the configuration turns it off, and
    a removed choice, exit 2 naming ``section.key`` from every source, and
    leave no file behind."""

    @pytest.mark.parametrize("settings, message", TURNED_OFF)
    def test_train(self, tiny_ini, tmp_path, capsys, settings, message):
        out = tmp_path / "out"
        assert main(["train", "--config", str(tiny_ini), "--out", str(out), *as_overrides(settings)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings, message", TURNED_OFF)
    def test_sweep(self, tiny_ini, tmp_path, capsys, settings, message):
        *fixed, axis = settings
        out = tmp_path / "sw"
        argv = ["sweep", "--config", str(tiny_ini), "--out", str(out), "--axis", "seed=0,1", "--axis", axis]
        assert main([*argv, *as_overrides(fixed)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("settings, message", TURNED_OFF)
    def test_manifest(self, tmp_path, capsys, settings, message):
        configlib.write_manifest(tmp_path, configlib.apply_overrides(configlib.default_config(), settings))
        out = tmp_path / "out"
        assert main(["train", "--manifest", str(tmp_path / "manifest.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "manifest.json") in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [("algorithm", "weighted_pcgrad", True,
          "algorithm.weighted_pcgrad = true was removed: the actor now always steps along m * eta"),
         ("ppo", "c1", 1.0,
          "ppo.c1 = 1 was removed: the critic's own Adam turned a value-loss scale into an epsilon scale")],
        ids=["weighted_pcgrad", "c1"],
    )
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_a_retired_key_off_the_value_that_runs_todays_method(
        self, tiny_ini, tmp_path, capsys, command, section, key, value, message
    ):
        run = train(tiny_ini, tmp_path / "run")
        path, out = run / "manifest.json", tmp_path / "out"
        edit_knob(path, section, key, value)
        argv = ["train", "--manifest", str(path)] if command == "train" else ["compare", str(run)]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("settings, message", TURNED_OFF)
    def test_compare(self, tiny_ini, tmp_path, capsys, settings, message):
        run = train(tiny_ini, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        configlib.apply_overrides(manifest["config"], settings)
        (run / "manifest.json").write_text(json.dumps(manifest))
        assert main(["compare", str(run), "--out", str(tmp_path / "cmp")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("mode", ["full", "no_conflict"])
    def test_every_mode_reads_mu_min_under_mu_start(self, tiny_ini, tmp_path, capsys, mode):
        out = tmp_path / "out"
        settings = [f"controller.mode={mode}", "controller.mu_start=0.01"]
        assert main(["train", "--config", str(tiny_ini), "--out", str(out), *as_overrides(settings)]) == 2
        assert "controller.mu_start must be at least controller.mu_min = 0.05, got 0.01" in capsys.readouterr().err
        assert not out.exists()

    def test_the_mu_ordering_compares_only_the_bounds_the_mode_reads(self, tiny_ini, tmp_path):
        # no_conflict does not read mu_max, so mu_start may exceed it.
        settings = ["controller.mode=no_conflict", "controller.mu_start=20"]
        train(tiny_ini, tmp_path / "run", extra=as_overrides(settings))


def replace_cell(path: Path, row: int, col: int, value: str) -> None:
    rows = read_csv(path)
    rows[row][col] = value
    path.write_text("".join(",".join(r) + "\n" for r in rows))


def with_knob(doc: dict, section: str, key: str, value) -> str:
    """The JSON of manifest doc with config[section][key] set to value."""
    return json.dumps({**doc, "config": {**doc["config"], section: {**doc["config"][section], key: value}}})


def edit_knob(path: Path, section: str, key: str, value) -> None:
    """Set config[section][key] of the manifest at path to value."""
    path.write_text(with_knob(json.loads(path.read_text()), section, key, value))


def add_return_column(path: Path) -> None:
    """Give every row of an m = 2 eval.csv a third return column."""
    rows = read_csv(path)
    rows = [[*r[:3], "return_2" if i == 0 else r[2], *r[3:]] for i, r in enumerate(rows)]
    path.write_text("".join(",".join(r) + "\n" for r in rows))


class TestUnreadableInput:
    """An input file that cannot be read exits 2 with a message naming it:
    never a traceback, and never a run of the default config."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_config_that_is_a_directory(self, tmp_path, capsys, command):
        (tmp_path / "configs").mkdir()
        argv = [command, "--config", str(tmp_path / "configs"), "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--axis", "seed=0,1"]
        assert main(argv) == 2
        assert str(tmp_path / "configs") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes(("# caf\u00e9\n" + TINY_INI).encode("latin-1"))
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "out")]) == 2
        assert str(ini) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mangle, detail",
        [
            (lambda doc: json.dumps(doc)[:-10], ""),
            (lambda doc: json.dumps({k: v for k, v in doc.items() if k != "config"}), ""),
            (lambda doc: with_knob(doc, "algorithm", "preference", 0.5), ""),
            (lambda doc: with_knob(doc, "ppo", "learning_rat", 0.1), "ppo.learning_rat"),
            (lambda doc: with_knob(doc, "ppo", "horizon", 32.5), "ppo.horizon"),
            (lambda doc: with_knob(doc, "ppo", "horizon", True), "ppo.horizon"),
            (lambda doc: with_knob(doc, "ppo", "epochs", 1.0), "ppo.epochs"),
            (lambda doc: with_knob(doc, "ppo", "seed", 1.5), "ppo.seed"),
            (lambda doc: with_knob(doc, "algorithm", "preference", ["a", "b"]), "algorithm.preference"),
            (lambda doc: with_knob(doc, "algorithm", "preference", [0.5, "0.5"]), "algorithm.preference"),
            (lambda doc: with_knob(json.loads(with_knob(doc, "environment", "name", "stealth")),
                                   "environment", "n_targets", 2.5), "environment.n_targets"),
            (lambda doc: with_knob(doc, "environment", "episode_cap", 40.5), "environment.episode_cap"),
            (lambda doc: with_knob(doc, "environment", "episode_cap", True), "environment.episode_cap"),
            (lambda doc: with_knob(doc, "environment", "scan_range", True), "environment.scan_range"),
        ],
        ids=["truncated_json", "no_config", "scalar_preference", "undeclared_key", "float_horizon",
             "bool_horizon", "float_epochs", "float_seed", "string_preference", "mixed_preference",
             "float_n_targets", "float_episode_cap", "bool_episode_cap", "bool_scan_range"],
    )
    def test_manifest_to_train_from(self, tmp_path, capsys, mangle, detail):
        manifest = configlib.write_manifest(tmp_path, configlib.default_config())
        path = tmp_path / "manifest.json"
        path.write_text(mangle(manifest))
        assert main(["train", "--manifest", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and detail in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, mangle, detail",
        [
            ("eval.csv", lambda path: path.unlink(), ""),
            ("eval.csv", lambda path: path.write_text(""), ""),
            ("eval.csv", lambda path: replace_cell(path, 1, 1, "abc"), ""),
            ("eval.csv", lambda path: replace_cell(path, 2, 1, "nan"), "line 3"),
            ("eval.csv", lambda path: path.write_text(path.read_text().rsplit(",", 1)[0] + "\n"), "line 4"),
            ("eval.csv", lambda path: replace_cell(path, 0, 1, "ret_0"), "columns of an eval.csv"),
            ("eval.csv", add_return_column, "columns of an eval.csv"),
            ("eval.csv", lambda path: path.write_text("".join(path.read_text().splitlines(True)[:-1])),
             "ends at iteration 2, not at the 3 iterations"),
            ("manifest.json", lambda path: path.write_text("{"), ""),
            ("manifest.json", lambda path: edit_knob(path, "algorithm", "preference", [0.4, 0.3, 0.3]), "3 entries"),
            ("manifest.json", lambda path: edit_knob(path, "algorithm", "preference", ["a", "b"]),
             "algorithm.preference"),
        ],
        ids=["missing_eval_csv", "empty_eval_csv", "non_numeric_eval_cell", "non_finite_eval_cell", "short_eval_row",
             "foreign_eval_header", "three_return_columns", "unfinished_run", "truncated_manifest",
             "three_weight_preference", "string_preference"],
    )
    def test_run_directory_to_compare(self, tiny_ini, tmp_path, capsys, name, mangle, detail):
        run = train(tiny_ini, tmp_path / "run")
        mangle(run / name)
        capsys.readouterr()
        assert main(["compare", str(run), "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert str(run / name) in err and detail in err
        assert not (tmp_path / "cmp").exists()

    def test_checkpoint_that_is_a_directory(self, tiny_ini, tmp_path, capsys):
        run = train(tiny_ini, tmp_path / "run")
        (run / "checkpoints").mkdir()
        capsys.readouterr()
        assert main(["evaluate", "--run", str(run), "--checkpoint", "checkpoints"]) == 2
        captured = capsys.readouterr()
        assert str(run / "checkpoints") in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["train", "sweep", "compare", "toybench"])
def test_out_that_is_a_file_is_usage_error(tiny_ini, tmp_path, capsys, command):
    """--out naming an existing file, or a path under one, exits 2 with a
    message naming it, and writes nothing."""
    argv = {
        "train": lambda: ["train", "--config", str(tiny_ini)],
        "sweep": lambda: ["sweep", "--config", str(tiny_ini), "--axis", "seed=0,1"],
        "compare": lambda: ["compare", str(train(tiny_ini, tmp_path / "run"))],
        "toybench": lambda: ["toybench", "--n-prefs", "2", "--steps", "1", "--resolution", "10"],
    }[command]()
    afile = tmp_path / "afile"
    afile.write_text("")
    before = sorted(tmp_path.rglob("*"))
    for out in (afile, afile / "sub"):
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""


class TestToybench:
    def test_writes_csv_and_reports_hits(self, tmp_path, capsys):
        out = tmp_path / "toy"
        rc = main([
            "toybench", "--out", str(out),
            "--n-prefs", "4", "--steps", "300", "--resolution", "120",
        ])
        assert rc == 0
        rows = read_csv(out / "toybench.csv")
        assert rows[0] == [
            "w_0", "w_1", "method", "f_0", "f_1", "oracle_f_0", "oracle_f_1", "distance",
        ]
        assert len(rows) == 1 + 3 * 4  # three scalarizers, four preferences
        text = capsys.readouterr().out
        for method in ("linear", "tch", "stch"):
            assert method in text

    @pytest.mark.parametrize("problem", ["concave", "convex"])
    def test_defaults_recover_the_oracle(self, tmp_path, capsys, problem):
        """At its defaults both linear (against the nearest endpoint on the
        concave front, the weighted-sum optimum on the convex one) and stch
        land within tol of their oracle on >= 45 of the 50 preferences."""
        out = tmp_path / "toy"
        assert main(["toybench", "--out", str(out), "--problem", problem]) == 0
        counts = {}
        for line in capsys.readouterr().out.splitlines():
            if " within " in line:
                method, hits = line.split(" ")[:2]
                counts[method.rstrip(":")] = tuple(int(v) for v in hits.split("/"))
        assert counts["linear"][0] >= 45 and counts["stch"][0] >= 45
        assert counts["linear"][1] == counts["stch"][1] == 50
        rows = read_csv(out / "toybench.csv")[1:]
        assert [row[2] for row in rows] == ["linear", "tch", "stch"] * 50
        w0 = [float(row[0]) for row in rows]
        assert w0[::3] == w0[1::3] == w0[2::3] == sorted(w0[::3])

    @pytest.mark.parametrize(
        "flag",
        ["--resolution=0", "--n-prefs=0", "--steps=-1", "--spread=nan", "--spread=0",
         "--lr=inf", "--mu=-0.05", "--tol=0", "--seed=-1"],
    )
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "toy"
        assert main(["toybench", "--out", str(out), flag]) == 2
        assert flag.split("=")[0] in capsys.readouterr().err
        assert not out.exists()
