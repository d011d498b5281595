"""Command-line harness: train, evaluate, compare, sweep, toybench.

Exit codes: 0 success, 2 config error, 3 numerical divergence.  All CSV
output uses a fixed decimal format so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from pastarl import config as configlib
from pastarl import toybench
from pastarl.envs import make_env
from pastarl.errors import ConfigError, DivergenceError
from pastarl.nn import load_checkpoint, save_checkpoint
from pastarl.policy import GaussianActor
from pastarl.scalarize import SCALARIZERS, preference_vector
from pastarl.trainer import Checkpoint, EvalRecord, IterationReport, Trainer, column, deterministic_returns


def _fmt(x) -> str:
    return f"{float(x):.10f}"


def _writer(f):
    return csv.writer(f, lineterminator="\n")


def _require(args, names, ok, rule: str) -> None:
    """ConfigError naming the first of these flags whose value fails ok."""
    for name in names:
        value = getattr(args, name)
        if not ok(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be {rule}, got {value!r}")


# -- train ------------------------------------------------------------------


@cache
def _layout(record_type) -> tuple:
    """(field name, column stem, declared type) of each field of a record."""
    types = typing.get_type_hints(record_type)
    return tuple((f.name, f.metadata.get("column", f.name), types[f.name]) for f in fields(record_type))


def _csv_header(record_type, m: int) -> list:
    """The CSV columns a record type declares: its fields in order, a tuple
    field as m columns stem_0 ... stem_{m-1}."""
    return [
        col
        for _, stem, kind in _layout(record_type)
        for col in ([f"{stem}_{i}" for i in range(m)] if kind is tuple else [stem])
    ]


def _csv_row(record) -> list:
    """A record's cells, in the order of ``_csv_header``: ints and strings as
    they are, floats in the fixed format."""
    row = []
    for name, _, kind in _layout(type(record)):
        value = getattr(record, name)
        row += [str(v) if kind in (int, str) else _fmt(v) for v in (value if kind is tuple else (value,))]
    return row


def _csv_record(record_type, m: int, row: list):
    """The record that ``_csv_row`` wrote as this row; ValueError if it cannot be."""
    if len(row) != len(_csv_header(record_type, m)):
        raise ValueError(f"{len(row)} cells, expected {len(_csv_header(record_type, m))}")
    cells = iter(row)
    return record_type(**{
        name: tuple(float(next(cells)) for _ in range(m)) if kind is tuple else kind(next(cells))
        for name, _, kind in _layout(record_type)
    })


def _write_table(path: Path, record_type, m: int, records) -> None:
    with open(path, "w") as f:
        w = _writer(f)
        w.writerow(_csv_header(record_type, m))
        w.writerows(_csv_row(r) for r in records)


def _out_dir(path) -> Path:
    """Create an output directory; ConfigError if a file is in the way, say."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return path


def save_trainer_checkpoint(trainer: Trainer, path) -> None:
    networks = {**trainer.actor.checkpoint_networks(), **trainer.critic.checkpoint_networks()}
    metadata = {
        "environment": trainer.cfg.env_name,
        "env_params": trainer.cfg.env_params,
        "algorithm": trainer.cfg.algorithm,
        "preference": list(trainer.w),
        "critic": trainer.cfg.critic,
        "hidden": trainer.cfg.hidden,
        "iteration": trainer.iteration,
        "m": trainer.m,
    }
    save_checkpoint(path, networks, {"log_std": trainer.actor.log_std}, metadata)


def load_actor(path) -> tuple:
    """Rebuild a policy from a checkpoint; returns (actor, metadata)."""
    networks, vectors, metadata = load_checkpoint(path)
    actor = GaussianActor(networks["actor_backbone"], networks["actor_mean_head"], vectors["log_std"])
    return actor, metadata


def run_training(cfg: dict, out_dir) -> Path:
    """Train one run and write manifest, metrics.csv, eval.csv, checkpoints.

    The files are the sink of ``Trainer.run``, each record written as it
    completes: a metrics.csv row per report, which may complete during the
    next iteration; an eval.csv row per evaluation; and, per ``Checkpoint``,
    checkpoint_iterNNNNN.json, or checkpoint_final.json after the last
    iteration."""
    tc = configlib.build_train_config(cfg)
    # Bad input fails in Trainer(), before any file is written.
    trainer = Trainer(tc)
    out_dir = _out_dir(out_dir)
    configlib.write_manifest(out_dir, cfg)
    with open(out_dir / "metrics.csv", "w") as mf, open(out_dir / "eval.csv", "w") as ef:
        writers = {IterationReport: _writer(mf), EvalRecord: _writer(ef)}
        for record_type, w in writers.items():
            w.writerow(_csv_header(record_type, trainer.m))

        def write(record) -> None:
            if isinstance(record, Checkpoint):
                name = "final" if record.final else f"iter{record.iteration:05d}"
                save_trainer_checkpoint(trainer, out_dir / f"checkpoint_{name}.json")
            else:
                writers[type(record)].writerow(_csv_row(record))

        trainer.run(write)
    return out_dir


def _resolve_config(args) -> dict:
    if getattr(args, "manifest", None):
        cfg = configlib.load_manifest(args.manifest)["config"]
    elif args.config:
        cfg = configlib.load_config(args.config)
    else:
        raise ConfigError("train needs --config or --manifest")
    if getattr(args, "override", None):
        configlib.apply_overrides(cfg, args.override)
    if getattr(args, "seed", None) is not None:
        cfg["ppo"]["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["output"]["dir"] = str(args.out)
    return cfg


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    out_dir = run_training(cfg, cfg["output"]["dir"])
    print(f"run complete: {out_dir}")
    return 0


# -- evaluate -----------------------------------------------------------------


def cmd_evaluate(args) -> int:
    _require(args, ("episodes",), lambda v: v >= 1, ">= 1")
    _require(args, ("seed",), lambda v: v >= 0, ">= 0")
    run_dir = Path(args.run)
    ckpt = run_dir / args.checkpoint
    if not ckpt.exists():
        raise ConfigError(f"checkpoint not found: {ckpt}")
    try:
        actor, meta = load_actor(ckpt)
        env = make_env(meta["environment"], **meta.get("env_params", {}))
        w = preference_vector(meta["preference"], env.m)
        if actor.backbone.in_dim != env.observation_dim + env.m:
            raise ConfigError(
                f"its actor reads {actor.backbone.in_dim} inputs, not the {env.observation_dim} "
                f"observations and {env.m} preference weights of {meta['environment']}"
            )
    except KeyError as e:
        raise ConfigError(f"malformed checkpoint {ckpt}: missing entry {e}") from e
    except OSError as e:  # a directory, say
        raise ConfigError(f"could not read checkpoint {ckpt}: {e}") from e
    except (TypeError, ValueError) as e:  # ContractViolationError and JSONDecodeError too
        raise ConfigError(f"malformed checkpoint {ckpt}: {e}") from e
    rng = np.random.default_rng(args.seed)
    with np.errstate(over="ignore"):  # as in a training run's evaluations
        means = deterministic_returns(actor, env, w, rng, args.episodes).mean(axis=0)
    for i, v in enumerate(means):
        print(f"return_{i} {_fmt(v)}")
    print(f"expected_utility {_fmt(w @ means)}")
    return 0


# -- compare ------------------------------------------------------------------


def _final_evaluation(path: Path, m: int) -> EvalRecord:
    """The last row of an eval.csv, every row checked: the run's final evaluation."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"could not read {path}: {e}") from e
    if len(rows) < 2:
        raise ConfigError(f"{path} has no evaluations")
    if rows[0] != _csv_header(EvalRecord, m):
        raise ConfigError(f"{path} does not have the columns of an eval.csv: {','.join(rows[0])}")
    for line, row in enumerate(rows[1:], start=2):  # the header is line 1
        try:
            record = _csv_record(EvalRecord, m, row)
        except ValueError as e:
            raise ConfigError(f"malformed {path}: line {line}: {e}") from e
        if not all(map(math.isfinite, record.returns)):
            raise ConfigError(f"malformed {path}: line {line} has a non-finite return")
    return record


# Knobs that never tag a label: compare's grid runs over preferences and
# seeds, and every run has its own directory.
_UNTAGGED = {("algorithm", "preference"), ("ppo", "seed"), ("output", "dir")}


def method_labels(configs: list) -> list:
    """Each run's algorithm.name, tagged ``key=value`` for every knob whose value
    varies among the given runs of that algorithm and differs from its default,
    so that two different configurations never share a label."""
    defaults = {
        (section, key): default
        for section, keys in configlib.default_config().items()
        for key, default in keys.items()
        if (section, key) not in _UNTAGGED
    }
    runs = [
        (cfg["algorithm"]["name"], {(s, k): cfg[s].get(k, d) for (s, k), d in defaults.items()})
        for cfg in configs
    ]
    seen = {}  # algorithm -> knob -> the values its runs have
    for name, values in runs:
        for knob, value in values.items():
            seen.setdefault(name, {}).setdefault(knob, set()).add(value)
    labels = []
    for name, values in runs:
        tags = [
            f"{key}={configlib.format_value(value)}"
            for (section, key), value in values.items()
            if len(seen[name][section, key]) > 1 and value != defaults[section, key]
        ]
        labels.append(name + (f"[{','.join(tags)}]" if tags else ""))
    return labels


def _load_runs(run_dirs: list) -> list[dict]:
    runs = []
    for d in run_dirs:
        d = Path(d)
        man_path = d / "manifest.json"
        if not man_path.exists():
            raise ConfigError(f"no manifest.json in {d}; is it a run directory?")
        cfg = configlib.load_manifest(man_path)["config"]
        tc = configlib.build_train_config(cfg)
        # load_manifest checked one weight per objective of the run's environment.
        final = _final_evaluation(d / "eval.csv", len(tc.preference))
        if final.iteration != tc.total_iterations:
            raise ConfigError(
                f"{d / 'eval.csv'} ends at iteration {final.iteration}, not at the "
                f"{tc.total_iterations} iterations its manifest trains: the run did not finish"
            )
        runs.append({
            "dir": d, "env": tc.env_name, "config": cfg, "preference": tc.preference, "seed": tc.seed,
            "returns": final.returns, "eu": final.eu,
        })
    envs = sorted({r["env"] for r in runs})
    if len(envs) > 1:
        raise ConfigError(f"refusing to compare runs from different environments: {envs}")
    seen = {}
    for r, label in zip(runs, method_labels([r["config"] for r in runs])):
        r["method"] = label
        key = (label, r["preference"], r["seed"])
        if key in seen:
            raise ConfigError(
                f"{seen[key]} and {r['dir']} are the same run "
                f"({label}, preference {r['preference']}, seed {r['seed']})"
            )
        seen[key] = r["dir"]
    return runs


def _mean_std(runs: list, score: str) -> tuple:
    values = np.array([r[score] for r in runs])
    return values.mean(), values.std()


@dataclass
class MethodSummary:
    """One row of summary.csv: one method over all its runs."""

    method: str
    expected_utility_mean: float
    expected_utility_std: float


@dataclass
class PreferenceSummary:
    """One row of per_preference.csv: one method's runs at one preference."""

    method: str
    pref: tuple
    eu_mean: float
    eu_std: float
    returns: tuple = column("return")  # per-objective mean of the runs' final returns


def compare_runs(run_dirs: list, out_dir) -> list:
    """Cross-method comparison over (method, preference, seed) runs: writes
    summary.csv and per_preference.csv and returns the summary's rows.

    Each run is scored by its final evaluation, the last row of its eval.csv,
    and by nothing else: its raw returns and their expected utility w . returns.
    """
    runs = _load_runs(run_dirs)
    methods = sorted({r["method"] for r in runs})
    prefs = sorted({r["preference"] for r in runs})
    by_method = {meth: [r for r in runs if r["method"] == meth] for meth in methods}
    cells = []
    for meth in methods:
        for pref in prefs:
            cell = [r for r in by_method[meth] if r["preference"] == pref]
            if not cell:
                raise ConfigError(
                    f"method {meth!r} has no run for preference {pref}; "
                    "compare needs a full method x preference grid"
                )
            returns = tuple(np.mean([r["returns"] for r in cell], axis=0))
            cells.append(PreferenceSummary(meth, pref, *_mean_std(cell, "eu"), returns))
    summary = [MethodSummary(meth, *_mean_std(rs, "eu")) for meth, rs in by_method.items()]
    out_dir = _out_dir(out_dir)
    m = len(prefs[0])
    _write_table(out_dir / "summary.csv", MethodSummary, m, summary)
    _write_table(out_dir / "per_preference.csv", PreferenceSummary, m, cells)
    return summary


def cmd_compare(args) -> int:
    summary = compare_runs(args.runs, args.out)
    width = max(len("method"), *(len(row.method) for row in summary))
    print(f"{'method':<{width}}  {'eu_mean':>12}  {'eu_std':>12}")
    for row in summary:
        scores = (row.expected_utility_mean, row.expected_utility_std)
        print(f"{row.method:<{width}}" + "".join(f"  {_fmt(v):>12}" for v in scores))
    print(f"wrote {Path(args.out) / 'summary.csv'} and per_preference.csv")
    return 0


# -- sweep --------------------------------------------------------------------

def _parse_axis(spec: str) -> tuple:
    """(name, section, key, values) of ``--axis NAME=V1,V2,...``.  NAME names a
    knob as --override does; values go through its converter, separated by
    ``;`` for a tuple-valued knob, or are one of its NAMED_VALUES."""
    if "=" not in spec:
        raise ConfigError(f"axis must look like name=v1,v2,..., got {spec!r}")
    name, raw = (part.strip() for part in spec.split("=", 1))
    section, key = configlib.resolve_knob(name)
    if (section, key) == ("output", "dir"):
        raise ConfigError("output.dir cannot be a sweep axis: sweep sets each run's directory")
    named = configlib.NAMED_VALUES.get((section, key, raw))
    if named is not None:
        values = list(named)
    else:
        sep = ";" if isinstance(configlib.CONFIG_SCHEMA[section][key][1], tuple) else ","
        values = [configlib._convert(section, key, t.strip()) for t in raw.split(sep) if t.strip()]
    if not values:
        raise ConfigError(f"axis {name!r} has no values")
    return name, section, key, values


def _sweep_worker(job: tuple) -> str:
    cfg, out_dir = job
    return str(run_training(cfg, out_dir))


def cmd_sweep(args) -> int:
    _require(args, ("workers",), lambda v: v >= 1, ">= 1")
    base = configlib.load_config(args.config)
    if args.override:
        configlib.apply_overrides(base, args.override)
    axes = [_parse_axis(spec) for spec in args.axis]
    if not axes:
        raise ConfigError("sweep needs at least one --axis")
    knobs = [f"{section}.{key}" for _, section, key, _ in axes]
    if len(set(knobs)) < len(knobs):
        raise ConfigError(f"a knob is given as more than one --axis: {', '.join(knobs)}")
    out_root = Path(args.out)

    jobs = []
    for combo in itertools.product(*(values for *_, values in axes)):
        cfg = json.loads(json.dumps(base))  # deep copy, manifests stay independent
        tags = []
        for (_, section, key, _), value in zip(axes, combo):
            cfg[section][key] = value
            tags.append(f"{key}_{configlib.format_value(value)}")
        run_dir = out_root / "_".join(tags)
        if any(run_dir == job[1] for job in jobs):
            raise ConfigError(f"an axis repeats a value: two runs would share {run_dir}")
        cfg["output"]["dir"] = str(run_dir)
        # Every combination is checked before the first run, its environment too.
        tc = configlib.build_train_config(cfg)
        preference_vector(tc.preference, make_env(tc.env_name, **tc.env_params).m)
        jobs.append((cfg, run_dir))

    _out_dir(out_root)
    if args.workers > 1:
        # Imported here: it loads multiprocessing, which only this path needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            done = list(pool.map(_sweep_worker, jobs))
    else:
        done = [_sweep_worker(job) for job in jobs]
    with open(out_root / "sweep_manifest.json", "w") as f:
        json.dump(
            {"axes": [{"name": n, "values": [list(v) if isinstance(v, tuple) else v for v in vs]} for n, *_, vs in axes],
             "runs": done},
            f,
            indent=2,
        )
    print(f"sweep complete: {len(done)} runs under {out_root}")
    return 0


# -- toybench -------------------------------------------------------------------


@dataclass
class ToybenchRecord:
    """One row of toybench.csv: one method's solution at one preference."""

    w: tuple
    method: str
    f: tuple                            # the objectives the solver reached
    oracle: tuple = column("oracle_f")  # the objectives of its oracle point
    distance: float                     # |f - oracle|


def cmd_toybench(args) -> int:
    _require(args, ("resolution", "n_prefs", "steps"), lambda v: v >= 1, ">= 1")
    _require(
        args, ("spread", "lr", "mu", "tol"), lambda v: math.isfinite(v) and v > 0, "finite and > 0"
    )
    _require(args, ("seed",), lambda v: v >= 0, ">= 0")
    mop = toybench.concave_mop(spread=args.spread) if args.problem == "concave" else toybench.convex_mop()
    front, _ = toybench.pareto_grid_oracle(mop, resolution=args.resolution)
    out_dir = _out_dir(args.out)

    ts = np.linspace(0.02, 0.98, args.n_prefs)
    W = np.stack([ts, 1.0 - ts], axis=-1)
    X0 = mop.lo + np.random.default_rng(args.seed).random((len(ts), mop.n)) * (mop.hi - mop.lo)
    results = {}
    for method in SCALARIZERS:
        _, F = toybench.solve_scalarized(
            mop, method, W, X0, steps=args.steps, lr=args.lr, mu=args.mu
        )
        if method == "linear" and mop.name == "concave":
            # Endpoint attraction: on a concave front, linear scalarization
            # only ever reaches an extreme point, whichever basin wins.
            oracle = toybench.nearest_endpoint(front, F)
        elif method == "linear":
            oracle = toybench.linear_oracle_point(front, W)
        elif method == "tch":
            oracle = toybench.tch_oracle_point(front, W)
        else:
            oracle = toybench.stch_oracle_point(front, W, mu=args.mu)
        results[method] = (F, oracle, np.linalg.norm(F - oracle, axis=-1))
    # Preference-major rows: every method at one preference, then the next.
    rows = [
        ToybenchRecord(tuple(W[p]), method, tuple(F[p]), tuple(oracle[p]), dist[p])
        for p in range(len(ts))
        for method, (F, oracle, dist) in results.items()
    ]
    _write_table(out_dir / "toybench.csv", ToybenchRecord, mop.m, rows)
    for method, (_, _, dist) in results.items():
        print(f"{method}: {int(np.sum(dist <= args.tol))}/{len(ts)} within {args.tol:g} of oracle")
    print(f"wrote {out_dir / 'toybench.csv'}")
    return 0


# -- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pastarl",
        description="Multi-objective PPO with adaptive smooth Tchebycheff scalarization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one run and write metrics/eval CSVs")
    p.add_argument("--config", help="INI config file")
    p.add_argument("--manifest", help="reproduce a previous run from its manifest.json")
    p.add_argument("--seed", type=int, default=None, help="override ppo.seed")
    p.add_argument("--out", default=None, help="override output.dir")
    p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="roll out a saved checkpoint deterministically")
    p.add_argument("--run", required=True, help="run directory containing the checkpoint")
    p.add_argument("--checkpoint", default="checkpoint_final.json")
    p.add_argument("--episodes", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="cross-method tables from finished run directories")
    p.add_argument("runs", nargs="+", help="run directories (each with manifest.json, eval.csv)")
    p.add_argument("--out", required=True, help="directory for summary.csv / per_preference.csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="cartesian sweep over config axes")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--axis", action="append", default=[], metavar="NAME=V1,V2,...")
    p.add_argument("--override", action="append", default=[], metavar="SECTION.KEY=VALUE")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("toybench", help="scalarizer comparison on a closed-form benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--problem", default="concave", choices=("concave", "convex"))
    p.add_argument("--spread", type=float, default=1.7)
    p.add_argument("--resolution", type=int, default=600)
    p.add_argument("--n-prefs", type=int, default=50)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--mu", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_toybench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
