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
from pathlib import Path

import numpy as np

from pastarl import config as configlib
from pastarl import metrics, toybench
from pastarl.envs import make_env
from pastarl.errors import ConfigError, DivergenceError
from pastarl.nn import load_checkpoint, save_checkpoint
from pastarl.policy import GaussianActor
from pastarl.scalarize import preference_vector
from pastarl.trainer import Trainer, deterministic_returns


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


def _metrics_header(m: int) -> list:
    return (
        ["iteration", "kappa", "mu", "mu_base", "beta", "mu_star"]
        + [f"return_{i}" for i in range(m)]
        + [f"clip_loss_{i}" for i in range(m)]
        + ["value_loss", "entropy", "n_episodes"]
        + [f"eval_return_{i}" for i in range(m)]
        + ["eval_hv", "eval_eu"]
    )


def _metrics_row(report, m: int) -> list:
    row = [
        str(report.iteration),
        _fmt(report.kappa),
        _fmt(report.mu),
        _fmt(report.mu_base),
        _fmt(report.beta),
        _fmt(report.mu_star),
    ]
    row += [_fmt(v) for v in report.return_means]
    row += [_fmt(v) for v in report.clip_losses]
    row += [_fmt(report.value_loss), _fmt(report.entropy), str(report.n_episodes)]
    if report.eval is not None:
        row += [_fmt(v) for v in report.eval.returns]
        row += [_fmt(report.eval.hv_so_far), _fmt(report.eval.eu)]
    else:
        row += [""] * (m + 2)
    return row


def _eval_header(m: int) -> list:
    return ["iteration"] + [f"return_{i}" for i in range(m)] + ["hv_so_far", "eu"]


def _eval_row(rec) -> list:
    return (
        [str(rec.iteration)]
        + [_fmt(v) for v in rec.returns]
        + [_fmt(rec.hv_so_far), _fmt(rec.eu)]
    )


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
    """Train one run and write manifest, metrics.csv, eval.csv, checkpoints."""
    tc = configlib.build_train_config(cfg)
    out_dir = Path(out_dir)
    # Bad input fails in Trainer(), before any file is written.
    trainer = Trainer(tc)
    out_dir.mkdir(parents=True, exist_ok=True)
    configlib.write_manifest(out_dir, cfg)
    m = trainer.m
    with open(out_dir / "metrics.csv", "w") as mf, open(out_dir / "eval.csv", "w") as ef:
        mw, ew = _writer(mf), _writer(ef)
        mw.writerow(_metrics_header(m))
        ew.writerow(_eval_header(m))
        ew.writerow(_eval_row(trainer.evaluate(0)))
        for k in range(tc.total_iterations):
            report = trainer.run_iteration()
            if (k + 1) % tc.eval_every == 0 or k == tc.total_iterations - 1:
                report.eval = trainer.evaluate(k + 1)
                ew.writerow(_eval_row(report.eval))
            mw.writerow(_metrics_row(report, m))
            if (
                tc.checkpoint_every
                and (k + 1) % tc.checkpoint_every == 0
                and k != tc.total_iterations - 1
            ):
                save_trainer_checkpoint(trainer, out_dir / f"checkpoint_iter{k + 1:05d}.json")
        save_trainer_checkpoint(trainer, out_dir / "checkpoint_final.json")
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
        w = np.asarray(meta["preference"], dtype=np.float64)
    except KeyError as e:
        raise ConfigError(f"malformed checkpoint {ckpt}: missing entry {e}") from e
    except OSError as e:  # a directory, say
        raise ConfigError(f"could not read checkpoint {ckpt}: {e}") from e
    except (TypeError, ValueError) as e:  # ContractViolationError and JSONDecodeError too
        raise ConfigError(f"malformed checkpoint {ckpt}: {e}") from e
    rng = np.random.default_rng(args.seed)
    means = deterministic_returns(actor, env, w, rng, args.episodes).mean(axis=0)
    for i, v in enumerate(means):
        print(f"return_{i} {_fmt(v)}")
    print(f"expected_utility {_fmt(w @ means)}")
    return 0


# -- compare ------------------------------------------------------------------


def _read_eval_csv(path: Path) -> np.ndarray:
    """Eval returns as an (n_checkpoints, m) array of raw per-objective means."""
    if not path.exists():
        raise ConfigError(f"no eval.csv in {path.parent}")
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"could not read {path}: {e}") from e
    if len(rows) < 2:
        raise ConfigError(f"{path} has no checkpoints")
    ret_cols = [j for j, name in enumerate(rows[0]) if name.startswith("return_")]
    if not ret_cols:
        raise ConfigError(f"{path} has no return_ columns")
    try:
        return np.array([[float(r[j]) for j in ret_cols] for r in rows[1:]])
    except (IndexError, ValueError) as e:
        raise ConfigError(f"malformed {path}: {e}") from e


def _format_value(value) -> str:
    """A knob value as run-directory tags and method labels write it: strings
    as they are, booleans as in an INI file, floats exactly."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return "-".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value).removesuffix(".0")
    return str(value)


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
            f"{key}={_format_value(value)}"
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
        man = configlib.load_manifest(man_path)
        try:
            run = {
                "dir": d,
                "env": man["environment"],
                "config": man["config"],
                "preference": tuple(float(v) for v in man["preference"]),
                "seed": int(man["seed"]),
            }
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"malformed manifest {man_path}: {e!r}") from e
        run["points"] = _read_eval_csv(d / "eval.csv")
        runs.append(run)
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


def compare_runs(run_dirs: list, out_dir) -> dict:
    """Cross-method comparison table over (method, preference, seed) runs.

    Normalization bounds are shared across every eval checkpoint of every
    run being compared.  Each run contributes its best checkpoint, the one
    maximizing single-point hypervolume under those shared bounds.
    """
    runs = _load_runs(run_dirs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m = runs[0]["points"].shape[1]

    normed_groups = metrics.normalize_points({i: r["points"] for i, r in enumerate(runs)})
    for i, r in enumerate(runs):
        hv_per_ckpt = np.prod(normed_groups[i], axis=1)
        best = int(np.argmax(hv_per_ckpt))
        r["best_hv"] = float(hv_per_ckpt[best])
        r["best_raw"] = r["points"][best]

    methods = sorted({r["method"] for r in runs})
    prefs = sorted({r["preference"] for r in runs})
    by_cell: dict = {}
    for r in runs:
        by_cell.setdefault((r["method"], r["preference"]), []).append(r)

    hv_matrix = np.full((len(methods), len(prefs)), np.nan)
    ret_tensor = np.full((len(methods), len(prefs), m), np.nan)
    per_pref_rows = []
    for a, meth in enumerate(methods):
        for p, pref in enumerate(prefs):
            cell = by_cell.get((meth, pref))
            if not cell:
                raise ConfigError(
                    f"method {meth!r} has no run for preference {pref}; "
                    "compare needs a full method x preference grid"
                )
            hvs = np.array([r["best_hv"] for r in cell])
            raws = np.array([r["best_raw"] for r in cell])
            eus = raws @ np.asarray(pref)
            hv_matrix[a, p] = hvs.mean()
            ret_tensor[a, p] = raws.mean(axis=0)
            per_pref_rows.append(
                [meth]
                + [_fmt(v) for v in pref]
                + [_fmt(hvs.mean()), _fmt(hvs.std()), _fmt(eus.mean()), _fmt(eus.std())]
                + [_fmt(v) for v in raws.mean(axis=0)]
            )

    win = metrics.win_rate(hv_matrix)
    dom = metrics.objective_dominance_rate(ret_tensor)

    # Performance-profile instances: one per (preference, seed) pair that
    # every method has a run for.
    seeds_by_method = {
        meth: {(r["preference"], r["seed"]) for r in runs if r["method"] == meth}
        for meth in methods
    }
    instances = sorted(set.intersection(*seeds_by_method.values()))
    auc = np.full(len(methods), np.nan)
    if instances:
        inst_hv = np.empty((len(instances), len(methods)))
        lookup = {(r["method"], r["preference"], r["seed"]): r["best_hv"] for r in runs}
        for b, (pref, seed) in enumerate(instances):
            for a, meth in enumerate(methods):
                inst_hv[b, a] = lookup[(meth, pref, seed)]
        auc = metrics.dolan_more_auc(inst_hv)

    summary_header = [
        "method",
        "hypervolume_mean",
        "hypervolume_std",
        "win_rate",
        "objective_dominance_rate",
        "dmp_auc",
        "expected_utility_mean",
        "expected_utility_std",
    ]
    summary_rows = []
    for a, meth in enumerate(methods):
        cell_hvs = np.array([r["best_hv"] for r in runs if r["method"] == meth])
        cell_eus = np.array(
            [r["best_raw"] @ np.asarray(r["preference"]) for r in runs if r["method"] == meth]
        )
        summary_rows.append(
            [
                meth,
                _fmt(cell_hvs.mean()),
                _fmt(cell_hvs.std()),
                _fmt(win[a]),
                _fmt(dom[a]),
                _fmt(auc[a]),
                _fmt(cell_eus.mean()),
                _fmt(cell_eus.std()),
            ]
        )

    with open(out_dir / "summary.csv", "w") as f:
        w = _writer(f)
        w.writerow(summary_header)
        w.writerows(summary_rows)
    pref_header = (
        ["method"]
        + [f"pref_{i}" for i in range(m)]
        + ["hv_mean", "hv_std", "eu_mean", "eu_std"]
        + [f"return_{i}" for i in range(m)]
    )
    with open(out_dir / "per_preference.csv", "w") as f:
        w = _writer(f)
        w.writerow(pref_header)
        w.writerows(per_pref_rows)

    return {
        "methods": methods,
        "preferences": prefs,
        "hv_matrix": hv_matrix,
        "win_rate": win,
        "dominance": dom,
        "dmp_auc": auc,
        "summary": summary_rows,
    }


def cmd_compare(args) -> int:
    result = compare_runs(args.runs, args.out)
    widths = [max(len(str(r[0])) for r in result["summary"] + [["method"]]), 12]
    print(f"{'method':<{widths[0]}}  {'hv_mean':>12}  {'win_rate':>12}  {'obj_dom':>12}  {'dmp_auc':>12}")
    for row in result["summary"]:
        print(f"{row[0]:<{widths[0]}}  {row[1]:>12}  {row[3]:>12}  {row[4]:>12}  {row[5]:>12}")
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
            tags.append(f"{key}_{_format_value(value)}")
        run_dir = out_root / "_".join(tags)
        if any(run_dir == job[1] for job in jobs):
            raise ConfigError(f"an axis repeats a value: two runs would share {run_dir}")
        cfg["output"]["dir"] = str(run_dir)
        cfg["algorithm"]["preference"] = tuple(cfg["algorithm"]["preference"])
        # Every combination is checked before the first run, its environment too.
        tc = configlib.build_train_config(cfg)
        env = make_env(tc.env_name, **tc.env_params)
        preference_vector(tc.preference, env.m)
        jobs.append((cfg, run_dir))

    out_root.mkdir(parents=True, exist_ok=True)
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


def cmd_toybench(args) -> int:
    _require(args, ("resolution", "n_prefs", "steps"), lambda v: v >= 1, ">= 1")
    _require(
        args, ("spread", "lr", "mu", "tol"), lambda v: math.isfinite(v) and v > 0, "finite and > 0"
    )
    _require(args, ("seed",), lambda v: v >= 0, ">= 0")
    if args.problem == "concave":
        mop = toybench.concave_mop(spread=args.spread)
    elif args.problem == "convex":
        mop = toybench.convex_mop()
    else:
        raise ConfigError(f"unknown toy problem {args.problem!r}")
    front, _ = toybench.pareto_grid_oracle(mop, resolution=args.resolution)
    rng = np.random.default_rng(args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    ts = np.linspace(0.02, 0.98, args.n_prefs)
    rows = []
    hits = {name: 0 for name in toybench.SCALARIZERS}
    for t in ts:
        w = np.array([t, 1.0 - t])
        x0 = mop.lo + rng.random(mop.n) * (mop.hi - mop.lo)
        for method in toybench.SCALARIZERS:
            _, f = toybench.solve_scalarized(
                mop, method, w, x0, steps=args.steps, lr=args.lr, mu=args.mu
            )
            if method == "linear":
                # Endpoint attraction: on a concave front, linear scalarization
                # only ever reaches an extreme point, whichever basin wins.
                ends = toybench.front_endpoints(front)
                oracle = ends[np.argmin(np.linalg.norm(ends - f, axis=1))]
            elif method == "tch":
                oracle = toybench.tch_oracle_point(front, w)
            else:
                oracle = toybench.stch_oracle_point(front, w, mu=args.mu)
            dist = float(np.linalg.norm(f - oracle))
            hits[method] += dist <= args.tol
            rows.append(
                [_fmt(w[0]), _fmt(w[1]), method]
                + [_fmt(v) for v in f]
                + [_fmt(v) for v in oracle]
                + [_fmt(dist)]
            )

    with open(out_dir / "toybench.csv", "w") as f:
        w = _writer(f)
        w.writerow(["w_0", "w_1", "method", "f_0", "f_1", "oracle_f_0", "oracle_f_1", "distance"])
        w.writerows(rows)
    for method in toybench.SCALARIZERS:
        print(f"{method}: {hits[method]}/{len(ts)} within {args.tol:g} of oracle")
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
