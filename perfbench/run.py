"""Timed and traced runs of the pastarl training workloads.

    python3 perfbench/run.py --workload stealth_train --seed 0 --seconds 36 --trace 0

Run from a checkout of the repository; the package is imported from
``src/``.  Each workload drives the ``pastarl`` CLI in this process
(``cli.main``), repeating one identical unit of work until ``--seconds`` are
used up (at least twice), so every repeat doubles as a determinism check:
all repeats must write byte-identical CSVs and checkpoints.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repeats and prints the per-layer metrics from the traced ones, plus the
tracing overhead and a reward-replay spot check.  Times are calibrated for
the host's current speed (speed.py).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  See
README.md in this directory.
"""

import os

# Pin BLAS to one thread in this process (and the probes it starts) before
# numpy loads; OpenBLAS would otherwise start one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_PROBES = 5
MAX_REPEATS = 100
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile

CONFIG_TEMPLATE = """\
[environment]
name = {env}

[algorithm]
name = {algorithm}
preference = {preference}

[ppo]
horizon = {horizon}
total_iterations = {iterations}

[output]
eval_every = {eval_every}
eval_episodes = {eval_episodes}
checkpoint_every = {checkpoint_every}
"""

PREFERENCES = {3: "0.334, 0.333, 0.333", 4: "0.25, 0.25, 0.25, 0.25"}

# Paper-default sizes (horizon 2048, 10 epochs, minibatch 64, hidden 64)
# unless stated.  Training runs evaluate at iteration 0 and at the end.
WORKLOADS = {
    "stealth_train": dict(env="stealth", m=3, horizon=2048, iterations=2, eval_episodes=1),
    "formation_train": dict(env="formation", m=4, horizon=2048, iterations=4, eval_episodes=2),
    "frogger_sweep": dict(
        env="frogger", m=3, horizon=256, iterations=10, eval_every=5, checkpoint_every=5,
        eval_episodes=4,
    ),
}
SWEEP_ALGORITHMS = ("pasta", "linear")
SWEEP_SEEDS = 2
SWEEP_EVAL_CHECKPOINT = "checkpoint_iter00005.json"
WARMUP_HORIZON = 256


def write_config(path: Path, spec: dict, algorithm: str) -> str:
    values = {
        "eval_every": spec["iterations"],
        "checkpoint_every": 0,
        **spec,
        "algorithm": algorithm,
        "preference": PREFERENCES[spec["m"]],
    }
    path.write_text(CONFIG_TEMPLATE.format(**values))
    return str(path)


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail(values: list) -> float:
    """Highest order statistic with TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) <= TAIL_BEYOND:
        return median
    return max(ordered[len(ordered) - TAIL_BEYOND - 1], median)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Clock:
    """Wrappers kept for the whole measured section: calibrated wall time of
    each iteration and evaluation, and the env steps taken while evaluating."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.iterations: list[tuple[float, float, int, bool]] = []  # (raw, calibrated, steps, traced)
        self.eval_raw = 0.0
        self.eval_s = 0.0
        self.eval_steps = 0
        self.evaluations = 0
        self.traced = False
        self._evaluating = 0

    def install(self, patches) -> None:
        from pastarl import cli, trainer  # noqa: F401
        from pastarl.envs import ENV_CLASSES

        patches.method(trainer.Trainer, "run_iteration", self._time_iteration)
        patches.method(trainer.Trainer, "evaluate", lambda f: self._time_evaluation(f, True))
        patches.function("pastarl.cli", "cmd_evaluate", lambda f: self._time_evaluation(f, False))
        for cls in set(ENV_CLASSES.values()):
            patches.method(cls, "step", self._count_step)

    def _time_iteration(self, fn):
        def wrapped(trainer, *args, **kwargs):
            mark = self.sampler.mark()
            result = fn(trainer, *args, **kwargs)
            raw, calibrated = self.sampler.since(mark)
            self.iterations.append((raw, calibrated, trainer.cfg.horizon, self.traced))
            return result

        return wrapped

    def _time_evaluation(self, fn, counted: bool):
        def wrapped(*args, **kwargs):
            self._evaluating += 1
            mark = self.sampler.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                raw, calibrated = self.sampler.since(mark)
                self.eval_raw += raw
                self.eval_s += calibrated
                self._evaluating -= 1
                self.evaluations += counted

        return wrapped

    def _count_step(self, fn):
        def wrapped(*args, **kwargs):
            self.eval_steps += self._evaluating > 0
            return fn(*args, **kwargs)

        return wrapped


class Benchmark:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: Path):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.repeats: list[tuple[float, float]] = []  # (raw, calibrated) seconds
        self.reference_digests: dict[str, str] | None = None
        self.info: dict = {}
        self.configs = {
            algo: write_config(tmp / f"{algo}.ini", self.spec, algo)
            for algo in (SWEEP_ALGORITHMS if self.is_sweep else ("pasta",))
        }

    @property
    def is_sweep(self) -> bool:
        return self.name == "frogger_sweep"

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    # -- set-up time ------------------------------------------------------

    def setup_seconds(self) -> tuple[float, float]:
        """Median (raw, calibrated) cold start, each in a fresh interpreter."""
        samples = []
        for _ in range(SETUP_PROBES):
            self.attempted += 1
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), self.configs["pasta"], str(self.seed)],
                capture_output=True,
                text=True,
                timeout=120,
                cwd=ROOT,
            )
            try:
                raw, calibrated = map(float, proc.stdout.split())
                samples.append((raw, calibrated))
            except ValueError:
                self.fail(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        if not samples:
            return math.nan, math.nan
        return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)

    # -- the workloads ----------------------------------------------------

    def cli(self, *argv: str) -> str:
        """One in-process ``pastarl`` call; returns what it printed."""
        from pastarl import cli

        self.attempted += 1
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = "an exception"
        if code != 0:
            self.fail(f"pastarl {argv[0]} exited with {code}")
        return out.getvalue()

    def warm_up(self) -> None:
        """One untimed iteration of the workload's training config, at a short horizon."""
        from pastarl import config as configlib
        from pastarl.trainer import Trainer

        cfg = configlib.load_config(self.configs["pasta"])
        cfg["ppo"]["horizon"] = WARMUP_HORIZON
        cfg["ppo"]["seed"] = self.seed
        Trainer(configlib.build_train_config(cfg)).run_iteration()

    def run_once(self, out: Path) -> None:
        if not self.is_sweep:
            self.cli("train", "--config", self.configs["pasta"], "--out", str(out), "--seed", str(self.seed))
            return
        seeds = ",".join(str(self.seed + k) for k in range(SWEEP_SEEDS))
        run_dirs = []
        for algo in SWEEP_ALGORITHMS:
            self.cli(
                "sweep", "--config", self.configs[algo], "--out", str(out / algo),
                "--axis", f"seed={seeds}", "--workers", "1",
            )
            run_dirs += sorted(str(p) for p in (out / algo).glob("*") if p.is_dir())
        self.cli("compare", *run_dirs, "--out", str(out / "tables"))
        if not run_dirs:
            return
        printed = self.cli(
            "evaluate", "--run", run_dirs[0], "--checkpoint", SWEEP_EVAL_CHECKPOINT,
            "--episodes", "8", "--seed", str(self.seed),
        )
        (out / "evaluate.txt").write_text(printed)

    # -- output checks ----------------------------------------------------

    def check_rows(self, path: Path) -> None:
        """Every numeric cell finite.  metrics.csv leaves return_i as nan on an
        iteration that completed no episode (n_episodes = 0); only there is nan
        accepted, and there it is required."""
        with open(path) as f:
            rows = list(csv.reader(f))
        header = rows[0]
        returns = [j for j, name in enumerate(header) if name.startswith("return_")]
        episodes = header.index("n_episodes") if "n_episodes" in header else None
        for row in rows[1:]:
            no_episode = episodes is not None and row[episodes] == "0"
            for j, cell in enumerate(row):
                if cell == "":
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = math.inf
                expect_nan = no_episode and j in returns
                if math.isnan(value) != expect_nan or math.isinf(value):
                    self.fail(f"{path.name} row {row[0]}: {header[j]} = {cell}")
                    break

    def check_evaluate_output(self, path: Path) -> None:
        values = [line.split()[-1] for line in path.read_text().splitlines() if line.strip()]
        try:
            finite = bool(values) and all(math.isfinite(float(v)) for v in values)
        except ValueError:
            finite = False
        if not finite:
            self.fail(f"pastarl evaluate printed {values}")

    def check_repeat(self, out: Path) -> None:
        digests = {}
        for path in sorted(out.rglob("*")):
            if not path.is_file() or path.name in ("manifest.json", "sweep_manifest.json"):
                continue
            digests[str(path.relative_to(out))] = file_digest(path)
            if path.name in ("metrics.csv", "eval.csv"):
                self.check_rows(path)
            elif path.name == "evaluate.txt":
                self.check_evaluate_output(path)
        if self.reference_digests is None:
            self.reference_digests = digests
            return
        for name in sorted(set(digests) | set(self.reference_digests)):
            if digests.get(name) != self.reference_digests.get(name):
                self.fail(f"{name} differs from the first repeat on the same seed")

    # -- measurement ------------------------------------------------------

    def run(self) -> dict:
        from speed import SpeedSampler
        from tracing import Patches, Tracer

        setup = self.setup_seconds()
        clock_patches, tracer = Patches(), Tracer(replay_offset=self.seed)
        with SpeedSampler() as sampler:
            self.warm_up()
            clock = Clock(sampler)
            clock.install(clock_patches)
            try:
                start = time.perf_counter()
                for r in range(MAX_REPEATS):
                    clock.traced = self.trace and r % 2 == 1
                    trace_patches = Patches()
                    if clock.traced:
                        tracer.install(trace_patches)
                    mark = sampler.mark()
                    try:
                        self.run_once(self.tmp / f"repeat{r}")
                    finally:
                        trace_patches.restore()
                    self.repeats.append(sampler.since(mark))
                    self.check_repeat(self.tmp / f"repeat{r}")
                    elapsed = time.perf_counter() - start
                    if r >= 1 and elapsed * (r + 2) / (r + 1) > self.seconds:
                        break
            finally:
                clock_patches.restore()
        self.attempted += len(clock.iterations) + clock.evaluations
        self.info = {
            "repeats": len(self.repeats),
            "iterations": len(clock.iterations),
            "eval_steps": clock.eval_steps,
            "kernel_us_median": statistics.median(sampler.durations) * 1e6,
        }
        if self.trace:
            return self.layer_metrics(clock, tracer)
        return self.end_to_end(clock, setup)

    def end_to_end(self, clock: Clock, setup: tuple[float, float]) -> dict:
        raw = [it[0] for it in clock.iterations]
        times = [it[1] for it in clock.iterations]
        steps = sum(it[2] for it in clock.iterations)
        self.info["raw"] = {
            "iter_s.p50": statistics.median(raw),
            "eval_steps_per_s": clock.eval_steps / clock.eval_raw if clock.eval_raw else math.nan,
            "sweep_s": statistics.median(r[0] for r in self.repeats),
            "setup_s": setup[0],
        }
        return {
            "train_steps_per_s": (steps / sum(times), "steps/s"),
            "iter_s.p50": (statistics.median(times), "s"),
            "iter_s.tail": (tail(times), "s"),
            "eval_steps_per_s": (clock.eval_steps / clock.eval_s if clock.eval_s else math.nan, "steps/s"),
            "sweep_s": (statistics.median(r[1] for r in self.repeats), "s"),
            "setup_s": (setup[1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def layer_metrics(self, clock: Clock, tracer) -> dict:
        metrics = tracer.layer_metrics()
        untraced = statistics.median(it[1] for it in clock.iterations if not it[3])
        traced = statistics.median(it[1] for it in clock.iterations if it[3])
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
        checked, mismatched = tracer.replay_mismatches()
        self.attempted += checked
        for _ in range(mismatched):
            self.fail("a replayed reward differs from the logged one")
        metrics["envs.replay.checked"] = (checked, "count")
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{self.name}-seed{self.seed}.jsonl"
        tracer.write(trace_path)
        self.info["spans"] = len(tracer.spans)
        self.info["trace_file"] = str(trace_path.relative_to(ROOT))
        return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pastarl" / "__init__.py").is_file():
        print(f"perfbench: no pastarl package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Benchmark(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics = bench.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **bench.info, **machine_info()}
    print("perfbench " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
