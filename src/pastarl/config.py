"""Config knobs, sectioned config files, overrides, and run manifests.

Every knob is declared once, as a field of ``TrainConfig``: its INI section
and key, converter, default, valid range and meaning.  A range is an interval
such as ``(0, 1]`` (``inf`` for an open end) or a tuple of choices; the same
text drives the check, the error message and the README table.  The INI
schema and the defaults are derived from those declarations.  The
environment keys are the keyword parameters of the environment constructors;
they are forwarded to the environment only when set, and their ranges are
checked there.  A knob is named ``section.key``, or by a bare key that only
one section declares.

Config files are INI-style with five sections: environment, algorithm,
controller, ppo, output.  Unknown sections or keys, in a config file or a
manifest, are hard errors so programmatic sweeps cannot silently misspell a
knob.  A RunManifest snapshots the fully resolved config plus seed and build
id; re-running from a manifest reproduces the metrics CSV byte for byte.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import json
import subprocess
from dataclasses import dataclass, field, fields
from pathlib import Path

from pastarl import __version__
from pastarl.envs import ENV_CLASSES, make_env
from pastarl.errors import ConfigError
from pastarl.scalarize import ALGORITHMS, preference_vector

MANIFEST_FORMAT_VERSION = 1

# Removed knobs by (section, key), each with None or (the value that still trains
# today's method, why others exit 2); a manifest still loads without them.
RETIRED_KEYS = {("algorithm", "tch_per_minibatch"): None,
                ("algorithm", "weighted_pcgrad"): (False, "the actor now always steps along m * eta"),
                ("ppo", "c1"): (0.5, "the critic's own Adam turned a value-loss scale into an epsilon scale")}

# The eight-preference evaluation set used throughout the experiments (m=3).
DEFAULT_PREFERENCES_M3 = (
    (0.1, 0.7, 0.2),
    (0.2, 0.2, 0.6),
    (0.2, 0.6, 0.2),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    (0.4, 0.4, 0.2),
    (0.5, 0.3, 0.2),
    (0.6, 0.3, 0.1),
    (0.8, 0.1, 0.1),
)

FIXED_MU_GRID = (0.01, 0.1, 0.5, 1.0, 5.0, 10.0)

# Named value sets that a sweep axis may give in place of a list.
NAMED_VALUES = {
    ("algorithm", "preference", "default8"): DEFAULT_PREFERENCES_M3,
    ("algorithm", "fixed_mu", "grid"): FIXED_MU_GRID,
}


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_floats(s: str) -> tuple:
    try:
        return tuple(float(tok) for tok in s.split(",") if tok.strip())
    except ValueError as e:
        raise ConfigError(f"expected comma-separated floats, got {s!r}") from e


def knob(section: str, key: str, conv, default, valid=None, doc: str = "", read_by=None):
    """Declare a TrainConfig field as the config knob ``section.key``, read by
    the configurations that meet every condition of ``read_by`` (None: all).
    A condition maps choice knobs, by field name, to some of their choices,
    and a configuration meets it where any of those knobs holds one of them;
    the first condition names the algorithms that read the knob."""
    return field(
        default=default,
        metadata=dict(section=section, key=key, conv=conv, valid=valid, doc=doc, read_by=read_by),
    )


def _within(value, valid) -> bool:
    """Whether value is one of the choices, or a number in an interval like "(0, 1]"."""
    if isinstance(valid, tuple):
        return value in valid
    lo, hi = (float(end) for end in valid[1:-1].split(","))
    above = lo < value if valid[0] == "(" else lo <= value
    return above and (value < hi if valid[-1] == ")" else value <= hi)


# What a knob of each declared type accepts, and how its message says so: a
# bool is no number here, an int is a float too, and a tuple holds numbers.
TYPES = {"str": (str, "a string"), "bool": (bool, "a boolean"), "int": (int, "an integer"),
         "float": ((int, float), "a number"), "tuple": (tuple, "a list of numbers")}


def _typed(value, declared: str) -> bool:
    """Whether value is of the declared type, as TYPES reads it."""
    if declared == "tuple":
        return isinstance(value, tuple) and all(_typed(v, "float") for v in value)
    return isinstance(value, TYPES[declared][0]) and (declared == "bool" or not isinstance(value, bool))


BOOL = (False, True)
POSITIVE = "(0, inf)"
AT_LEAST_1 = "[1, inf)"


def _rows(test) -> dict:
    """The read_by condition that the algorithm's ALGORITHMS row passes test."""
    return {"algorithm": tuple(name for name, row in ALGORITHMS.items() if test(row))}


# read_by conditions
CONTROLLED = _rows(lambda a: a.mu == "controller")
BRAKES = {"controller_mode": ("full",)}

# Choices that were removed, by field and value, with what to use instead; a
# hint may name the configuration's fields as {field}.
RETIRED_CHOICES = {
    ("controller_mode", "no_conflict_no_decay"): (
        "it held mu at controller.mu_start, which is "
        "algorithm.name = stch_fixed with algorithm.fixed_mu = {mu_start!r}"
    ),
    ("controller_mode", "no_decay"): (
        "it did not anneal, and at mu_start = mu_max it held mu at controller.mu_start, which is "
        "algorithm.name = stch_fixed with algorithm.fixed_mu = {mu_start!r}"
    ),
    ("critic", "branched_unweighted"): "every value loss is eta-weighted, as branched_weighted weights it",
    ("critic", "shared_unweighted"): "every value loss is eta-weighted, as shared_weighted weights it",
}


@dataclass
class TrainConfig:
    env_name: str = knob("environment", "name", str, "stub", tuple(ENV_CLASSES), "simulated task")
    env_params: dict = field(default_factory=dict)  # the ENV_PARAM_KEYS that are set
    algorithm: str = knob(
        "algorithm", "name", str, "pasta", tuple(ALGORITHMS),
        "method: adaptive smooth Tchebycheff or a baseline",
    )
    preference: tuple = knob(
        "algorithm", "preference", _parse_floats, (0.5, 0.5),
        doc="non-negative weights summing to 1, one per objective",
    )
    fixed_mu: float = knob(
        "algorithm", "fixed_mu", float, 1.0, POSITIVE, "constant smoothing",
        (_rows(lambda a: a.mu == "fixed_mu"),),
    )
    no_pcgrad: bool = knob(
        "algorithm", "no_pcgrad", _parse_bool, False, BOOL, "ablation: skip the gradient projection",
        (_rows(lambda a: a.projects),),
    )
    critic: str = knob(
        "algorithm", "critic", str, "branched_weighted", ("branched_weighted", "shared_weighted"),
        "one value head per objective or one shared trunk, each on the eta-weighted value loss",
    )
    controller_mode: str = knob(
        "controller", "mode", str, "full",
        ("full", "no_conflict"),
        "ablation: drop the conflict braking; `stch_fixed` drops the anneal too", (CONTROLLED,),
    )
    mu_start: float = knob(
        "controller", "mu_start", float, 10.0, POSITIVE,
        "initial smoothing; `mu_min <= mu_start <= mu_max` where the mode reads them", (CONTROLLED,),
    )
    mu_min: float = knob(
        "controller", "mu_min", float, 0.05, POSITIVE, "end of the anneal", (CONTROLLED,)
    )
    mu_max: float = knob(
        "controller", "mu_max", float, 10.0, POSITIVE, "braking ceiling", (CONTROLLED, BRAKES)
    )
    tau: float = knob(
        "controller", "tau", float, 0.4, "[0, 1)", "conflict threshold for braking", (CONTROLLED, BRAKES)
    )
    lambda_ema: float = knob(
        "controller", "lambda_ema", float, 0.05, "(0, 1]", "EMA rate of the braking lift", (CONTROLLED, BRAKES)
    )
    rho: float = knob(
        "controller", "rho", float, 0.15, "(0, 1)", "uniform maintenance mass in eta",
        (_rows(lambda a: a.rule == "stch"),),
    )
    zeta: float = knob(
        "controller", "zeta", float, 1.05, "(1, inf)", "utopia point in normalized return space",
        (_rows(lambda a: a.rule != "linear"),),
    )
    horizon: int = knob("ppo", "horizon", int, 2048, AT_LEAST_1, "rollout steps per iteration")
    epochs: int = knob("ppo", "epochs", int, 10, AT_LEAST_1, "passes over each rollout")
    minibatch: int = knob("ppo", "minibatch", int, 64, AT_LEAST_1, "steps per update")
    clip_eps: float = knob("ppo", "clip_eps", float, 0.2, "(0, 1)", "clip range")
    c2: float = knob("ppo", "c2", float, 0.01, "[0, inf)", "entropy coefficient")
    gamma: float = knob("ppo", "gamma", float, 0.99, "(0, 1]", "discount")
    lambda_gae: float = knob("ppo", "lambda_gae", float, 0.95, "[0, 1]", "advantage decay")
    lr: float = knob("ppo", "lr", float, 3e-4, POSITIVE, "Adam step size")
    total_iterations: int = knob(
        "ppo", "total_iterations", int, 100, AT_LEAST_1, "training length, also the anneal horizon"
    )
    seed: int = knob("ppo", "seed", int, 0, "[0, inf)", "master seed")
    hidden: int = knob("ppo", "hidden", int, 64, AT_LEAST_1, "hidden layer width")
    out_dir: str = knob("output", "dir", str, "runs/run", doc="run directory")
    eval_every: int = knob(
        "output", "eval_every", int, 10, AT_LEAST_1, "iterations between evaluations"
    )
    eval_episodes: int = knob(
        "output", "eval_episodes", int, 8, AT_LEAST_1, "deterministic episodes per evaluation"
    )
    checkpoint_every: int = knob(
        "output", "checkpoint_every", int, 0, "[0, inf)",
        "iterations between checkpoints; 0 writes only the final one",
    )

    def __post_init__(self):
        if isinstance(self.preference, list):  # as JSON, or a Python caller, writes it
            self.preference = tuple(self.preference)

    def validate(self) -> "TrainConfig":
        """ConfigError naming ``section.key`` unless every knob has its declared
        type and every choice knob one of its choices; then unless every knob
        this configuration does not read keeps its default, every knob it
        reads lies in its declared range, and ``mu_min <= mu_start <= mu_max``
        holds over the bounds it reads."""
        for f in KNOBS:
            value, valid = getattr(self, f.name), f.metadata["valid"]
            if not _typed(value, f.type):
                raise ConfigError(f"{_knob_name(f)} must be {TYPES[f.type][1]}, got {value!r}")
            if isinstance(valid, tuple) and value not in valid:
                hint = RETIRED_CHOICES.get((f.name, value))
                if hint:
                    raise ConfigError(f"{_knob_name(f)} = {value} was removed: {hint.format_map(vars(self))}")
                raise ConfigError(f"{_knob_name(f)} must be one of {valid}, got {value!r}")
        for key, value in self.env_params.items():
            declared = ENV_PARAM_KEYS[key].__name__
            if not _typed(value, declared):
                raise ConfigError(f"environment.{key} must be {TYPES[declared][1]}, got {value!r}")
        for f in KNOBS:
            value, valid = getattr(self, f.name), f.metadata["valid"]
            off = self.unmet(f)
            if off is not None:
                if value != f.default:
                    settings = [f"{_knob_id(KNOB_FIELDS[name])} = {format_value(getattr(self, name))}"
                                for name in off if name != "algorithm"]
                    who = f"{self.algorithm} with {' and '.join(settings)}" if settings else self.algorithm
                    raise ConfigError(f"{who} does not read {_knob_name(f)}: keep its default {f.default!r}")
            elif isinstance(valid, str) and not _within(value, valid):
                raise ConfigError(f"{_knob_name(f)} must lie in {valid}, got {value!r}")
        # After the ranges, so that an out-of-range value gets its own message.
        if not self.mu_min <= self.mu_start:
            raise ConfigError(
                f"controller.mu_start must be at least controller.mu_min = {self.mu_min!r}, "
                f"got {self.mu_start!r}"
            )
        if self.unmet(KNOB_FIELDS["mu_max"]) is None and not self.mu_start <= self.mu_max:
            raise ConfigError(
                f"controller.mu_start must be at most controller.mu_max = {self.mu_max!r}, "
                f"got {self.mu_start!r}"
            )
        # The Trainer checks its length against the environment it is given.
        try:
            preference_vector(self.preference)
        except ConfigError as e:
            raise ConfigError(f"algorithm.preference: {e}") from None
        return self

    def unmet(self, f) -> dict | None:
        """The first condition of knob f's read_by that this configuration
        does not meet, or None where it reads f."""
        return next(
            (cond for cond in f.metadata["read_by"] or ()
             if not any(getattr(self, name) in values for name, values in cond.items())),
            None,
        )


KNOBS = tuple(f for f in fields(TrainConfig) if "key" in f.metadata)
KNOB_FIELDS = {f.name: f for f in KNOBS}

# The environment constructors' keyword parameters, forwarded when set; each
# converts to the type of its default.
ENV_PARAM_KEYS = {
    p.name: type(p.default)
    for cls in ENV_CLASSES.values()
    for p in inspect.signature(cls).parameters.values()
}

# section -> key -> (converter, default), in declaration order
CONFIG_SCHEMA: dict = {}
for _f in KNOBS:
    CONFIG_SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"]] = (
        _f.metadata["conv"],
        _f.default,
    )
CONFIG_SCHEMA["environment"].update((key, (conv, None)) for key, conv in ENV_PARAM_KEYS.items())


def _knob_id(f) -> str:
    """``section.key`` of a declared field."""
    return f"{f.metadata['section']}.{f.metadata['key']}"


def _knob_name(f) -> str:
    """``section.key`` of a declared field, plus the field name where it differs."""
    return _knob_id(f) if f.name == f.metadata["key"] else f"{_knob_id(f)} ({f.name})"


def format_value(value) -> str:
    """A knob value as messages, run-directory tags and method labels write
    it: strings as they are, booleans as in an INI file, floats exactly, and
    a tuple's entries joined by ``-``."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return "-".join(format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value).removesuffix(".0")
    return str(value)


def default_config() -> dict:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in CONFIG_SCHEMA.items()
    }


def resolve_knob(name: str) -> tuple:
    """(section, key) of the knob ``section.key``, or of a bare key that only
    one section declares; ConfigError otherwise."""
    name = name.strip()
    if "." in name:
        section, key = name.split(".", 1)
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        if key not in CONFIG_SCHEMA[section]:
            known = ", ".join(sorted(CONFIG_SCHEMA[section]))
            raise ConfigError(f"unknown key {key!r} in section [{section}] (known: {known})")
        return section, key
    sections = [section for section, keys in CONFIG_SCHEMA.items() if name in keys]
    if len(sections) > 1:
        raise ConfigError(f"{name!r} is ambiguous: say {' or '.join(f'{s}.{name}' for s in sections)}")
    if not sections:
        raise ConfigError(f"unknown knob {name!r}; name it as section.key ({', '.join(CONFIG_SCHEMA)})")
    return sections[0], name


def _convert(section: str, key: str, raw: str) -> object:
    conv, _ = CONFIG_SCHEMA[section][key]
    try:
        return conv(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({e})") from e


def load_config(path) -> dict:
    """Parse and validate a config file; unknown sections/keys are errors."""
    path = Path(path)
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case as written
    # Opened here, not by parser.read, which skips a path it cannot open.
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"could not read config {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigError(f"could not parse config {path}: {e}") from e
    cfg = default_config()
    unknown = []
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key, raw in parser.items(section):
            if key not in CONFIG_SCHEMA[section]:
                known = ", ".join(sorted(CONFIG_SCHEMA[section]))
                unknown.append(f"{section}.{key} (known: {known})")
                continue
            cfg[section][key] = _convert(section, key, raw)
    if unknown:
        raise ConfigError(f"unknown config entries: {'; '.join(unknown)}")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply --override section.key=value pairs onto a resolved config; a bare
    key that only one section declares names its knob too."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = resolve_knob(target)
        cfg[section][key] = _convert(section, key, value)
    return cfg


def build_train_config(cfg: dict) -> TrainConfig:
    """The validated TrainConfig of a sectioned config dict."""
    env = cfg["environment"]
    return TrainConfig(
        env_params={key: env[key] for key in ENV_PARAM_KEYS if env.get(key) is not None},
        **{f.name: cfg[f.metadata["section"]][f.metadata["key"]] for f in KNOBS},
    ).validate()


@functools.cache
def build_id() -> str:
    """``git describe`` of the source tree, or the package version outside
    git; looked up once per process."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return f"pastarl-{__version__}"


def write_manifest(out_dir: Path, cfg: dict) -> dict:
    manifest = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "build_id": build_id(),
        "seed": cfg["ppo"]["seed"],
        "environment": cfg["environment"]["name"],
        "algorithm": cfg["algorithm"]["name"],
        "preference": list(cfg["algorithm"]["preference"]),
        "config": cfg,
        "outputs": {
            "metrics_csv": "metrics.csv",
            "eval_csv": "eval.csv",
            "checkpoint": "checkpoint_final.json",
        },
    }
    with open(Path(out_dir) / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)
    return manifest


def load_manifest(path) -> dict:
    """A manifest that ``write_manifest`` wrote; ConfigError naming the file
    if it cannot be read, or its config lacks a declared knob, holds an entry
    that no knob declares, does not validate or has a preference that does
    not fit its environment.  RETIRED_KEYS are dropped, or refused off their old value."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {path}") from None
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError too
        raise ConfigError(f"could not read manifest {path}: {e}") from e
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != MANIFEST_FORMAT_VERSION:
        raise ConfigError(f"unsupported manifest format_version {version!r} in {path}")
    cfg = manifest.get("config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"manifest {path} has no config")
    for (section, key), retired in RETIRED_KEYS.items():
        value = cfg[section].pop(key, None) if isinstance(cfg.get(section), dict) else None
        if retired is not None and value not in (None, retired[0]):
            raise ConfigError(f"manifest {path}: {section}.{key} = {format_value(value)} was removed: {retired[1]}")
    undeclared = []
    for section, entries in cfg.items():
        if isinstance(entries, dict):
            declared = CONFIG_SCHEMA.get(section, ())
            undeclared += [f"{section}.{key}" for key in entries if key not in declared]
        elif section not in CONFIG_SCHEMA:
            undeclared.append(section)
    if undeclared:
        raise ConfigError(f"manifest {path} has config entries no knob declares: {', '.join(undeclared)}")
    missing = [
        f"{section}.{key}"
        for section, keys in CONFIG_SCHEMA.items()
        for key in keys
        if not isinstance(cfg.get(section), dict) or key not in cfg[section]
    ]
    if missing:
        raise ConfigError(f"manifest {path} has no config entry for {', '.join(missing)}")
    # JSON gives a preference tuple back as a list; the loaded config holds the tuple again.
    if isinstance(cfg["algorithm"]["preference"], list):
        cfg["algorithm"]["preference"] = tuple(cfg["algorithm"]["preference"])
    try:  # as train would: a knob its algorithm does not read, say, is refused
        tc = build_train_config(cfg)
        preference_vector(tc.preference, make_env(tc.env_name, **tc.env_params).m)
    except ConfigError as e:
        raise ConfigError(f"manifest {path}: {e}") from None
    return manifest
