import functools
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pastarl import config as cfgmod
from pastarl import trainer as trainer_mod
from pastarl.cli import _csv_row
from pastarl.envs import ENV_CLASSES
from pastarl.errors import ConfigError
from pastarl.scalarize import ALGORITHMS


INI = """
[environment]
name = frogger
episode_cap = 32

[algorithm]
name = stch_fixed
preference = 0.7, 0.3
fixed_mu = 0.5

[ppo]
horizon = 128
seed = 9

[output]
dir = runs/demo
"""


def split_key(key):
    """"section.key" -> (section, key); a bare key is in [ppo]."""
    section, _, key = key.rpartition(".")
    return section or "ppo", key


def write_ini(tmp_path, text=INI, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDefaults:
    def test_default_config_mirrors_schema(self):
        cfg = cfgmod.default_config()
        assert cfg["algorithm"]["name"] == "pasta"
        assert cfg["algorithm"]["preference"] == (0.5, 0.5)
        assert cfg["controller"]["mu_start"] == 10.0
        assert cfg["ppo"]["horizon"] == 2048
        assert cfg["environment"]["episode_cap"] is None

    def test_default_preference_set_is_normalized(self):
        prefs = np.array(cfgmod.DEFAULT_PREFERENCES_M3)
        assert prefs.shape == (8, 3)
        np.testing.assert_allclose(prefs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(prefs > 0)

    def test_fixed_mu_grid_is_positive_and_sorted(self):
        grid = np.array(cfgmod.FIXED_MU_GRID)
        assert np.all(grid > 0)
        assert np.all(np.diff(grid) > 0)


class TestLoadConfig:
    def test_values_are_typed(self, tmp_path):
        cfg = cfgmod.load_config(write_ini(tmp_path))
        assert cfg["environment"]["name"] == "frogger"
        assert cfg["environment"]["episode_cap"] == 32
        assert cfg["algorithm"]["preference"] == (0.7, 0.3)
        assert cfg["algorithm"]["fixed_mu"] == 0.5
        assert cfg["ppo"]["horizon"] == 128
        assert cfg["ppo"]["seed"] == 9
        # unset keys keep their defaults
        assert cfg["ppo"]["epochs"] == 10
        assert cfg["output"]["dir"] == "runs/demo"

    def test_unknown_key_lists_known_ones(self, tmp_path):
        p = write_ini(tmp_path, "[ppo]\nlearning_rate = 0.001\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            cfgmod.load_config(p)
        with pytest.raises(ConfigError, match="lr"):
            cfgmod.load_config(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = write_ini(tmp_path, "[optimizer]\nlr = 0.1\n")
        with pytest.raises(ConfigError, match=r"\[optimizer\]"):
            cfgmod.load_config(p)

    def test_bad_value_reports_location(self, tmp_path):
        p = write_ini(tmp_path, "[ppo]\nhorizon = many\n")
        with pytest.raises(ConfigError, match="ppo.horizon"):
            cfgmod.load_config(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cfgmod.load_config(tmp_path / "absent.ini")

    def test_booleans_parse_both_spellings(self, tmp_path):
        p = write_ini(tmp_path, "[algorithm]\nno_pcgrad = true\nweighted_pcgrad = 0\n")
        cfg = cfgmod.load_config(p)
        assert cfg["algorithm"]["no_pcgrad"] is True
        assert cfg["algorithm"]["weighted_pcgrad"] is False


class TestOverrides:
    def test_override_replaces_typed_value(self):
        cfg = cfgmod.default_config()
        cfgmod.apply_overrides(cfg, ["ppo.seed=42", "controller.tau=0.3"])
        assert cfg["ppo"]["seed"] == 42
        assert cfg["controller"]["tau"] == 0.3

    def test_override_preference_vector(self):
        cfg = cfgmod.default_config()
        cfgmod.apply_overrides(cfg, ["algorithm.preference=0.2,0.3,0.5"])
        assert cfg["algorithm"]["preference"] == (0.2, 0.3, 0.5)

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            cfgmod.apply_overrides(cfgmod.default_config(), ["ppo.seed"])

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            cfgmod.apply_overrides(cfgmod.default_config(), ["ppo.sead=3"])

    def test_bare_key_names_the_one_section_that_declares_it(self):
        cfg = cfgmod.apply_overrides(cfgmod.default_config(), ["seed=3", "episode_cap=12"])
        assert cfg["ppo"]["seed"] == 3 and cfg["environment"]["episode_cap"] == 12
        with pytest.raises(ConfigError, match="environment.name or algorithm.name"):
            cfgmod.apply_overrides(cfgmod.default_config(), ["name=linear"])
        with pytest.raises(ConfigError, match="unknown knob 'sead'"):
            cfgmod.apply_overrides(cfgmod.default_config(), ["sead=3"])


class TestBuildTrainConfig:
    def test_fields_map_through(self, tmp_path):
        cfg = cfgmod.load_config(write_ini(tmp_path))
        tc = cfgmod.build_train_config(cfg)
        assert tc.algorithm == "stch_fixed"
        assert tc.env_name == "frogger"
        assert tc.env_params == {"episode_cap": 32}
        assert tc.preference == (0.7, 0.3)
        assert tc.fixed_mu == 0.5
        assert tc.horizon == 128
        assert tc.seed == 9

    def test_a_preference_list_is_stored_as_a_tuple(self):
        tc = cfgmod.TrainConfig(preference=[0.5, 0.5]).validate()
        assert tc.preference == (0.5, 0.5) and isinstance(tc.preference, tuple)
        with pytest.raises(ConfigError, match="algorithm.preference must be a list of numbers"):
            cfgmod.TrainConfig(preference=[0.5, "0.5"]).validate()

    def test_environment_keys_are_the_constructors_keyword_parameters(self):
        params = [p for cls in ENV_CLASSES.values() for p in inspect.signature(cls).parameters.values()]
        assert set(cfgmod.ENV_PARAM_KEYS) == {p.name for p in params}
        for p in params:  # each converter is the type of the key's default, in every constructor
            assert cfgmod.ENV_PARAM_KEYS[p.name] is type(p.default)
        assert cfgmod.CONFIG_SCHEMA["environment"]["scan_range"] == (float, None)

    def test_unset_env_params_not_forwarded(self):
        tc = cfgmod.build_train_config(cfgmod.default_config())
        assert tc.env_params == {}

    def test_invalid_combination_raises(self):
        cfg = cfgmod.default_config()
        cfg["algorithm"]["name"] = "stch_fixed"
        cfg["algorithm"]["fixed_mu"] = -1.0
        with pytest.raises(ConfigError):
            cfgmod.build_train_config(cfg)
        for key in ("eval_every", "eval_episodes"):
            cfg = cfgmod.default_config()
            cfg["output"][key] = 0
            with pytest.raises(ConfigError, match=key):
                cfgmod.build_train_config(cfg)

    @pytest.mark.parametrize(
        "key, value",
        [("gamma", 1.5), ("gamma", 0.0), ("gamma", float("nan")), ("lambda_gae", 2.0),
         ("lambda_gae", -0.1), ("lr", -1.0), ("lr", 0.0), ("hidden", 0), ("hidden", -4),
         ("c1", -1.0), ("c1", 0.0), ("c1", float("inf")), ("c1", float("nan")),
         ("c2", -0.01), ("c2", float("inf")), ("c2", float("nan")), ("seed", -1),
         ("controller.zeta", float("nan")), ("algorithm.fixed_mu", float("nan")),
         ("algorithm.preference", (float("nan"), float("nan"))), ("controller.rho", 0.0),
         ("controller.rho", float("nan")), ("output.checkpoint_every", -1)],
    )
    def test_out_of_range_ppo_values_raise(self, key, value):
        section, key = split_key(key)
        f = next(f for f in cfgmod.KNOBS if (f.metadata["section"], f.metadata["key"]) == (section, key))
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}")):
            cfgmod.build_train_config(config_with(f, value))

    @pytest.mark.parametrize(
        "key, value",
        [("gamma", 1.0), ("lambda_gae", 0.0), ("lambda_gae", 1.0), ("hidden", 1), ("c1", 1e-12),
         ("c2", 0.0), ("seed", 0), ("controller.tau", 0.0), ("controller.lambda_ema", 1.0),
         ("output.checkpoint_every", 0), ("gamma", 1), ("lr", 1), ("algorithm.preference", (1, 0))],
    )
    def test_ppo_range_ends_accepted(self, key, value):
        section, key = split_key(key)
        cfg = cfgmod.default_config()
        cfg[section][key] = value
        assert getattr(cfgmod.build_train_config(cfg), key) == value

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_the_removed_mode_points_to_stch_fixed(self, algorithm):
        cfg = cfgmod.default_config()
        cfg["algorithm"]["name"] = algorithm
        cfg["controller"]["mode"] = "no_conflict_no_decay"
        message = r"^controller\.mode .* removed: .* stch_fixed with algorithm\.fixed_mu = 10\.0$"
        with pytest.raises(ConfigError, match=message):
            cfgmod.build_train_config(cfg)

    def test_fixed_mu_must_keep_its_default_where_unread(self):
        cfg = cfgmod.default_config()
        cfg["algorithm"]["fixed_mu"] = -1.0
        with pytest.raises(ConfigError, match="pasta does not read algorithm.fixed_mu"):
            cfgmod.build_train_config(cfg)


def interval(text):
    """"(0, 1]" -> (0.0, 1.0, lower end closed, upper end closed)."""
    m = re.fullmatch(r"([\[(])(\S+), (\S+)([\])])", text)
    assert m, f"not an interval: {text!r}"
    return float(m[2]), float(m[3]), m[1] == "[", m[4] == "]"


INTERVAL_KNOBS = [f for f in cfgmod.KNOBS if isinstance(f.metadata["valid"], str)]
CHOICE_KNOBS = [f for f in cfgmod.KNOBS if isinstance(f.metadata["valid"], tuple)]


def knob_id(f):
    return f"{f.metadata['section']}.{f.metadata['key']}"


def reader(f) -> str:
    """The first algorithm that reads knob f at its defaults."""
    return next(name for name in ALGORITHMS if cfgmod.TrainConfig(algorithm=name).unmet(f) is None)


def config_with(f, value):
    """The default config under an algorithm that reads f, with f set to value."""
    cfg = cfgmod.default_config()
    if f.name != "algorithm":
        cfg["algorithm"]["name"] = reader(f)
    cfg[f.metadata["section"]][f.metadata["key"]] = value
    return cfg


def outside(f):
    """Values outside a declared interval: NaN and infinities for floats."""
    lo, hi, lo_closed, hi_closed = interval(f.metadata["valid"])
    if f.metadata["conv"] is int:
        assert lo_closed and hi == np.inf
        return st.integers(max_value=int(lo) - 1)
    below = st.floats(max_value=lo, exclude_max=lo_closed)
    above = (
        st.floats(min_value=hi, exclude_min=hi_closed) if np.isfinite(hi) else st.just(np.inf)
    )
    return st.one_of(below, above, st.just(float("nan")))


# Values of the wrong type for each declared knob type.
WRONG_TYPES = {
    "int": [1.5, 2.0, True, "2"],
    "float": [True, "0.5", None],
    "bool": [1, "true"],
    "str": [5, None],
    "tuple": [("a", "b"), (0.5, "0.5"), (True, False), "0.5,0.5"],
}


class TestDeclaredRanges:
    @pytest.mark.parametrize("f", cfgmod.KNOBS, ids=knob_id)
    def test_values_of_the_wrong_type_are_rejected_before_the_range(self, f):
        for value in WRONG_TYPES[f.type]:
            with pytest.raises(ConfigError, match=f"^{re.escape(knob_id(f))}.* must be .*, got "):
                cfgmod.build_train_config(config_with(f, value))

    def test_every_knob_declares_a_range_or_is_free_text(self):
        free = [knob_id(f) for f in cfgmod.KNOBS if f.metadata["valid"] is None]
        assert free == ["algorithm.preference", "output.dir"]

    @pytest.mark.parametrize("f", INTERVAL_KNOBS, ids=knob_id)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_values_outside_an_interval_are_rejected(self, f, data):
        value = data.draw(outside(f))
        with pytest.raises(ConfigError, match=re.escape(knob_id(f))):
            cfgmod.build_train_config(config_with(f, value))

    @pytest.mark.parametrize("f", INTERVAL_KNOBS, ids=knob_id)
    def test_closed_ends_are_accepted(self, f):
        lo, hi, lo_closed, hi_closed = interval(f.metadata["valid"])
        ends = [end for end, closed in ((lo, lo_closed), (hi, hi_closed)) if closed]
        for end in ends:
            value = int(end) if f.metadata["conv"] is int else end
            assert getattr(cfgmod.build_train_config(config_with(f, value)), f.name) == value

    @pytest.mark.parametrize("f", CHOICE_KNOBS, ids=knob_id)
    @settings(max_examples=20)
    @given(data=st.data())
    def test_values_outside_the_choices_are_rejected(self, f, data):
        choices = f.metadata["valid"]
        names = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12)
        value = data.draw(
            st.one_of(names, st.integers(min_value=2)).filter(lambda v: v not in choices)
        )
        with pytest.raises(ConfigError, match=re.escape(knob_id(f))):
            cfgmod.build_train_config(config_with(f, value))

    @pytest.mark.parametrize("f", CHOICE_KNOBS, ids=knob_id)
    def test_every_choice_is_accepted(self, f):
        for value in f.metadata["valid"]:
            assert getattr(cfgmod.build_train_config(config_with(f, value)), f.name) == value


# A non-default, in-range value of every knob that has a read_by.
PROBES = {
    "fixed_mu": 0.5, "no_pcgrad": True, "weighted_pcgrad": True, "controller_mode": "no_decay",
    "mu_start": 5.0, "mu_min": 0.1, "mu_max": 20.0, "tau": 0.2, "lambda_ema": 0.5, "rho": 0.3,
    "zeta": 1.5,
}
CONDITIONAL = [f for f in cfgmod.KNOBS if f.metadata["read_by"] is not None]


def configurations():
    """(id, settings) of each algorithm at its defaults, then of every single
    flip of a choice or boolean knob that it reads there; the environment and
    the algorithm are not flipped."""
    for name in ALGORITHMS:
        yield name, (("algorithm", name),)
        for f in CHOICE_KNOBS:
            if f.name in ("env_name", "algorithm") or cfgmod.TrainConfig(algorithm=name).unmet(f):
                continue
            for choice in f.metadata["valid"]:
                if choice != f.default:
                    yield f"{name}[{knob_id(f)}={choice}]", (("algorithm", name), (f.name, choice))


def probe(settings, f):
    """Knob f's probe value, or its default where settings already set the probe."""
    return f.default if dict(settings).get(f.name) == PROBES[f.name] else PROBES[f.name]


# Where a read knob moves no bit at the defaults, the settings that show it is
# read.  Under no_decay, mu_start = mu_max (as at the defaults) makes the
# braking target mu_start at every iteration, so the EMA holds mu there.
WITNESSES = {("pasta[controller.mode=no_decay]", "lambda_ema"): (("mu_start", 5.0),)}

# (settings, knob) for each configuration and each knob with a read_by that
# the configuration reads, and that it does not.
READ, UNREAD = [], []
for _id, _settings in configurations():
    for _f in CONDITIONAL:
        if cfgmod.TrainConfig(**dict(_settings)).unmet(_f) is None:
            _witness = WITNESSES.get((_id, _f.name), ())
            READ.append(pytest.param(_settings + _witness, _f, id=f"{_id}-{knob_id(_f)}"))
        else:
            UNREAD.append(pytest.param(_settings, _f, id=f"{_id}-{knob_id(_f)}"))


@functools.cache
def tiny_run(settings: tuple) -> tuple:
    """The CSV rows of a 3-iteration tiny stub run under settings, (field,
    value) pairs not validated: its evaluations before and after and its 3
    reports; then its actor's and critic's parameters."""
    # Near-even weights and 64 steps: tch's worst objective then turns on zeta,
    # and the projection and the braking both act within 3 iterations.
    cfg = cfgmod.TrainConfig(
        env_params={"episode_cap": 8}, preference=(0.45, 0.55), horizon=64, epochs=1, minibatch=16,
        total_iterations=3, hidden=8, eval_episodes=1, **dict(settings),
    )
    trainer, records = trainer_mod.Trainer(cfg), []
    trainer.run(records.append)
    rows = [_csv_row(r) for r in records if not isinstance(r, trainer_mod.Checkpoint)]
    return rows, trainer.actor.params.tobytes(), trainer.critic.params.tobytes()


def settings_dict(settings) -> dict:
    """The default sectioned config under settings, (field, value) pairs."""
    cfg = cfgmod.default_config()
    for name, value in settings:
        f = cfgmod.KNOB_FIELDS[name]
        cfg[f.metadata["section"]][f.metadata["key"]] = value
    return cfg


class TestReadBy:
    """A knob's read_by declares which configurations read it; validate
    refuses a non-default value of a knob that the configuration does not
    read.  A read knob moves some bit of a tiny run, an unread one none."""

    def test_every_knob_with_a_read_by_has_an_in_range_probe_value(self):
        assert {f.name for f in CONDITIONAL} == set(PROBES)
        for f in CONDITIONAL:
            value = PROBES[f.name]
            assert value != f.default and cfgmod._within(value, f.metadata["valid"])

    def test_every_knob_with_a_read_by_is_read_somewhere_and_unread_somewhere(self):
        for pairs in (READ, UNREAD):
            assert {f.name for _, f in (p.values for p in pairs)} == set(PROBES)

    @pytest.mark.parametrize("settings, f", UNREAD)
    def test_an_unread_knob_changes_no_bit(self, monkeypatch, settings, f):
        monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: False)
        monkeypatch.setattr(cfgmod.TrainConfig, "validate", lambda self: self)
        assert tiny_run(settings + ((f.name, probe(settings, f)),)) == tiny_run(settings)

    @pytest.mark.parametrize("settings, f", READ)
    def test_a_read_knob_changes_some_bit(self, monkeypatch, settings, f):
        monkeypatch.setattr(trainer_mod, "_worker_wanted", lambda: False)
        assert tiny_run(settings + ((f.name, probe(settings, f)),)) != tiny_run(settings)

    @pytest.mark.parametrize("settings, f", UNREAD)
    def test_an_unread_knob_must_keep_its_default(self, settings, f):
        cfg = settings_dict(settings)
        assert cfgmod.build_train_config(cfg)
        cfg[f.metadata["section"]][f.metadata["key"]] = probe(settings, f)
        algorithm = dict(settings)["algorithm"]
        message = f"^{algorithm}( with .*)? does not read {re.escape(knob_id(f))}"
        with pytest.raises(ConfigError, match=message):
            cfgmod.build_train_config(cfg)


class TestManifest:
    def test_round_trip_preserves_config(self, tmp_path):
        cfg = cfgmod.default_config()
        cfg["algorithm"]["preference"] = (0.2, 0.8)
        cfg["ppo"]["seed"] = 7
        manifest = cfgmod.write_manifest(tmp_path, cfg)
        assert manifest["format_version"] == cfgmod.MANIFEST_FORMAT_VERSION
        assert manifest["seed"] == 7
        loaded = cfgmod.load_manifest(tmp_path / "manifest.json")
        assert loaded["config"] == cfg
        assert loaded["config"]["algorithm"]["preference"] == (0.2, 0.8)

    def test_future_format_version_rejected(self, tmp_path):
        cfgmod.write_manifest(tmp_path, cfgmod.default_config())
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="format_version"):
            cfgmod.load_manifest(path)

    def test_undeclared_entries_rejected_by_name(self, tmp_path):
        cfgmod.write_manifest(tmp_path, cfgmod.default_config())
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["config"]["ppo"]["learning_rat"] = 0.1
        doc["config"]["algorithm"]["tch_per_minibatch"] = True  # retired, so dropped
        doc["config"]["extra"] = {"key": 1}
        doc["config"]["note"] = "x"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as e:
            cfgmod.load_manifest(path)
        assert str(e.value).endswith("no knob declares: ppo.learning_rat, extra.key, note")

    def test_manifest_records_identity_fields(self, tmp_path):
        manifest = cfgmod.write_manifest(tmp_path, cfgmod.default_config())
        assert manifest["environment"] == "stub"
        assert manifest["algorithm"] == "pasta"
        assert isinstance(manifest["build_id"], str) and manifest["build_id"]

    def test_manifests_of_one_process_share_one_build_id(self, tmp_path, monkeypatch):
        """git describe runs once per process, however many runs it writes."""
        calls = []
        run = cfgmod.subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(cfgmod.subprocess, "run", counted)
        cfgmod.build_id.cache_clear()
        ids = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            ids.append(cfgmod.write_manifest(tmp_path / name, cfgmod.default_config())["build_id"])
        assert ids[0] == ids[1]
        assert len(calls) == 1 and calls[0][0][0] == "git"
