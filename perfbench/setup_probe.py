"""Time one cold start: import pastarl, build a config, construct a Trainer.

    python3 perfbench/setup_probe.py CONFIG.ini SEED

Prints ``raw calibrated`` seconds (see speed.py), measured inside this
process from before the first pastarl import to after the Trainer exists.
The caller starts a fresh interpreter for each probe so that the import is
never cached.
"""

import sys
from pathlib import Path

from speed import SpeedSampler, interpreter_kernel


def main(ini: str, seed: int) -> tuple[float, float]:
    with SpeedSampler((interpreter_kernel,)) as sampler:  # numpy import is timed
        mark = sampler.mark()
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from pastarl import config as configlib
        from pastarl.cli import Trainer  # the CLI's import graph, as a user pays it

        cfg = configlib.load_config(ini)
        cfg["ppo"]["seed"] = seed
        Trainer(configlib.build_train_config(cfg))
        return sampler.since(mark)


if __name__ == "__main__":
    print(*main(sys.argv[1], int(sys.argv[2])))
