"""Workload configs for the benchmark, generated from a workload seed.

Each workload is an `advbundle` config template. The workload seed `s`
derives the three seeds a run consumes: `synth_seed = 7 + s`,
`train_seed = 1 + s` and the bundling root `seed = 0 + s`. Seed 0 is the
canonical seed: at full size it reproduces the configs the workloads are
named after, and for desk-default that is `configs/default.cfg` key for key.

The benchmark runs each workload at `bench_n` examples, a fixed fraction of
its full size, so that one `advbundle run` process takes a few seconds and a
run can take the median of many processes. The per-example work mix (attack
steps, candidates per example, schedule) does not change with n.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full_n: int
    bench_n: int
    template: str


# seeds of the canonical configs; workload seed s adds s to each
SYNTH_SEED, TRAIN_SEED, ROOT_SEED = 7, 1, 0


_DESK_DEFAULT = """\
dataset = synthetic
synth_n = {n}
synth_d = 2
synth_k = 3
synth_seed = {synth_seed}

architecture = mlp1
hidden = 16
learning_rate = 0.3
epochs = 120
batch_size = 32
train_seed = {train_seed}

criterion = max_confidence
threshold = 0.9
max_units = none
early_stop = false

threshold_grid = 0.5:0.99:50
epsilon_grid = 0.0:0.3:31
gap_ns = 1,2,10,100,1000

seed = {seed}
output_dir = out

[attack pgd-cheap]
variant = pgd
epsilon = 0.3
step_size = 0.1
num_steps = 40
num_restarts = 1
random_init = true

[attack pgd-expensive]
variant = pgd
epsilon = 0.3
step_size = 0.04
num_steps = 1000
num_restarts = 1
random_init = true

[attack noise]
variant = uniform_noise
epsilon = 0.3
num_samples = 100
"""

_WIDE_POOL = """\
dataset = synthetic
synth_n = {n}
synth_d = 32
synth_k = 4
synth_seed = {synth_seed}

architecture = mlp1
hidden = 32
learning_rate = 0.3
epochs = 120
batch_size = 32
train_seed = {train_seed}

criterion = max_confidence
threshold = 0.9
max_units = none
early_stop = false

threshold_grid = 0.5:0.99:50
epsilon_grid = 0.0:0.1:21
gap_ns = 1,2,10,100,1000

seed = {seed}
output_dir = out

[attack fgsm]
variant = fgsm
epsilon = 0.1

[attack noise]
variant = uniform_noise
epsilon = 0.1
num_samples = 100
"""

WORKLOADS = {w.name: w for w in (
    Workload("desk-default",
             "per-example PGD gradient loops dominate; the case batched attacks target",
             full_n=400, bench_n=64, template=_DESK_DEFAULT),
    Workload("wide-pool",
             "101 candidates per example kept for reselect; stresses scoring and "
             "per-candidate memory, bypasses PGD",
             full_n=1000, bench_n=400, template=_WIDE_POOL),
)}


def config_text(w: Workload, seed: int, n: int | None = None) -> str:
    """The config of workload `w` at workload seed `seed`.

    `n` defaults to the benchmark size; pass `w.full_n` for the full-size
    config.
    """
    if seed < 0:
        raise ValueError("workload seed must be >= 0")
    return w.template.format(n=w.bench_n if n is None else n,
                             synth_seed=SYNTH_SEED + seed,
                             train_seed=TRAIN_SEED + seed,
                             seed=ROOT_SEED + seed)
