import pytest

from amf import blas
from amf.data import MixtureSpec, gen_mixture
from amf.harness import TrainConfig, train
from amf.optim import ScheduleSpec

TINY_SPEC = MixtureSpec(k_a=2, k_b=2, n_train=6, n_val=3, n_test=3,
                        image_hw=8, noise_a=0.2, noise_b=0.2, seed=7)

TINY_SCHEDULES = {
    "branch1": ScheduleSpec(0.01),
    "branch2": ScheduleSpec(0.05, 0.9, 2),
    "classifier": ScheduleSpec(0.01),
    "policy": ScheduleSpec(0.001),
}


def fake_openblas(monkeypatch, count: int) -> list[int]:
    """Replaces numpy's OpenBLAS thread count with ``count``; returns the
    list that holds it, so a test can read what ``blas.limit`` set."""
    state = [count]
    monkeypatch.setattr(blas, "_openblas", lambda: (lambda: state[0], lambda k: state.__setitem__(0, k)))
    return state


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(arch="amf", n=2, d=8, num_classes=TINY_SPEC.num_classes,
                in_channels=1, image_hw=TINY_SPEC.image_hw,
                schedules=dict(TINY_SCHEDULES), batch_size=8, epochs=4,
                seed_init=3, seed_data=3)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="session")
def tiny_mixture():
    return gen_mixture(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_amf_run(tiny_mixture):
    """One short gated-model training run shared by monitor and format tests."""
    model, trace, best = train(tiny_train_config(), tiny_mixture)
    return model, trace, best
