import numpy as np
import pytest

from zicae import modelio
from zicae.autoencoder import TrainConfig, train
from zicae.bersim import BerResult

# One properly trained model shared across the suite (and seed 0 of the
# acceptance comparison): the scaled-down schedule on a narrow interval
# around alpha = 1.
DESK_CFG = TrainConfig(n_channels=500, epochs_per_channel=10, batch=1000,
                       alpha_min=0.9, alpha_max=1.1, seed=0)


@pytest.fixture(scope="session")
def desk_model():
    model, _ = train(DESK_CFG)
    return model


@pytest.fixture(scope="session")
def desk_model_file(desk_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "desk.zicmodel"
    modelio.save_model(path, desk_model, DESK_CFG)
    return path


def compare_reduction(result_a: BerResult, result_b: BerResult) -> float:
    """Percentage reduction of mean worst-case BER of ``a`` relative to ``b``."""
    def grid(result):
        return [(p.snr_db, p.alpha) for p in result.points]

    if grid(result_a) != grid(result_b):
        raise ValueError("results cover different grids")
    mean_a = float(np.mean([p.ber_worst for p in result_a.points]))
    mean_b = float(np.mean([p.ber_worst for p in result_b.points]))
    if mean_b == 0.0:
        return 0.0
    return 100.0 * (mean_b - mean_a) / mean_b
