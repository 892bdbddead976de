import numpy as np
import pytest

from biphoton.presets import load_preset, preset_with_pump


@pytest.fixture(scope="session")
def ppktp():
    return load_preset("ppktp-8mm")


@pytest.fixture(scope="session")
def ppktp_sinc(ppktp):
    return preset_with_pump(ppktp, profile="sinc")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
