import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from focuslab import OpticalConfig, make_texture

# Every run draws the same examples and keeps no example database on disk.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
# Hypothesis still caches the constants it parses from source files; keep
# that cache in the system temp directory rather than a .hypothesis/ here.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "focuslab-hypothesis")


@pytest.fixture(scope="session")
def bench_config() -> OpticalConfig:
    """The default virtual camera used across tests: 47.5 blur px per mm of z."""
    return OpticalConfig(a_mm=1000.0, f_mm=50.0, g=2.0, pixel_pitch_mm=0.005, d_max=100.0)


@pytest.fixture(scope="session")
def texture_256():
    return make_texture(256, 256, 123)


@pytest.fixture(scope="session")
def texture_512():
    return make_texture(512, 512, 99)
