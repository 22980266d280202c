import pytest

import fdsim.fft


@pytest.fixture
def fresh_programs():
    """Drop compiled programs before and after a test that patches schedules."""
    fdsim.fft._program.cache_clear()
    yield
    fdsim.fft._program.cache_clear()
