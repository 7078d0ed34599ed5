import pytest

from ttubs.fixtures import adas_scenario, fixture_schedule


@pytest.fixture(scope="session")
def adas():
    return adas_scenario()


@pytest.fixture(scope="session")
def table3(adas):
    return fixture_schedule("table3", adas)[0]


@pytest.fixture(scope="session")
def table6(adas):
    return fixture_schedule("table6", adas)[0]


@pytest.fixture(scope="session")
def table8(adas):
    return fixture_schedule("table8", adas)[0]
