import pytest

from hyponli.corpus import THREE_WAY, TWO_WAY


@pytest.fixture
def three_way():
    return THREE_WAY


@pytest.fixture
def two_way():
    return TWO_WAY
