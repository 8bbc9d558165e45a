import pytest

from zetaumm import zeta as zt


@pytest.fixture(scope="session")
def zeros_2000():
    """First 2000 validated zero ordinates from the bundled table."""
    table = zt.ingest_zeros(zt.bundled_zeros_path(), max_zeros=2000)
    assert len(table) == 2000
    return table


@pytest.fixture(scope="session")
def zeros_all():
    """The full bundled table (10^4 ordinates)."""
    return zt.ingest_zeros(zt.bundled_zeros_path())


@pytest.fixture(scope="session")
def prime_table_1e6():
    return zt.PrimeTable.build(10**6)
