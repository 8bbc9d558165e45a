import numpy as np
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
def li_oracle_20():
    """lambda_1..lambda_20 as n sum_j C(n-1, n-j) a_j with a_j = [u^j] ln xi(1+u),
    from the Stieltjes constants (for (s-1) zeta(s)), polygamma values at 1/2
    (for ln Gamma(s/2)) and ln(1+u), in 40-digit mpmath arithmetic."""
    import mpmath as mp

    nmax = 20
    with mp.workdps(40):
        unit = [mp.mpf(1)] + [(-1) ** k * mp.stieltjes(k) / mp.factorial(k) for k in range(nmax)]
        a = [mp.mpf(0)] * (nmax + 1)  # ln of the unit series, by the log recurrence
        for n in range(1, nmax + 1):
            a[n] = unit[n] - mp.fsum(k * a[k] * unit[n - k] for k in range(1, n)) / n
        for k in range(1, nmax + 1):
            a[k] += mp.mpf(-1) ** (k + 1) / k + mp.psi(k - 1, mp.mpf(1) / 2) / (mp.factorial(k) * 2**k)
        a[1] -= mp.log(mp.pi) / 2
        return np.array([float(n * mp.fsum(mp.binomial(n - 1, n - j) * a[j] for j in range(1, n + 1)))
                         for n in range(1, nmax + 1)])
