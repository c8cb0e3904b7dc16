import sys
from pathlib import Path

import pytest

from weightdescent.primes import sieve

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def table_100k():
    return sieve(100000)


@pytest.fixture(scope="session")
def trial_primes_100k():
    from oracles import trial_division_primes

    return trial_division_primes(100000)


@pytest.fixture(scope="session")
def trial_primes_200k():
    from oracles import trial_division_primes

    return trial_division_primes(200000)


@pytest.fixture(scope="session")
def table_2k():
    return sieve(2000)
