import random

import pytest

from transferlab.catalog import (
    alternating,
    cyclic,
    dihedral,
    generalized_quaternion,
    psl2,
    symmetric,
)
from transferlab.checkers import CHECKERS
from transferlab.group import InvariantError


@pytest.fixture
def corrupt_burnside(monkeypatch):
    """Make the burnside checker fail its conclusion whenever its
    hypothesis holds, so a scan over it must report violations."""
    run = CHECKERS["burnside"].run

    def corrupted(ctx):
        witnesses, conclusion = run(ctx)
        return witnesses, None if conclusion is None else (lambda: False)

    monkeypatch.setattr(CHECKERS["burnside"], "run", corrupted)


@pytest.fixture
def failing_burnside(monkeypatch):
    """Make the burnside checker's conclusion raise InvariantError on the
    one pair (S4, 3), so a scan over it must report an error there and
    carry on with every other pair."""
    run = CHECKERS["burnside"].run

    def failing(ctx):
        witnesses, conclusion = run(ctx)
        if (ctx.group.name, ctx.prime) != ("S4", 3):
            return witnesses, conclusion

        def broken():
            raise InvariantError("planted failure")

        return witnesses, broken

    monkeypatch.setattr(CHECKERS["burnside"], "run", failing)


@pytest.fixture
def rng():
    return random.Random(20260825)


@pytest.fixture(scope="session")
def s3():
    return symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric(4)


@pytest.fixture(scope="session")
def s5():
    return symmetric(5)


@pytest.fixture(scope="session")
def a4():
    return alternating(4)


@pytest.fixture(scope="session")
def a5():
    return alternating(5)


@pytest.fixture(scope="session")
def d8():
    return dihedral(8)


@pytest.fixture(scope="session")
def d16():
    return dihedral(16)


@pytest.fixture(scope="session")
def q8():
    return generalized_quaternion(8)


@pytest.fixture(scope="session")
def q16():
    return generalized_quaternion(16)


@pytest.fixture(scope="session")
def c12():
    return cyclic(12)


@pytest.fixture(scope="session")
def psl217():
    return psl2(17)
