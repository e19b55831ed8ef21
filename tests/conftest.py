import random
from fractions import Fraction

import pytest

from semidual.bianchi import classify
from semidual.factorize import verify_closure_in_complexification
from semidual.linalg import Matrix
from semidual.lie import so3, so21


@pytest.fixture(scope="session")
def euclid():
    return so3()


@pytest.fixture(scope="session")
def lorentz():
    return so21()


def rng_rat(rng: random.Random, span=3, den=3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rng_matrix(rng: random.Random, n=3) -> Matrix:
    return Matrix([[rng_rat(rng) for _ in range(n)] for _ in range(n)])


def rng_vec(rng: random.Random, n=3):
    return tuple(rng_rat(rng) for _ in range(n))


def classify_factor(inst):
    """Bianchi classification of the factor algebra m of a solution instance."""
    dcs = verify_closure_in_complexification(inst.algebra, inst.F, inst.lam)
    return classify(dcs.m_algebra)
