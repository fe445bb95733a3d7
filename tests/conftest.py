from fractions import Fraction

import pytest
from hypothesis import settings

from weierpath import VectorWeierstrass, validate_component

settings.register_profile("suite", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def comp_b2():
    return validate_component(2, a="18/25")


@pytest.fixture(scope="session")
def comp_b3():
    return validate_component(3, a="3/5")


@pytest.fixture(scope="session")
def figure_pair(comp_b2, comp_b3):
    return VectorWeierstrass([comp_b2, comp_b3])


def frac(p, q) -> Fraction:
    return Fraction(p, q)


def affine_angles(nodes, scale: int):
    """Reduced arguments scale*pi*t_j mod 2*pi of the AffineNodes family, in [0, 2*pi)."""
    return nodes._angles(scale * nodes.num0, scale * nodes.dnum, nodes.count)
