import pytest

from cocenter.groups import BlockParabolic
from cocenter.matrices import PrimeContext
from cocenter.measures import (
    Ambient,
    ParabolicTransversal,
    ad_symmetrized_basis,
    double_coset_labels,
    unit_measure,
)


@pytest.fixture(scope="session")
def ctx2():
    return PrimeContext(2, 1)


@pytest.fixture(scope="session")
def borel2():
    return BlockParabolic(2, (1, 1), "upper")


@pytest.fixture(scope="session")
def unit_gl2(ctx2):
    return unit_measure(Ambient.general_linear(2), ctx2)


@pytest.fixture(scope="session")
def transversal_gl2(borel2, ctx2):
    return ParabolicTransversal(borel2, ctx2)


@pytest.fixture(scope="session")
def level_basis_gl2(ctx2, unit_gl2):
    """Conjugation-orbit indicator basis on the two smallest double cosets."""
    k0_labels = [rep for rep, _ in unit_gl2.items()]
    d_labels = double_coset_labels(2, ctx2, (1, 0))
    return ad_symmetrized_basis(k0_labels, ctx2) + ad_symmetrized_basis(d_labels, ctx2)


@pytest.fixture(scope="session")
def unit_gl3(ctx2):
    return unit_measure(Ambient.general_linear(3), ctx2)


@pytest.fixture(scope="session")
def level_basis_gl3(ctx2, unit_gl3):
    """Conjugation-orbit indicators on K_0 (the first six) and on
    K_0 diag(2,1,1) K_0 in GL_3(Q_2)."""
    k0_labels = [rep for rep, _ in unit_gl3.items()]
    d_labels = double_coset_labels(3, ctx2, (1, 0, 0))
    return ad_symmetrized_basis(k0_labels, ctx2) + ad_symmetrized_basis(d_labels, ctx2)
