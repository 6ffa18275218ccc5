"""Shared fixtures.

The two 256^2 spectra are the expensive objects of the suite (a few seconds
each); they are computed once per session and shared between the spectral
unit tests and the acceptance checks.
"""

import pytest

from conetorus import assemble, lowest_eigenvalues, sigma_from_t, spectral


def _spectrum(t, grid, modes):
    op = assemble(sigma_from_t(t), t, grid)
    return lowest_eigenvalues(op, modes, seed=0)


@pytest.fixture(scope="session")
def spec_t03_256():
    return _spectrum(0.3 + 0.0j, 256, 60)


@pytest.fixture(scope="session")
def spec_t07_256():
    return _spectrum(0.7 + 0.0j, 256, 60)


@pytest.fixture
def wrong_eigenvalues(monkeypatch):
    """eigsh returns eigenvalues off by 1e-6 relative, with exact eigenvectors."""
    solve = spectral.eigsh

    def wrong(*args, **kwargs):
        values, vectors = solve(*args, **kwargs)
        return values * (1.0 + 1.0e-6), vectors

    monkeypatch.setattr(spectral, "eigsh", wrong)
