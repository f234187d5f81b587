"""Fixtures shared by the test modules."""

import pytest

from otkit import DenseGeometry, Geometry, GridGeometry, PointCloudGeometry, lowrank


@pytest.fixture
def lse_calls(monkeypatch) -> list:
    """Records every apply_lse_kernel call on the three backends."""
    calls = []
    for cls in (DenseGeometry, PointCloudGeometry, GridGeometry):
        original = cls.apply_lse_kernel

        def spy(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "apply_lse_kernel", spy)
    return calls


@pytest.fixture
def cost_matrix_calls(monkeypatch) -> list:
    """Records every cost_matrix call, by backend; the backends share the
    method of the Geometry base."""
    calls = []
    original = Geometry.cost_matrix

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Geometry, "cost_matrix", spy)
    return calls


@pytest.fixture
def log_domain(monkeypatch):
    """Call it to make every backend's kernel builder and the low-rank
    Newton projection decline, so that the solves that follow run in the
    log domain, the reference."""

    def force():
        for cls in (Geometry, GridGeometry):
            monkeypatch.setattr(cls, "_gibbs", lambda self, eps, old: None)
        monkeypatch.setattr(lowrank, "_newton", lambda *args: None)

    return force
