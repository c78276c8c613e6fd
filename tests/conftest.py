import pytest

from gbscavity import angular


@pytest.fixture
def nudged_j3(monkeypatch):
    """Swap in a J3 with 1e-6 added at [0, 0], so the analytic triple no longer
    fits; verify_eigenbasis looks j3_operator up when it is called."""
    exact = angular.j3_operator

    def nudged(p, phi):
        op = exact(p, phi)
        op[0, 0] += 1e-6
        return op

    monkeypatch.setattr(angular, "j3_operator", nudged)
