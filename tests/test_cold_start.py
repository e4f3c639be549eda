"""Cold start: the service and worker processes never import scipy.

Every shard worker is a fresh spawned interpreter, so whatever the
service modules import at module level is paid again on each start and
respawn.  scipy is used by exactly two functions on these paths
(``MinStressScheduler.schedule`` and ``mean_confidence_interval``), which
import it when they run.  The check runs in a fresh interpreter: in the
test process scipy is already loaded by other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = """
import sys

import repro
import repro.net
import repro.net.procpool
import repro.service
import repro.sim.fast

assert "scipy" not in sys.modules, "a cold service import loaded scipy"

from repro.core import MinStressScheduler
from repro.graphs.conversion import CircularConversion
from repro.graphs.request_graph import RequestGraph
from repro.sim.results import mean_confidence_interval

rg = RequestGraph(CircularConversion(4, 1, 1), [2, 0, 1, 1])
print(MinStressScheduler().schedule(rg).n_granted)
mean, lo, hi = mean_confidence_interval([1.0, 2.0, 4.0])
print(f"{mean:.6f} {lo:.6f} {hi:.6f}")
"""


def test_service_imports_leave_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    n_granted, interval = out.stdout.splitlines()
    # Two requests on wavelength 0, one each on 2 and 3; every request
    # reaches a free channel (d = 3), so all four are granted.
    assert int(n_granted) == 4
    mean, lo, hi = map(float, interval.split())
    # Student-t interval, 2 degrees of freedom: mean 7/3, half-width
    # t(0.975, 2) * s / sqrt(3) = 4.302653 * 1.527525 / 1.732051
    # = 3.794583.
    assert mean == pytest.approx(7 / 3)
    assert hi - mean == pytest.approx(3.794583, abs=1e-6)
    assert mean - lo == pytest.approx(hi - mean)
