"""Smoke tests: the fast example scripts run to completion.

The two long-running simulation studies (`packet_switch_simulation.py`,
`burst_switching.py`, `approximation_tradeoff.py`) are exercised by the
equivalent experiments instead; here the quick scripts are executed for
real so the documented entry points cannot rot.
"""

import runpy
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.skipif(not EXAMPLES.exists(), reason="examples directory missing")
class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart.py", capsys)
        assert "granted 6, dropped 1" in out
        assert "matches the maximum matching size (6)" in out

    def test_hardware_pipeline(self, capsys):
        out = _run("hardware_pipeline.py", capsys)
        assert "FA unit: 8 cycles" in out
        assert "BFA parallel" in out or "BFA serial" in out
        assert "datapath:" in out

    def test_analysis_tour(self, capsys):
        out = _run("analysis_tour.py", capsys)
        assert "no augmenting path" in out
        assert "Erlang-B" in out
        assert "Corollary-1 bound" in out

    def test_service_demo(self, capsys):
        out = _run("service_demo.py", capsys)
        assert "interactive request" in out
        assert "grant latency" in out
        assert "conservation check" in out

    def test_chaos_demo(self, capsys):
        out = _run("chaos_demo.py", capsys)
        assert "restarted 1x" in out
        assert "retries through the outage" in out
        assert "conservation check under chaos" in out

    def test_recovery_demo(self, capsys):
        out = _run("recovery_demo.py", capsys)
        assert "recovered from snapshot+journal" in out
        assert "bit-identical to the uninterrupted baseline" in out
        assert "busy[] matches the pre-death state exactly" in out
        assert "refused as DUPLICATE" in out
        assert "replayed the original grant" in out

    def test_net_demo(self, capsys):
        out = _run("net_demo.py", capsys)
        assert "handshake: protocol v6" in out
        assert "over TCP (conservation: True)" in out
        assert "matches pre-kill state exactly: True" in out
        assert "clean shutdown" in out

    def test_all_examples_importable(self):
        """Every example parses (catches syntax rot in the slow ones too)."""
        for script in sorted(EXAMPLES.glob("*.py")):
            source = script.read_text()
            compile(source, str(script), "exec")
        assert len(list(EXAMPLES.glob("*.py"))) >= 6

    def test_examples_do_not_leak_sys_path(self):
        assert str(EXAMPLES) not in sys.path
