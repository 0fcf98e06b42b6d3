"""The demo scripts run end to end on small inputs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv,header", [
    (["correspondence_table.py", "2", "1", "6"], "exact Segre-Verlinde comparison to order 6"),
    (["number_tables.py", "3"], "Segre numbers [z^n] V^c2 W^c1sq X^2 for rho=2, s=3, c2=2, c1sq=4"),
])
def test_script_runs_and_prints_its_header(argv, header):
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
