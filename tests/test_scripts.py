"""The example scripts run against the public API at tiny sizes."""
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, expected", [
    ("convergence_ladder.py", ["--n", "2", "--sizes", "100,200", "--trials", "2"],
     "exact 1.0000 3.0000 11.0000 0.5000 1.0000 0.0000"),
    ("spectral_histogram.py", ["--n", "2", "--N", "200", "--trials", "2",
                               "--bins", "10"],
     "bulk support: [0.1716, 5.8284]"),
    ("factor_parameters.py", ["--max-n", "4", "--r", "3", "--d", "2",
                              "--steps", "2"],
     "2 C[1/2] (+) LZ[1/2] 3/2 1.500000"),
])
def test_script_runs(package_env, script, args, expected):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          env=package_env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in {" ".join(line.split()) for line in proc.stdout.splitlines()}
