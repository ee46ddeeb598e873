import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_disk_asymptotics_prints_morse_index_one():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "disk_asymptotics.py"), "--p", "20,80", "--spectrum"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    table = out[out.index("morse"):].splitlines()[1:]
    rows = {float(line.split()[0]): int(line.split()[1]) for line in table if line.strip()}
    assert rows == {20.0: 1, 80.0: 1}
