"""Tests of the CLI output digests on one of the benchmark's tiny cases."""

import hashlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "output_digest", os.path.join(ROOT, "scripts", "output_digest.py")
)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_a_digest_is_the_sha256_of_the_cli_stdout(tmp_path, capsys):
    listed = list(output_digest.cases(str(tmp_path), smoke=True))
    names = [name for name, _ in listed]
    assert len(set(names)) == 27
    assert sum(name.startswith("simulate-k3 --projection") for name in names) == 3
    name, argv = listed[0]
    assert name == "infer-k3 seed=1 json"
    rc, sha = output_digest.digest(argv)
    assert capsys.readouterr().out == ""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "simplexci", *argv], env=env,
                          capture_output=True, timeout=60, check=True)
    assert rc == 0
    assert sha == hashlib.sha256(proc.stdout).hexdigest()
