import os
import subprocess
import sys
from pathlib import Path

import pytest

import bisetkit
import bisetkit.cache as cache


@pytest.fixture(scope="session", autouse=True)
def _cache_to_tmp(tmp_path_factory):
    """Keep lattice cache files out of the working tree during tests."""
    cache.set_cache_dir(str(tmp_path_factory.mktemp("lattice-cache")))
    yield
    cache.set_cache_dir(None)


@pytest.fixture
def run_optimized(tmp_path):
    """Run a code string under python -O in the test's tmp_path; it must exit 0.
    python -O strips asserts, so this shows a check does not depend on one."""
    def run(code):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        env["PYTHONPATH"] = str(Path(bisetkit.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return run
