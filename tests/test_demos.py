import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapclock

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the child starts in a temp directory: put the directory this test
    # imported trapclock from first on its path, so it runs the same package
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(trapclock.__file__)))
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
