import glob
import os
import subprocess
import sys

import pytest

import fracspec

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                      "demos", "*.py")))


def test_demos_are_found():
    # an empty glob would leave nothing to parametrize
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, demo):
    # each demo runs as a user would, in a directory of its own, against
    # the package the tests import
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracspec.__file__)))
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
