"""Smoke test: the quick demos run to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", ["01_autodiff_basics.py", "02_rope_geometry.py",
                                  "04_label_denoising.py", "05_train_eval_loop.py"])
def test_demo_runs(demo, tmp_path):
    _run_demo(demo, tmp_path)


def test_color_correction_demo_gains_psnr(tmp_path):
    out = _run_demo("03_color_correction.py", tmp_path)
    m = re.search(r"held-out PSNR: (\S+) dB -> (\S+) dB \(\+(\S+) dB\)", out)
    assert m, out
    before, after, gain = (float(v) for v in m.groups())
    assert after > before and gain > 0.0
