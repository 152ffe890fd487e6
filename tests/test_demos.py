"""Smoke test: the quick demos run to completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo, cwd, argv0=sys.executable, env=None):
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([argv0, str(ROOT / "demos" / demo)], cwd=cwd,
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


def test_cli_walkthrough_runs(tmp_path):
    # the walkthrough calls `segkit`: a shim on PATH runs this source tree's CLI
    shim_dir = tmp_path / "bin"
    shim_dir.mkdir()
    shim = shim_dir / "segkit"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m segkit.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PATH=os.pathsep.join([str(shim_dir), os.environ.get("PATH", "")]))
    out = _run_demo("06_cli_walkthrough.sh", tmp_path, argv0="sh", env=env)
    assert "all steps completed" in out
