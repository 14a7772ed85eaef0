"""Every demo script runs to completion; each one asserts its own claims."""

import os
import pathlib
import subprocess
import sys

import pytest

import creditfactors as cf

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    # the demo runs in tmp_path, so a relative PYTHONPATH would not resolve
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cf.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_markdown_table_pads_each_column_to_its_widest_cell():
    # the demos print their tables with to_markdown, in subprocesses; this checks its layout
    text = cf.to_markdown(["name", "t"], [["alpha", 1.5], ["b", -12]])
    assert text == ("| name  | t   |\n"
                    "|-------|-----|\n"
                    "| alpha | 1.5 |\n"
                    "| b     | -12 |\n")
