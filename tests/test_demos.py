"""Every demo script runs to completion, in a fresh working directory, and
every documented config passes ``load_config``."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from framepr import load_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("doc", ["README.md", "demos/05_fisher_crlb.py", "demos/07_benchmark_harness.py"])
def test_documented_configs_load(doc):
    text = (ROOT / doc).read_text()
    if doc.endswith(".md"):
        configs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]
    else:
        configs = [ast.literal_eval(node.value) for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["config"]]
    assert configs
    for config in configs:
        load_config(config)
