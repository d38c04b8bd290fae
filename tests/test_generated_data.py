"""The generated data in git matches what its scripts produce today."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def generate(script, out):
    subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                    "--out", str(out)], check=True, capture_output=True)


def tree(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_generated_files_match_the_shipped_ones(tmp_path):
    generate("gen_corpora.py", tmp_path / "corpora")
    generate("gen_simple_orders.py", tmp_path / "so.txt")
    assert tree(tmp_path / "corpora") == tree(ROOT / "corpora")
    assert ((tmp_path / "so.txt").read_bytes()
            == (ROOT / "src" / "holoscreen" / "data" / "simple_orders.txt")
            .read_bytes())
