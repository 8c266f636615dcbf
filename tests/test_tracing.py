"""The benchmark's tracer wraps bubblescape functions and methods by name."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_traced_name():
    # A renamed traced function fails here rather than in the benchmark.
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
