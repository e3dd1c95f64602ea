"""The pinned forecast bytes on another CPU.

Child processes rerun the golden ``train`` digests and ``TestOneModelType``'s
prediction digests, the tests themselves and so their pins, with numpy
dispatching no AVX-512 kernel, or with OpenBLAS running its Haswell kernels.
Each variable is set in the child's environment only.  A variant the host
cannot run, or that would change nothing on it, is skipped.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from test_golden_artifacts import GOLDEN

ROOT = Path(__file__).resolve().parents[1]
PINNED = [f"tests/test_golden_artifacts.py::test_artifact_digest_is_pinned[{stage}-{artifact}]"
          for stage, artifact in sorted(GOLDEN) if stage == "train"]
PINNED.append("tests/test_forecast.py::TestOneModelType::test_predictions_keep_pinned_bytes")

# numpy's dispatch targets above AVX2 that this host would use
AVX512 = [t for t in __cpu_dispatch__
          if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__.get(t)]

VARIANTS = {
    "avx2_dispatch": ({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)}, bool(AVX512),
                      "numpy dispatches no AVX-512 kernel here: the default run is this one"),
    "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, bool(__cpu_features__.get("AVX2")),
                         "the host lacks AVX2, which OpenBLAS's Haswell kernels need"),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_pins_hold_on_another_cpu(variant):
    variables, runs_here, reason = VARIANTS[variant]
    if not runs_here:
        pytest.skip(reason)
    env = {**os.environ, **variables,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
                           cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stdout + child.stderr
    assert f"{len(PINNED) + 1} passed" in child.stdout, child.stdout  # both trend modes
