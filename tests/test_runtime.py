import os
import subprocess
import sys
from pathlib import Path

import pytest

import lankgc

SRC = str(Path(lankgc.__file__).resolve().parent.parent)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_var_after_import(**env_vars):
    """OPENBLAS_NUM_THREADS as a fresh interpreter sees it after ``import lankgc``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    code = "import os, lankgc; print(os.environ.get('OPENBLAS_NUM_THREADS', '-'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_defaults_blas_to_one_thread():
    assert blas_var_after_import() == "1"


@pytest.mark.parametrize("var", THREAD_VARS)
def test_import_keeps_a_caller_thread_setting(var):
    expected = "3" if var == "OPENBLAS_NUM_THREADS" else "-"
    assert blas_var_after_import(**{var: "3"}) == expected
