"""The word and window oracle of ``bench/oracle.py``, which tier-1 checks the
kernel against: its primitive table is complete, and it stays independent
of the code it checks."""

import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import oracle

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("max_len, size", [(8, 88), (10, 128), (12, 184), (18, 408)])
def test_primitive_table_counts_every_class(max_len, size):
    # Osborne-Zieschang: the primitive classes of cyclic length n >= 2 number
    # 4 phi(n), beside the four generator letters u, u^-1, v, v^-1
    totients = [sum(gcd(k, n) == 1 for k in range(1, n + 1)) for n in range(2, max_len + 1)]
    assert len(oracle.primitive_classes(max_len)) == 4 + 4 * sum(totients) == size


def test_oracle_imports_nothing_from_hkannuli():
    """In a fresh interpreter where hkannuli is importable, importing the
    oracle and running its tables loads no hkannuli module."""
    code = ("import importlib.util, sys, oracle\n"
            "oracle.primitive_classes(6)\n"
            "oracle.exclusion_window(2, 1, 0, 0, 0, 1, 0)\n"
            "oracle.continued_fraction([1, 2, 3], 'literal')\n"
            "print(importlib.util.find_spec('hkannuli') is not None)\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'hkannuli'))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])}
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    assert child.stdout.split("\n")[:2] == ["True", "[]"]
