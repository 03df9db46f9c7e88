#!/usr/bin/env python
"""Run pytest in an interpreter where ``import numpy`` fails.

A meta-path finder refuses ``numpy`` and its submodules, as if the
package were not installed; nothing is uninstalled.  The batch engine
is NumPy-only, so this is how the suite holds ``--kernel vector`` and
``--kernel auto`` to the tuple loop's output without NumPy.  (Setting
``sys.modules["numpy"] = None`` also blocks the import, but Hypothesis
takes any ``"numpy"`` key in ``sys.modules`` as NumPy being loaded.)

Usage: PYTHONPATH=src python ci/without_numpy.py -x -q tests

The arguments are pytest's; the exit code is pytest's.  As under
``python -m pytest``, the working directory (not ``ci/``) heads
``sys.path``.
"""

import os
import sys

import pytest


class _NoNumpy:
    """A meta-path finder that refuses NumPy."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


if __name__ == "__main__":
    sys.path[0] = os.getcwd()
    sys.meta_path.insert(0, _NoNumpy)
    sys.exit(pytest.main(sys.argv[1:]))
