"""The order in which importing the package loads SciPy's subpackages.

A fresh process's start-up depends on it: when ``scipy.optimize`` loads
before ``scipy.spatial``, ``scipy.special`` is first loaded through
scipy.optimize's fft imports, and perfbench's ``setup_s`` was 12-20%
higher (see the comment in ``repro/alignment/__init__.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap


def test_scipy_special_and_spatial_enter_sys_modules_before_optimize():
    # The order of `sys.modules` itself cannot tell: importlib re-inserts a
    # module when its load completes, and scipy.optimize completes after
    # scipy.special and scipy.spatial whichever starts first.  A meta-path
    # finder that finds nothing sees each import start, which is when the
    # module enters `sys.modules`.
    code = textwrap.dedent(
        """
        import sys

        entered = []

        class Recorder:
            def find_spec(self, name, path=None, target=None):
                entered.append(name)
                return None

        sys.meta_path.insert(0, Recorder())
        import repro, repro.cli

        names = ("scipy.special", "scipy.spatial", "scipy.optimize")
        print(*(entered.index(name) if name in entered else len(entered) for name in names))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    special, spatial, optimize = (int(index) for index in done.stdout.split())
    assert special < optimize and spatial < optimize, done.stdout
