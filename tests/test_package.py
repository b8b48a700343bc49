import os
import subprocess
import sys

import dpkanon


def test_every_exported_name_resolves():
    assert [name for name in dpkanon.__all__ if not hasattr(dpkanon, name)] == []


def test_cli_import_leaves_scipy_unloaded():
    # the matcher imports its KD-tree and the Gaussian forward map its ndtr
    # on first use, so a fresh start of the command line loads no scipy
    src = os.path.dirname(os.path.dirname(dpkanon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    code = ("import sys, dpkanon.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
