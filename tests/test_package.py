import os
import subprocess
import sys

import justnow
from justnow import data, evaluation, fitting, model


def test_all_reexports_the_library_modules():
    modules = (data, evaluation, fitting, model)
    assert sorted(justnow.__all__) == sorted(name for m in modules for name in m.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(justnow, name) is getattr(module, name)


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, justnow.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(justnow.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
