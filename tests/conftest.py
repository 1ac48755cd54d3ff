import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """The compiled kernel module `ietflow._core`: the installed build if
    there is one, else the committed `_core.c` built with gcc into a
    temporary directory (never into src/) and loaded from there.  Skips
    when neither is possible."""
    try:
        from ietflow import _core
        return _core
    except ImportError:
        pass
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("compiled kernels unavailable: no built extension and "
                    "no gcc on PATH")
    import numpy

    target = tmp_path_factory.mktemp("core") / (
        "_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [gcc, "-shared", "-fPIC", "-O3",
         "-I" + sysconfig.get_paths()["include"], "-I" + numpy.get_include(),
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
         os.path.join(SRC, "ietflow", "_core.c"), "-o", str(target)],
        capture_output=True, text=True)
    if build.returncode:
        pytest.skip("compiled kernels unavailable: gcc could not build "
                    "_core.c: %s" % build.stderr.strip()[-300:])
    spec = importlib.util.spec_from_file_location("ietflow._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
