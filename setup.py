"""Build script: compiles the kernel extension from `_core.pyx` when Cython
is available and from the committed, Cython-generated `_core.c` otherwise;
the package falls back to the numpy kernels in ietflow._core_py when no
extension is built."""

from setuptools import Extension, setup

ext_modules = []
try:
    import numpy as np
except ImportError:
    np = None

if np is not None:
    def kernel(source):
        return Extension(
            "ietflow._core",
            [source],
            include_dirs=[np.get_include()],
            extra_compile_args=["-O3"],
            define_macros=[("NPY_NO_DEPRECATED_API", "NPY_1_7_API_VERSION")],
        )

    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [kernel("src/ietflow/_core.c")]
    else:
        ext_modules = cythonize([kernel("src/ietflow/_core.pyx")],
                                compiler_directives={"language_level": "3"})

setup(ext_modules=ext_modules)
