"""Order statistics and the environment stamp printed with every result."""

from __future__ import annotations

import os
import platform

TAIL_BEYOND = 10


def tail(values, beyond: int = TAIL_BEYOND):
    """Latency at the highest percentile with at least `beyond` samples
    above it: the (n - beyond)-th smallest of n values.

    Returns (value, percentile, n).  With `beyond` or fewer samples no such
    percentile exists; the maximum is returned with percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, n
    k = n - beyond
    return xs[k - 1], 100.0 * k / n, n


def git_revision(root: str) -> str:
    """HEAD of the checkout at `root`, read from .git without running git;
    "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import mpmath
    import numpy

    from ietflow import kernels, ratner

    return {
        "kernel": kernels.implementation_name(),
        "hp_backend": "mpmath" if ratner.gmpy2 is None else "gmpy2",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_revision": git_revision(root),
        "nproc": os.cpu_count(),
    }
