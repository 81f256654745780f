"""What the tools in this directory share: the one loader, by which each
measures the tree it sits in and only that tree, and the pairs they fit.

``load`` pins one BLAS thread unless OPENBLAS_NUM_THREADS is set (a threaded
product rounds differently, and the tables should not depend on the host's
core count), puts this tree's ``src`` first on the import path, checks that
``envest`` comes from there and prints the machine line: digests depend on
the Python, numpy and BLAS versions and on the CPU, so a record holds on the
machine its first line names.  The line names the CPU by its model name and
by the kernel set OpenBLAS chose for it, since one model name can cover
CPUs that OpenBLAS runs with different kernels.
"""

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(doc, benchmarks=False):
    """Import this tree's ``envest`` (and, with benchmarks, its benchmark
    workloads) and print the machine line.  A tool given any argument exits
    with its usage line, the second paragraph of its docstring ``doc``."""
    if len(sys.argv) > 1:
        raise SystemExit(doc.split("\n\n")[1])
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "benchmarks")] if benchmarks else [str(src)]
    import envest

    if Path(envest.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: envest was imported from {envest.__file__}, not {src}")
    print(machine(), flush=True)


def pairs(kind, d, u, n, seeds):
    """The ObjectivePair of ``generate_instance(d, u, s)`` for each seed s:
    its M and U (population), or ``simulate._sample_pair`` of n observations
    drawn with seed s + 1 (sample)."""
    from envest import simulate
    from envest.objective import ObjectivePair

    out = []
    for s in seeds:
        inst = simulate.generate_instance(d, u, s)
        if kind == "population":
            out.append(ObjectivePair.from_m_u(inst.m, inst.u_mat))
        else:
            out.append(ObjectivePair.from_m_u(*simulate._sample_pair(inst, n, s + 1)))
    return out


def openblas_core():
    """The kernel set the scipy-openblas that numpy's wheels bundle chose
    for this CPU at run time (a build with DYNAMIC_ARCH picks it then, not
    at numpy's build), or "unknown" where numpy links another BLAS."""
    import numpy as np

    try:
        core = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    core.argtypes, core.restype = (), ctypes.c_char_p
    return core().decode()


def machine():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return (f"machine: python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas['version']}, {platform.machine()}, "
            f"cpu {cpu}, openblas core {openblas_core()}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
