"""The record of the machine and software a result was measured on."""

import ctypes
import glob
import hashlib
import os
import platform

import numpy
import scipy

# Thread-count getters of the OpenBLAS builds that numpy and scipy wheels bundle.
_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads(package):
    """Threads of the BLAS bundled with `package`, or None when it cannot be asked."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            f"{package.__name__}.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _THREAD_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def _build(dependency):
    info = numpy.__config__.CONFIG["Build Dependencies"][dependency]
    return {key: info.get(key) for key in ("name", "version", "openblas configuration")}


def _git_commit(root):
    """HEAD of the repository at `root`, read from its files; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(src):
    """SHA-256 over the library's sources, which names the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "targetsel", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def record(root, seed, protocol_seed):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _build("blas"),
        "lapack": _build("lapack"),
        "blas_threads": {"numpy": _blas_threads(numpy), "scipy": _blas_threads(scipy)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.join(root, "src")),
        "seed": seed,
        "protocol_seed": protocol_seed,
    }
