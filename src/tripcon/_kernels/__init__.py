"""Kernel backend selection.

Two interchangeable kernels drive ``enumerate_conflicts``: the compiled
extension ``_fast`` (built from the hand-written C99 source _fast.c) and
the pure-Python twin ``pure``.  Default is the compiled one when
available.  Set TRIPCON_BACKEND=pure (or fast, or auto) to
override, or pass ``backend=`` to the library calls.

``_fast`` has one build: import compiles ``_fast.c`` with the C compiler
Python was built with (sysconfig's ``CC``) into
``$XDG_CACHE_HOME/tripcon/<sha256 of _fast.c>-<EXT_SUFFIX>/``
(``~/.cache`` when XDG_CACHE_HOME is unset), once per digest, and loads
it from there, so an edit to ``_fast.c`` is always the code that runs.
A failed compile is recorded in that directory as ``build-failed.txt``
and not retried; delete the file to retry.  The pure kernel is used
meanwhile, unless TRIPCON_BACKEND=fast asks for the compiled one, which
then raises with the compiler's message.  TRIPCON_BACKEND=pure skips
the build and the cache.
"""

import hashlib
import importlib.util
import os
import sys
import sysconfig

_ENV = os.environ.get("TRIPCON_BACKEND", "auto").strip().lower() or "auto"
_SOURCE = os.path.join(os.path.dirname(__file__), "_fast.c")
_FAILED = "build-failed.txt"


def _cache_dir(source):
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    digest = hashlib.sha256(source).hexdigest()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return os.path.join(root, "tripcon", f"{digest}-{suffix}")


def _compile(target):
    """Compile _fast.c to ``target``; return None or why it failed."""
    import shlex
    import shutil
    import subprocess

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        return f"no C compiler found (sysconfig CC is {cc[0]!r})"
    tmp = f"{target}.{os.getpid()}.tmp"
    cmd = cc + ["-O3", "-shared", "-fPIC",
                "-I" + sysconfig.get_paths()["include"], _SOURCE, "-o", tmp]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              errors="replace")
        if proc.returncode == 0:
            os.replace(tmp, target)
            return None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    reason = (f"compiling _fast.c failed (exit {proc.returncode}): "
              f"{shlex.join(cmd)}\n{proc.stderr[-2000:]}")
    with open(os.path.join(os.path.dirname(target), _FAILED), "w",
              encoding="utf-8") as fh:
        fh.write(reason)
    return reason


def _build_and_load():
    """Load _fast from the cache, compiling it there first if needed.

    Returns ``(module, None)`` or ``(None, reason)``.
    """
    if _ENV == "pure":
        return None, "not built because TRIPCON_BACKEND=pure"
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        cache = _cache_dir(source)
        target = os.path.join(cache, "_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
        if not os.path.exists(target):
            failed = os.path.join(cache, _FAILED)
            if os.path.exists(failed):
                with open(failed, encoding="utf-8") as fh:
                    return None, f"an earlier build failed ({failed}): {fh.read()}"
            os.makedirs(cache, exist_ok=True)
            reason = _compile(target)
            if reason is not None:
                return None, reason
        name = f"{__name__}._fast"
        spec = importlib.util.spec_from_file_location(name, target)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (OSError, ImportError) as exc:
        return None, f"{exc.__class__.__name__}: {exc}"
    sys.modules[name] = module
    return module, None


_fast, _WHY_NO_FAST = _build_and_load()
_HAVE_FAST = _fast is not None


def available_backends():
    return ("fast", "pure") if _HAVE_FAST else ("pure",)


def _unavailable():
    return ImportError(f"the tripcon compiled kernel is not available: "
                       f"{_WHY_NO_FAST} (use backend='pure')")


def resolve(name=None):
    """Map a requested backend name (or None) to the one to use."""
    req = (name or _ENV).strip().lower()
    if req in ("auto", ""):
        return "fast" if _HAVE_FAST else "pure"
    if req == "fast":
        if not _HAVE_FAST:
            raise _unavailable()
        return "fast"
    if req == "pure":
        return "pure"
    raise ValueError(f"unknown backend {req!r} (use auto, fast, or pure)")


def fast_module():
    if _fast is None:
        raise _unavailable()
    return _fast
