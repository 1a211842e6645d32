"""Process hygiene shared by ``run.py`` and ``freeze.py``.

Both re-exec themselves once with a pinned ``PYTHONHASHSEED`` (set
orders, and so engine step counts, depend on it) and with every cache
and temporary directory pointed inside a per-run work directory under
the checkout, so nothing from ``~/.cache/repro`` — or an earlier run —
can warm a "cold" number.
"""

from __future__ import annotations

import atexit
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of every run (ignored by git); each run owns a fresh
#: subdirectory and removes it on exit.
WORK_ROOT = HERE / "work"
#: Where span dumps and per-cell rows are written (ignored by git).
OUT_DIR = HERE / "out"

HASH_SEED = "0"
_MARK = "PERFBENCH_WORKDIR"


def require_source_tree() -> None:
    """Exit non-zero unless the checkout holds the program's source."""
    if not (SRC / "repro" / "service" / "jobs.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the "
              f"root of a full checkout", file=sys.stderr)
        raise SystemExit(2)


def enter() -> Path:
    """Pin the interpreter state; returns this run's work directory.

    The first call re-execs the interpreter (same pid, so no process
    is left behind) with ``PYTHONHASHSEED``, ``TMPDIR`` and
    ``XDG_CACHE_HOME`` set; the second, in the new image, just puts
    ``src`` on ``sys.path``.
    """
    require_source_tree()
    workdir = os.environ.get(_MARK)
    if workdir is None or os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        env = dict(os.environ)
        env[_MARK] = workdir
        env["PYTHONHASHSEED"] = HASH_SEED
        env["XDG_CACHE_HOME"] = os.path.join(workdir, "xdg")
        # Unix-socket paths (the forkserver's listener) must stay
        # short; a deep checkout keeps the system temporary directory.
        if len(workdir) < 60:
            env["TMPDIR"] = workdir
        env["PYTHONPATH"] = str(SRC)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Registered before multiprocessing is imported, so it runs after
    # multiprocessing's own exit handler has removed its files here.
    atexit.register(shutil.rmtree, workdir, True)
    return Path(workdir)


def leave() -> None:
    """Stop multiprocessing's helper processes and wait for them."""
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker
    for helper in (getattr(forkserver, "_forkserver", None),
                   getattr(resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except (OSError, ChildProcessError):
                pass
