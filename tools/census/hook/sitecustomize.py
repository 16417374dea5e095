"""The dynamic census's function-entry hook.

The census puts this directory first on ``PYTHONPATH``, so every Python
process it starts, and every child those processes start, imports this
module at start-up.  The hook is a global trace function on the process
and on every thread it starts; it returns ``None``, so no line is traced.

The first time a code object whose file lies under ``$CENSUS_PACKAGE``
is entered, one ``file<TAB>first line<TAB>name`` line is appended to
``$CENSUS_LOG/<pid>.log`` and flushed, so a process that ends by
``os._exit`` loses nothing.  Without both variables the hook does nothing.
"""

import os
import sys
import threading


def _install() -> None:
    package = os.environ.get("CENSUS_PACKAGE")
    log_dir = os.environ.get("CENSUS_LOG")
    if not package or not log_dir:
        return
    prefix = os.path.join(os.path.realpath(package), "")
    seen = set()
    under = {}
    logs = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if code in seen:
            return None
        # Two threads may both log one code object; the reader takes a set.
        seen.add(code)
        # The file's real path if it lies under the package, else "".
        real = under.get(code.co_filename)
        if real is None:
            real = os.path.realpath(code.co_filename)
            real = under[code.co_filename] = real if real.startswith(prefix) else ""
        if real:
            pid = os.getpid()
            log = logs.get(pid)
            if log is None:
                log = logs[pid] = open(
                    os.path.join(log_dir, f"{pid}.log"), "a", buffering=1,
                    encoding="utf-8",
                )
            log.write(f"{real}\t{code.co_firstlineno}\t{code.co_name}\n")
        return None

    threading.settrace(hook)
    sys.settrace(hook)


_install()
