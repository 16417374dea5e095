"""Run the census's commands under the function-entry hook.

:func:`entered` runs each command in a subprocess whose ``PYTHONPATH``
leads with the hook's directory (``hook/sitecustomize.py``), then with
the checkout's ``src``; the hook logs every function of the package that
a process of the run entered, children and threads included.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Iterable, Set, Tuple

from .commands import Command

__all__ = ["CommandFailed", "Entry", "entered"]

#: The directory holding the hook's ``sitecustomize.py``.
HOOK_DIR = pathlib.Path(__file__).resolve().parent / "hook"

#: ``(real path, first line, name)`` of one entered code object.
Entry = Tuple[str, int, str]


class CommandFailed(RuntimeError):
    """A command ended with another exit status than the one it declares:
    a run that did not happen as listed counts no callers."""


def entered(root: pathlib.Path, commands: Iterable[Command]) -> Set[Entry]:
    """Every function under ``root/src/repro`` that some process of
    ``commands`` entered, run in order in one scratch directory."""
    src = root.resolve() / "src"
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        logs = pathlib.Path(scratch) / "logs"
        work = pathlib.Path(scratch) / "work"
        logs.mkdir()
        work.mkdir()
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join((str(HOOK_DIR), str(src))),
            CENSUS_PACKAGE=str(src / "repro"),
            CENSUS_LOG=str(logs),
        )
        for command in commands:
            argv = [
                part.format(python=sys.executable, root=root.resolve())
                for part in command.argv
            ]
            done = subprocess.run(
                argv, cwd=work, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, check=False,
            )
            if done.returncode != command.status:
                tail = done.stdout.decode("utf-8", "replace")[-4000:]
                raise CommandFailed(
                    f"{' '.join(command.argv)} exited {done.returncode}, "
                    f"not {command.status}:\n{tail}"
                )
        found: Set[Entry] = set()
        for log in logs.glob("*.log"):
            for line in log.read_text(encoding="utf-8").splitlines():
                path, first, name = line.split("\t")
                found.add((path, int(first), name))
    return found
