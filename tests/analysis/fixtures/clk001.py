"""CLK001 fixture — linted as ``core/clk001.py`` (a simulated layer).

Never imported at runtime; the linter parses it as text.
"""

import time
from datetime import datetime
from time import perf_counter


def violation_module_call():
    return time.time()  # expect CLK001


def violation_bare_import():
    return perf_counter()  # expect CLK001


def violation_datetime():
    return datetime.now()  # expect CLK001


def negative_simulated_clock(clock):
    # Reading a SimClock is the sanctioned path — no wall-clock call here.
    clock.advance(0.5)
    return clock.now()


def violation_sleep(simulated_s):
    # Waiting out simulated seconds on the host ties wall time to the model.
    time.sleep(simulated_s)  # expect CLK001


def suppressed_build_timer():
    return time.perf_counter()  # repro-lint: disable=CLK001
