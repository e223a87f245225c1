"""Time what every epifrost CLI call pays before it works, in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]

Prints one JSON line: the seconds spent importing epifrost, the seconds spent
in ``load_config`` over the given configs (kernel compilation and any Monte
Carlo moment estimation included), the speed ticks that ran meanwhile, and
where epifrost was imported from.

Like the benchmark's own process, the probe samples the machine's speed with
a SIGALRM timer while it works: every 5 ms it times ``tick_work``, an
interpreter loop plus a scan of a 256 KiB buffer.  The tick uses no numpy,
so that numpy's import stays in the time measured.
"""

import json
import signal
import sys
import time

TICK_INTERVAL_S = 0.005
BUFFER = bytearray(1 << 18)
ticks = []


def tick_work() -> int:
    total = 0
    for i in range(3000):
        total += i * i
    return total + BUFFER.count(1)


def on_tick(signum, frame) -> None:
    t0 = time.perf_counter()
    tick_work()
    ticks.append(time.perf_counter() - t0)


signal.signal(signal.SIGALRM, on_tick)
signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
t0 = time.perf_counter()
import epifrost  # noqa: E402
from epifrost.config import load_config  # noqa: E402

t1 = time.perf_counter()
n_import = len(ticks)
for path in sys.argv[1:]:
    load_config(path)
t2 = time.perf_counter()
signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
print(json.dumps({"import_s": t1 - t0 - sum(ticks[:n_import]),
                  "load_config_s": t2 - t1 - sum(ticks[n_import:]),
                  "ticks": len(ticks), "tick_mean_s": sum(ticks) / max(1, len(ticks)),
                  "epifrost_file": epifrost.__file__}))
