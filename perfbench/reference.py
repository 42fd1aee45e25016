"""Host-speed reference: a fixed task timed beside every measured chunk.

The benchmark host is shared. For stretches of seconds to minutes,
identical work runs up to ~1.7x slower, and the loss shows as CPU time,
not as steal. So no estimator over the program's own timings removes it.
A fixed task runs right before and right after each timed chunk. It is
made of the same kinds of operations the program spends its time on:
scalar ``math`` calls, 3x3 numpy products and norms, small tuples. Its
duration says how fast the host is at that moment. A chunk's time in reference
seconds is its measured time scaled by ``REF_TASK_S`` over the mean of
the two bracketing task times.

The task does not touch the program, so a change to the program moves
the reference figures exactly as it moves the measured ones.
"""

import math
from time import perf_counter

import numpy as np

# Duration of the task on a quiet 2-vCPU Intel Xeon host (Python 3.11.7,
# numpy 2.4.6), where the benchmark was written.  A reference second is a
# second as it would read there.
REF_TASK_S = 0.4e-3
_ITERS = 60
_C, _S = math.cos(0.3), math.sin(0.3)
_ROT = np.array([[_C, -_S, 0.0], [_S, _C, 0.0], [0.0, 0.0, 1.0]])
_DIAG = np.array([1.0, 2.0, 3.0])


def _task():
    acc = 0.0
    m = np.eye(3)
    for i in range(_ITERS):
        x = 0.5 + i * 1e-3
        acc += (math.sqrt(x) * math.cos(x) - math.atan2(x, 1.0 + x)
                + math.hypot(x, 2.0))
        m = m @ _ROT
        acc += float(np.linalg.norm((m * _DIAG) @ m.T))
        acc += sorted((x, -x, 2.0 * x))[0]
    return acc


def task_seconds():
    """Wall time of the reference task, the quicker of two runs so that a
    single interrupt or collection cycle cannot skew a chunk's factor."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _task()
        best = min(best, perf_counter() - t0)
    return best
