"""Machine-speed calibration: fixed tasks timed between operations.

The 2-vCPU virtual machine this benchmark was tuned on shares its cores
with other guests, and runs the same code up to twice as slowly at some
moments as at others; slow spells last from milliseconds to minutes.
Raw wall times of identical runs a few minutes apart spread by up to 35%.
So each run also times a fixed task that does not touch su3geom, between
its operations, and scales every timing by ``REFERENCE_S[kind] / t``, where
``t`` is the mean time of the task in the same round.  A slowdown that hits
the task and su3geom alike cancels; a change to su3geom does not touch the
task and shows in full.  The reference times are the task's typical times
on that machine (numpy 2.4.6, Python 3.11), so scaled figures read as
seconds there.

Three tasks match the three kinds of work timed: ``batched`` runs numpy
on stacks of 3x3 complex matrices larger than the caches, as
``compose_many`` does; ``scalar`` runs small numpy calls and Python
arithmetic one element at a time, as ``decompose`` and the frames do;
``import`` imports modules in a fresh interpreter, as set-up does.
The tasks, their sizes and the reference times must not change, or
figures from before and after the change stop being comparable.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

#: Typical duration of one task on the reference machine, in seconds.
REFERENCE_S = {"batched": 0.17, "scalar": 0.001, "import": 0.1}

#: The set-up task, run in the fresh interpreter just before it imports
#: su3geom: standard-library modules that neither numpy nor su3geom loads.
IMPORT_TASK = ("import asyncio, decimal, email.mime.multipart, http.server, "
               "unittest, xml.dom.minidom")


class Calibrator:
    def __init__(self, kind):
        rng = np.random.default_rng(0)
        self.kind = kind
        if kind == "batched":
            self.z = rng.standard_normal((131072, 3, 3)) * (1 + 1j)
            self.task = self._batched
        else:
            self.z = rng.standard_normal((3, 3)) * (1 + 1j)
            self.task = self._scalar

    def _batched(self):
        y = self.z @ self.z
        y = np.exp(1j * y.real) @ y
        return np.einsum("nii->n", y).sum()

    def _scalar(self):
        acc = 0.0
        m = self.z
        for _ in range(40):
            m = m @ self.z / np.linalg.norm(m)
            d = np.linalg.det(m)
            c, s = math.cos(acc), math.sin(acc)
            m = m @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], dtype=complex)
            acc += math.atan2(abs(m[0, 1]), abs(m[0, 0])) + float(np.angle(d)) % math.pi
        return acc

    def sample(self):
        """Run the task once; return its wall time in seconds."""
        start = perf_counter()
        self.task()
        return perf_counter() - start

    def factor(self, samples):
        """Scale factor for timings taken alongside these task times."""
        return REFERENCE_S[self.kind] / (sum(samples) / len(samples))
