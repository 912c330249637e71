"""Host speed, measured from inside the process whose time it corrects.

The host this benchmark was written on changes speed by up to 2x within a
minute, for minutes at a time.  A SpeedProbe runs a short fixed pure-Python
kernel on a SIGALRM, between the program's bytecodes, and records how long it
took.  A time is turned into reference seconds by scaling it with
REF_PROBE_S / the mean kernel time while it ran.

This module imports only the standard library, so an `rsg` child process can
load it at little cost.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# Time of the probe kernel on the reference machine (2-vCPU Intel Xeon VM, Python 3.11.7).
REF_PROBE_S = 0.0005
PROBE_EVERY_S = 0.05
# for processes that last 0.1-4 s (set-up, `rsg` children), so that each gets
# several samples; the kernel then takes about 5% of their time
FAST_PROBE_EVERY_S = 0.01


class SpeedProbe:
    """Samples the speed of the CPU the program runs on, from inside the timed calls.

    A SIGALRM every `every` seconds runs the kernel.  An op's reference time
    is its wall time scaled by REF_PROBE_S / the mean kernel time during the
    op.  In a one-minute test on the host this benchmark was written on,
    repeated search ops varied two to four times less in reference time than
    in wall time.  No thread is started.
    """

    def __init__(self, every=PROBE_EVERY_S):
        self.every = every
        self.ends = []           # sample end times, increasing
        self.kernels = []        # kernel seconds of each sample

    def sample(self, *_):
        start = perf_counter()
        table, acc = {}, 0
        for i in range(1500):
            k = (i * 7919) % 1009
            table[k] = i
            acc += (k << 40 | i).bit_length()
        end = perf_counter()
        self.ends.append(end)
        self.kernels.append(end - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def warm_up(self, runs=10):
        """Run the kernel until the interpreter has specialised it; the samples are dropped."""
        for _ in range(runs):
            self.sample()
        self.ends.clear()
        self.kernels.clear()

    def speed(self, start):
        """REF_PROBE_S / mean kernel time since start (at least the last four samples)."""
        self.sample()
        i = bisect.bisect_left(self.ends, start)
        kernels = self.kernels[min(i, len(self.kernels) - 4):]
        return REF_PROBE_S * len(kernels) / sum(kernels)


def run_cli(kernel_path, spans_path=None):
    """Entry of an `rsg` child process: run the CLI under a SpeedProbe.

    Writes the mean kernel time of the process to `kernel_path`, also when the
    CLI raises or exits.  With `spans_path` the CLI runs under spans.run_cli.
    """
    probe = SpeedProbe(FAST_PROBE_EVERY_S)
    probe.warm_up(2)
    try:
        with probe:
            if spans_path is None:
                from rsgraphs.cli import main
                return main()
            import spans
            return spans.run_cli(spans_path)
    finally:
        probe.sample()
        with open(kernel_path, "w") as fh:
            fh.write(repr(sum(probe.kernels) / len(probe.kernels)))
