"""Host speed measured alongside the jobs.

The speed of a shared host drifts by up to half within a minute.  A
light fixed loop in a second process slows and speeds up with the jobs,
so a job's CPU time can be rescaled by the loop's mean CPU time over
exactly the job's interval.  CPU time on both sides leaves out the
intervals in which either process waited for a core.

Run as a script, this module is the loop: every PERIOD_S it runs one
repetition and prints "<end> <cpu seconds>" on stdout, where end is
perf_counter, the system-wide monotonic clock, and the CPU seconds are
the repetition's thread time.  SpeedProbe starts it, collects the lines
and stops it.
"""

import os
import subprocess
import sys
import time

PERIOD_S = 0.03


def _loop():
    import numpy as np

    base = np.random.default_rng(0).standard_normal(20_000)
    small = np.random.default_rng(1).standard_normal((8, 10))
    while True:
        c0 = time.thread_time()
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        np.sort(base.copy())
        v = np.tanh(small @ small[0])
        for _ in range(30):
            v = np.tanh(small @ np.concatenate([v, v[:2]]))
        c1 = time.thread_time()
        print(f"{time.perf_counter()!r} {c1 - c0!r}", flush=True)
        time.sleep(PERIOD_S)


class SpeedProbe:
    """Context manager that runs the loop in a child process and keeps
    its (end, seconds) samples.  The pipe is drained only when samples
    are asked for, so no thread of this process wakes during a job."""

    def __enter__(self):
        self.samples = []
        self._partial = b""
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE)
        os.set_blocking(self._proc.stdout.fileno(), False)
        deadline = time.perf_counter() + 60.0
        while not self._drain():
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__()
                raise RuntimeError("speed probe did not start")
            time.sleep(0.01)
        return self

    def _drain(self):
        """Parse every complete line waiting in the pipe; the pipe holds
        about a minute of samples, longer than any job."""
        while True:
            try:
                chunk = os.read(self._proc.stdout.fileno(), 65536)
            except BlockingIOError:
                break
            if not chunk:
                break
            self._partial += chunk
        *lines, self._partial = self._partial.split(b"\n")
        for line in lines:
            end, seconds = line.split()
            self.samples.append((float(end), float(seconds)))
        return self.samples

    def __exit__(self, *exc):
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def loop_seconds(self, t0, t1):
        """Mean loop CPU time over the samples that ended in [t0, t1],
        widened by one period on each side until it holds a sample."""
        self._drain()
        widen = 0.0
        while widen < 10.0:
            vals = [s for end, s in self.samples if t0 - widen <= end <= t1 + widen]
            if vals:
                return sum(vals) / len(vals)
            widen += PERIOD_S
        raise RuntimeError("no speed probe samples near the measured interval")


if __name__ == "__main__":
    try:
        _loop()
    except (BrokenPipeError, KeyboardInterrupt):
        sys.exit(0)
