"""Host-speed probe: a fixed loop timed many times inside every pass.

The VM this benchmark was written on runs at two speeds about 1.5x
apart and switches between them many times a second, in a share that
drifts over minutes (README.md, "Machine noise").  A pass of a few
seconds therefore reads anywhere in that range.  Every ``INTERVAL_S``
of a pass, a timer signal runs ``kernel()``, a fixed pure-Python loop
that calls nothing in skewarch, and records how long it took.  The mean
of those samples over a phase says how fast the host ran during that
phase, so ``factor()`` rescales the phase's times to a host on which
the loop takes ``REFERENCE_S`` on average: the same work reads the
same whatever the host did, and a change to the program still shows,
because the loop does not change with it.

The handler runs between bytecodes of the main thread, in every phase,
and costs about 1 % of the pass.  Pool workers that the program forks
start the timer again and send their samples back through a pipe.
Where they sent any, their samples alone set the factor: their speed,
not the waiting parent's, sets a pool's times, and the parent's
samples, taken on a vCPU a worker just left, read slow at random.
"""

import os
import signal
import struct
import time

INTERVAL_S = 0.02
# mean kernel() time on the host the benchmark was written on, fast state
REFERENCE_S = 6e-5


def _mix(a, b):
    return (a * 7 + b) & 1023


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def step(self, k):
        return _Pair(self.y, (self.x + k * self.y) % 251)


def kernel(n=60):
    """Function and method calls, small tuples as dict keys and
    short-lived objects: the mix the program's kernels and cells run, on
    data small enough to stay cached.  Across host states, ``matrix``
    time grew as the 1.2 to 1.35th power of a loop of integer and dict
    operations alone, and as the 0.96th power of this mix."""
    acc = 0
    table = {}
    for i in range(n):
        key = (i & 15, acc & 15)
        table[key] = _mix(i, acc)
        acc = (acc + table[key]) % 65521
    pair = _Pair(1, 2)
    out = []
    for i in range(n):
        pair = pair.step(i)
        out.append(pair.x)
    return acc + sum(out)


class HostProbe:
    def __init__(self):
        self.samples = []               # this process's
        self.children = []              # the forked children's
        self._read_fd = self._write_fd = None

    def _sample(self, signum, frame, clock=time.perf_counter):
        t0 = clock()
        kernel()
        took = clock() - t0
        if self._read_fd is None:       # a forked child
            try:
                os.write(self._write_fd, struct.pack("d", took))
            except BlockingIOError:     # the parent has fallen behind
                pass
        else:
            self.samples.append(took)
            self._drain()

    def _drain(self) -> None:
        """Move the samples children have sent into ``children``; each
        is one 8-byte write, which a pipe keeps whole."""
        if self._read_fd is None:
            return
        while True:
            try:
                data = os.read(self._read_fd, 1 << 16)
            except BlockingIOError:
                return
            self.children.extend(x for (x,) in struct.iter_unpack("d", data))

    def _in_child(self) -> None:
        os.close(self._read_fd)
        self._read_fd = None
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def start(self) -> None:
        """Sample this process and every process it forks from now on."""
        self._read_fd, self._write_fd = os.pipe()
        os.set_blocking(self._read_fd, False)
        os.set_blocking(self._write_fd, False)
        os.register_at_fork(after_in_child=self._in_child)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; call it once the forked children have ended."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._drain()
        os.close(self._read_fd)
        os.close(self._write_fd)
        self._read_fd = self._write_fd = None

    def mark(self):
        """Where the next samples go: the start or end of a phase."""
        self._drain()
        return len(self.samples), len(self.children)

    def factor(self, start=(0, 0), end=(None, None)) -> float:
        """``REFERENCE_S`` over the mean sample of the phase between two
        marks (by default the whole pass): the children's samples when
        they sent any in it, else this process's, else this process's
        over the whole pass, when the phase was too short to sample."""
        part = (self.children[start[1]:end[1]]
                or self.samples[start[0]:end[0]] or self.samples)
        if not part:
            raise RuntimeError("the pass ended before the probe ran")
        return REFERENCE_S * len(part) / sum(part)
