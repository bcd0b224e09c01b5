"""A fixed reference computation that tracks how fast the machine runs.

On a shared host the same code runs up to 1.6x slower for stretches of
tens of seconds, and process CPU time slows just as much as wall time,
so it is not time stolen from the process (most likely the host's other
tenants share its caches and memory bandwidth). Timings taken minutes
apart differ by more than any useful regression bound.

The benchmark therefore samples this kernel's time every INTERVAL_S
seconds while it runs its ops, from a timer signal, so that samples fall
inside long ops as well as between short ones. It takes the sampling out
of each op's time and reports the op's time scaled to the kernel's
nominal speed::

    op time at reference speed = measured op time * REF_S / local kernel time

where the local kernel time is the mean over the samples taken during
the op and the last one before and first one after it.

The kernel does not use plapopt, so a change to plapopt moves the op
times and leaves the scale alone. It is made of what plapopt's solves
spend their time on: a SuperLU solve of a 1.6k-unknown sparse system and
repeated assembly and solve of a 17-unknown one, whose times followed
the slowdowns of both large and small plapopt solves on the machine the
benchmark was defined on.
"""

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Median time of one ``Reference.kernel`` call on the 2-core machine the
# benchmark was defined on; fixes the scale of the reported times.
REF_S = 0.0115
BLOCK = 3  # kernel calls per measurement; their median is taken
INTERVAL_S = 0.3  # seconds between two samples


class Reference:
    def __init__(self):
        n = 40
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self.big = (sp.kron(eye, t) + sp.kron(t, eye)).tocsc()
        self.big_rhs = np.ones(n * n)
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 17, size=72)
        self.cols = rng.integers(0, 17, size=72)
        self.vals = rng.random(72)
        self.small_rhs = np.ones(17)

    def kernel(self):
        spla.spsolve(self.big, self.big_rhs)
        for _ in range(10):
            m = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(17, 17)).tocsr()
            m = m + 10.0 * sp.identity(17, format="csr")
            spla.spsolve(m.tocsc(), self.small_rhs)

    def measure(self):
        """Median seconds of BLOCK kernel calls."""
        times = []
        for _ in range(BLOCK):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Sampler:
    """Measures the reference every INTERVAL_S seconds of wall time from a
    SIGALRM handler. A sample is (start, end, kernel seconds); samples are
    kept in time order and never overlap the caller's own statements."""

    def __init__(self, ref):
        self.ref = ref
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        seconds = self.ref.measure()
        self.samples.append((t0, time.perf_counter(), seconds))

    def _on_timer(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample at entry, every INTERVAL_S seconds inside, and at exit."""
        old = signal.signal(signal.SIGALRM, self._on_timer)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        self.sample()

    def busy(self, t0, t1):
        """Seconds of [t0, t1] spent sampling."""
        return sum(min(e, t1) - max(s, t0) for s, e, _ in self.samples if s < t1 and e > t0)

    def scale(self, t0, t1):
        """REF_S over the mean kernel time of the samples taken during
        [t0, t1] and the nearest one on either side."""
        lo = max([k for k, (_, e, _) in enumerate(self.samples) if e <= t0], default=0)
        hi = min([k for k, (s, _, _) in enumerate(self.samples) if s >= t1],
                 default=len(self.samples) - 1)
        return REF_S / statistics.mean(x for _, _, x in self.samples[lo:hi + 1])
