"""A fixed reference computation, timed between the rounds of a run.

The host the benchmark runs on is shared: the same operation runs up to
1.5x slower in phases that last seconds to minutes, and a run of 30 s can
fall inside one.  The reference runs the same kinds of work as tessae
(small-batch MLP forward and backward in numpy, sort-based sliced
Wasserstein projections, and a stable argsort walked in Python as in
lcm_assign) and does not depend on tessae, so a slow phase slows it about
as much as the operation next to it, while a change to tessae leaves it as
it is.  `op_per_ref` is an operation's wall time over the reference's,
taken next to each other.
"""

import time

import numpy as np

BATCH, WIDTH, PROJECTIONS, STEPS = 200, 64, 64, 120
WALK, WALK_SLICE, WALK_SLOTS = 400_000, 20_000, 1000

_rng = np.random.default_rng(20_050_992)
_X = _rng.standard_normal((BATCH, 2))
_PRIOR = _rng.standard_normal((BATCH, 2))
_THETA = _rng.standard_normal((2, PROJECTIONS))
_THETA /= np.linalg.norm(_THETA, axis=0)
_W0 = [0.3 * _rng.standard_normal(shape)
       for shape in ((2, WIDTH), (WIDTH, WIDTH), (WIDTH, 2))]
_KEYS = _rng.standard_normal(WALK)


def reference():
    """One fixed amount of work; returns a checksum so nothing is skipped."""
    weights = [w.copy() for w in _W0]
    for _ in range(STEPS):
        acts = [_X]
        for w in weights[:-1]:
            acts.append(np.tanh(acts[-1] @ w))
        z = acts[-1] @ weights[-1]
        pz = np.sort(z @ _THETA, axis=0)
        pp = np.sort(_PRIOR @ _THETA, axis=0)
        grad = 2.0 * (z - _X) / BATCH + 1e-3 * (pz - pp).mean() * np.ones_like(z)
        grads = []
        for w, a in zip(reversed(weights), reversed(acts)):
            grads.append(a.T @ grad)
            grad = (grad @ w.T) * (1.0 - a * a)
        for w, g in zip(weights, reversed(grads)):
            w -= 1e-3 * g
    # the greedy walk of lcm_assign over a stably sorted list, converted
    # in slices so that the reference adds little to the peak memory
    order = np.argsort(_KEYS, kind="stable")
    free = [True] * WALK_SLOTS
    taken = 0
    for start in range(0, WALK, WALK_SLICE):
        for flat in order[start:start + WALK_SLICE].tolist():
            i = flat % WALK_SLOTS
            if free[i]:
                free[i] = False
                taken += 1
    return float(sum(w.sum() for w in weights)) + taken


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
