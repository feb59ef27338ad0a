"""Shared generators and helpers for the test suite."""

import contextlib
import signal

import numpy as np
from hypothesis import strategies as st

from chogen.designs import ChoiceDesign, all_treatments


def random_design(rng, n, m, N):
    """A design drawn with a stdlib Random instance (distinct options per set)."""
    pool = all_treatments(n)
    sets = [tuple(rng.sample(pool, m)) for _ in range(N)]
    return ChoiceDesign.from_sets(sets)


def masks_of(effects, n):
    """The masks of FactorialEffects on n factors, factor j at bit n - j,
    as set_sums and cstar_entries take them."""
    return np.array([sum(1 << (n - j) for j in e.factors) for e in effects],
                    dtype=np.int64)


@st.composite
def designs(draw, max_n=4, max_m=4, max_N=5, min_n=1):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(2, min(max_m, 1 << n)))
    N = draw(st.integers(1, max_N))
    pool = all_treatments(n)
    sets = []
    for _ in range(N):
        perm = draw(st.permutations(pool))
        sets.append(tuple(perm[:m]))
    return ChoiceDesign.from_sets(sets)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body if it runs past the deadline, so a
    regression to an endless loop fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
