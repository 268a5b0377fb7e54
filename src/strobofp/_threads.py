"""Worker pool for Monte Carlo chunks, its size set by STROBOFP_THREADS.  CLI
sweeps are serial: their short GIL-bound NumPy solves ran 1.4-1.7x slower
in threads on 2 CPUs, where `simulate_tau`'s long chunks gain."""

from __future__ import annotations

import os


def worker_count(n_items: int) -> int:
    """Workers for `n_items` jobs: STROBOFP_THREADS, else one per CPU this
    process may run on; never more than there are items.  A STROBOFP_THREADS
    that is not an integer raises ValueError naming it."""
    text = os.environ.get("STROBOFP_THREADS")
    if text:
        try:
            requested = int(text)
        except ValueError:
            raise ValueError(f"STROBOFP_THREADS must be an integer, got {text!r}") from None
    else:
        affinity = getattr(os, "sched_getaffinity", None)
        requested = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(requested, n_items))


def parallel_map(fn, items):
    """Yield fn(item) for each of the sequence `items` in order: in the caller's
    thread as asked for, none ahead, with one worker; else from a pool."""
    workers = worker_count(len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    # imported here: a CLI that never starts a pool does not load it (nor logging)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)
