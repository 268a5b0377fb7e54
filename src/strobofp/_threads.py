"""Worker-pool helper; STROBOFP_THREADS caps sweep and trial parallelism."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count(n_items: int) -> int:
    """Workers for `n_items` jobs: STROBOFP_THREADS, else one per CPU; never
    more than there are items."""
    requested = os.environ.get("STROBOFP_THREADS") or os.cpu_count() or 1
    return max(1, min(int(requested), n_items))


def parallel_map(fn, items):
    """Order-preserving map over independent work items."""
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
