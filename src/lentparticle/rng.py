"""Counter-based random streams for reproducible, parallel Monte Carlo.

Every sampling routine in the package takes an integer seed and derives
independent substreams from it with :func:`substream`.  Streams are keyed by
a path of integers (seed, i, j, ...) fed to a Philox counter-based generator,
so the stream for a given path is the same no matter how work is split
across workers or processes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream keyed by (seed, *path).

    Distinct paths give statistically independent Philox streams; the same
    path always gives the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def chunk_ranges(n: int, chunk: int) -> list[tuple[int, int]]:
    """Split range(n) into fixed-size chunks [(start, stop), ...]."""
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]


def parallel_map(fn: Callable, items: Sequence, jobs: int = 1) -> list:
    """Map fn over items, optionally with a process pool.

    Results are returned in item order regardless of jobs, so output is
    deterministic for deterministic fn.  The pool starts at most one worker
    per item.
    """
    if jobs is None or jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))
