"""Optional process-pool fan-out for the deletion scans.

``imap(fn, tasks, workers)`` yields ``fn(task)`` in task order.  With
``workers <= 1`` it is a plain generator and scans can stop at the first
failure without paying for the rest; with more workers it fans out to a
process pool but still yields in order, so verdicts and witnesses are
identical either way.
"""

from __future__ import annotations

import os


def resolve_workers(requested: int | None) -> int:
    """Requested worker count, else the GALEPOLY_THREADS env var, else 1."""
    if requested is not None and requested >= 1:
        return requested
    env = os.environ.get("GALEPOLY_THREADS", "")
    try:
        n = int(env)
    except ValueError:
        return 1
    return n if n >= 1 else 1


def imap(fn, tasks, workers: int = 1, chunksize: int = 8):
    if workers <= 1:
        for t in tasks:
            yield fn(t)
        return
    # imported here: only a fan-out uses it, and single-worker callers
    # should not pay for loading it
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(fn, tasks, chunksize)
