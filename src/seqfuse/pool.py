"""The worker pool that ``align``, ``evaluate`` and ``predict`` run their videos in.

:func:`map_video_groups` runs a group function over a list of videos in
this process, or, on a large input, in forked worker processes, one group
of videos per worker, split by input size. It knows only the sizes that its
caller gives, one per video (``featureio.input_bytes``), not what a video
reads. :func:`pool_workers` decides: at least two usable CPUs, two videos
and ``POOL_MIN_INPUT_BYTES`` of input. Whatever a pooled run raises, the
serial run is made instead, so every result and error is this process's.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from itertools import repeat

from .util import usable_cpus

logger = logging.getLogger(__name__)


# Bytes of feature and label input (as featureio.input_bytes counts them)
# from which ``map_video_groups`` (``align`` and ``metrics.score_partition``)
# works in worker processes (see pool_workers). Measured on a 2-CPU Xeon with
# BLAS pinned to one thread. Align: starting the pool costs about 45 ms, and
# serial alignment runs at about 17 MB of input per second, so the pool
# breaks even near 1.6 MB. Scoring: starting and stopping a two-worker pool
# costs 8-15 ms, and serial loading and prediction of parsed input run at
# 30 MB (e16/h32/m16 over D = 10) to 50 MB (D = 900) of input per second, so
# the pool breaks even below 1 MB. How a cached read counts: see
# featureio._PARSED_PER_CACHED_BYTE.
POOL_MIN_INPUT_BYTES = 4 << 20


def pool_workers(sizes: Sequence[int]) -> int:
    """Worker processes for videos of these input sizes; 0 keeps them in this process.

    Nonzero only with two usable CPUs, two videos and POOL_MIN_INPUT_BYTES
    of input; then one per usable CPU, at most one per video.
    """
    cpus = usable_cpus()
    if cpus < 2 or len(sizes) < 2 or sum(sizes) < POOL_MIN_INPUT_BYTES:
        return 0
    return min(cpus, len(sizes))


def _split_by_size(video_ids: list[str], sizes: list[int], n_groups: int) -> list[list[str]]:
    """``n_groups`` nonempty groups of about equal size, each in the given order.

    Largest first, each video joins the group with the least input so far
    (on a tie, the one with the fewest videos, then the first).
    """
    totals, members = [0] * n_groups, [[] for _ in range(n_groups)]
    for k in sorted(range(len(video_ids)), key=lambda k: -sizes[k]):
        g = min(range(n_groups), key=lambda g: (totals[g], len(members[g])))
        totals[g] += sizes[k]
        members[g].append(k)
    return [[video_ids[k] for k in sorted(group)] for group in members]


def map_video_groups(video_ids: list[str], sizes: list[int], group_fn, *args) -> list:
    """``group_fn(video_ids, *args)``: one result per listed video, in order.

    ``sizes`` holds each listed video's input size, in bytes. ``group_fn``
    takes videos in the given order and returns one result per video, in
    that order. Run in this process, it defines every result and error. On
    a large input (see :func:`pool_workers`) the videos are first split by
    these sizes into one group per forked worker process, so
    ``group_fn``, its arguments and its results are pickled. If that pooled
    run raises anything, one WARNING names the exception and the serial run
    is made instead: it raises the first error in the given order, with this
    process's traceback, or returns its results if the failure does not
    repeat. So ``group_fn`` must be safe to run twice. A caller that runs
    threads of its own should not call this on a large input, since the
    workers are forked.
    """
    workers = pool_workers(sizes)
    if workers:
        # Imported here because these modules add about 2 MB to every process
        # that imports the package, and only large inputs use them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        groups = _split_by_size(video_ids, sizes, workers)
        # Forked, a worker starts in milliseconds with the package imported;
        # spawned, it would import numpy again. The CLI starts no threads of
        # its own, and numpy's BLAS pool guards itself across fork.
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                results = pool.map(group_fn, groups, *map(repeat, args))
                done = {vid: r for group, rs in zip(groups, results) for vid, r in zip(group, rs)}
            return [done[vid] for vid in video_ids]
        except Exception as exc:  # noqa: BLE001 - the serial run below raises it in order
            logger.warning("pooled run failed, so its %d videos run again in this process: "
                           "%s: %s", len(video_ids), type(exc).__name__, exc)
    return group_fn(video_ids, *args)
