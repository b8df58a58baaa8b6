"""An in-order map on a bounded thread pool.

The label loader parses file chunks with it and the audio commands run
manifest entries with it. Results come back in input order whatever order
the workers finish in, so no output depends on the number of threads.
"""

from __future__ import annotations

import collections
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_in_order(function: Callable[[T], R], items: Iterable[T], workers: int, window: int) -> Iterator[R]:
    """``function`` of each of ``items``, yielded in the order of ``items``.

    With more than one worker the calls run on a pool of ``workers`` threads.
    At most ``window`` calls are in flight, counting the one whose result is
    due next, so memory does not grow with the input. ``items`` is drawn on
    the caller's thread as room frees up. With one worker each call runs
    inline, when its result is due.

    A call that raises raises here, in item order: every earlier result has
    been yielded and no later one is. When the iteration ends early, because
    a call raised or the caller closed the generator, calls not yet started
    are cancelled and the pool's threads have ended before control returns.
    A caller that may stop early should therefore close the generator, for
    example with :func:`contextlib.closing`.
    """
    if workers <= 1:
        for item in items:
            yield function(item)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending: collections.deque = collections.deque()
        for item in items:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(function, item))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
