"""Real local execution endpoint (a named thread pool).

The laptop-scale execution path of the workflow runs genuine Python
callables — granule synthesis, tiling, inference — through the same
endpoint-shaped API the simulator uses, so `repro.core` stage code is
execution-backend agnostic.
"""

from __future__ import annotations

import concurrent.futures as cf
from typing import Any, Callable, Iterable, Iterator, List, Optional, Union

__all__ = ["LocalComputeEndpoint"]


class LocalComputeEndpoint:
    """A thread pool executing real callables (fine for the NumPy-heavy
    stage work, which releases the GIL; process-level parallelism is
    :class:`repro.runtime.proc.ProcWorkerPool`'s job).  Usable as a
    context manager.
    """

    def __init__(self, name: str, max_workers: int):
        if not isinstance(max_workers, int) or max_workers < 1:
            raise ValueError(
                f"endpoint {name!r} needs max_workers >= 1, got {max_workers!r}"
            )
        self.name = name
        self.max_workers = max_workers
        self._pool = cf.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=name
        )
        self.tasks_submitted = 0
        self._closed = False

    def submit(self, fn: Callable, *args: Any, **kwargs: Any) -> cf.Future:
        self.tasks_submitted += 1
        return self._pool.submit(fn, *args, **kwargs)

    def map(self, fn: Callable, items: Iterable[Any]) -> List[cf.Future]:
        return [self.submit(fn, item) for item in items]

    def gather(
        self,
        futures: Iterable[cf.Future],
        timeout: Optional[float] = None,
        ordered: bool = False,
    ) -> Union[Iterator[Any], List[Any]]:
        """Yield results as futures complete (completion order).

        The default is a generator in completion order — the shape a
        streaming consumer needs: a slow first submission no longer
        head-of-line-blocks every finished result behind it.  Pass
        ``ordered=True`` for the old behaviour (wait for all, then a
        list in submission order).  Either way the first exception
        encountered is raised; with ``timeout``, :class:`TimeoutError`
        is raised if the futures have not all settled in time.
        """
        futures = list(futures)
        if ordered:
            cf.wait(futures, timeout=timeout)
            return [future.result(timeout=0) for future in futures]

        def results() -> Iterator[Any]:
            for future in cf.as_completed(futures, timeout=timeout):
                yield future.result()

        return results()

    def shutdown(self, wait: bool = True) -> None:
        """Idempotent: safe to call again (e.g. explicit shutdown inside
        a ``with`` block, or both an error path and a finally)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "LocalComputeEndpoint":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
