"""Runtime shape of the statistics server.

One frozen dataclass collects every knob of the serving runtime --
handler concurrency, the estimator worker pool, transport policy and
per-connection backpressure -- so ``repro serve`` flags, tests and the
benchmarks configure the server through a single object instead of a
growing argument list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.frames import MAX_FRAME_BYTES

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of the server runtime (not of histogram builds).

    Parameters
    ----------
    handler_threads:
        Size of the service-owned executor that runs binary frames.
        JSON-lines requests do not use it: each JSON connection is
        served by its own thread from its first byte until it closes.
    estimator_workers:
        Number of estimator *processes* fanned out behind the front
        end.  ``0`` (the default) serves everything in-process; ``N >
        0`` publishes compiled plans into shared memory and routes
        binary batch frames to the pool.
    transport:
        ``"auto"`` (the default) serves both wire formats, negotiated
        per connection by the frame magic; ``"binary"`` rejects
        JSON-lines connections with one error line; ``"json"`` disables
        binary frames entirely.
    max_inflight:
        Per-connection backpressure window: a binary connection may have
        at most this many frames being served concurrently before the
        reader stops pulling new frames off the socket.
    max_frame_bytes:
        Upper bound on one frame body; larger advertised lengths close
        the connection (after a framed error) instead of allocating.
        It also bounds one JSON request line (newline excluded): an
        over-long line is discarded and answered with one error
        response, and the connection stays usable.
    drain_grace:
        Graceful-shutdown budget in seconds: :meth:`StatisticsServer.stop
        <repro.service.server.StatisticsServer.stop>` stops accepting,
        then waits up to this long for in-flight requests to finish
        before cancelling what remains.  ``0`` shuts down immediately
        (the pre-drain behavior).
    """

    handler_threads: int = 8
    estimator_workers: int = 0
    transport: str = "auto"
    max_inflight: int = 32
    max_frame_bytes: int = MAX_FRAME_BYTES
    drain_grace: float = 5.0

    def __post_init__(self) -> None:
        if self.handler_threads < 1:
            raise ValueError(
                f"handler_threads must be >= 1, got {self.handler_threads}"
            )
        if self.estimator_workers < 0:
            raise ValueError(
                f"estimator_workers must be >= 0, got {self.estimator_workers}"
            )
        if self.transport not in ("auto", "binary", "json"):
            raise ValueError(
                f"transport must be auto, binary or json, got {self.transport!r}"
            )
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {self.max_frame_bytes}"
            )
        if self.drain_grace < 0:
            raise ValueError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )

    @property
    def binary_enabled(self) -> bool:
        return self.transport in ("auto", "binary")

    @property
    def json_enabled(self) -> bool:
        return self.transport in ("auto", "json")
