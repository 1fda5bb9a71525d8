"""Blocking clients for the statistics service, one per transport.

:class:`StatisticsClient` speaks JSON lines -- one request object per
line, synchronous request/response, the shape an optimizer thread or a
CLI invocation wants.  :class:`BinaryStatisticsClient` speaks the
length-prefixed frame protocol (:mod:`repro.service.frames`): the same
operation surface (every JSON op travels framed), plus the array fast
path where a batch of range predicates is two raw float64 buffers
instead of a list of JSON objects.

Both clients own a single socket and reuse one receive buffer across
responses -- no per-response allocation churn.  The failure taxonomy is
typed so callers can route on it:

* :class:`ServiceUnavailableError` -- the *server* is gone: connection
  refused or reset, or the peer closed the socket (cleanly or
  mid-response).  It is marked ``retryable``: the request never reached
  a decision, so a router (e.g. the fleet client) may fail the same
  request over to a replica.
* :class:`ConnectionError` / ``OSError`` -- a protocol-level problem on
  a live connection (desynchronized frames, mismatched ids).  Not
  retryable blind: something is wrong with the conversation itself.
* :class:`ServiceError` -- the server answered ``{"ok": false}``; the
  request was received and deliberately rejected.
"""

from __future__ import annotations

import socket
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.query.estimator import CardinalityEstimate
from repro.query.predicates import Predicate, RangePredicate
from repro.service.frames import (
    FRAME_HEADER_SIZE,
    OP_ERROR,
    OP_HELLO,
    OP_JSON,
    OP_JSON_RESPONSE,
    OP_RESULT_VECTOR,
    decode_json_body,
    decode_result_vector,
    encode_json_frame,
    encode_range_batch,
    parse_frame_header,
)
from repro.service.protocol import (
    decode_line,
    encode_line,
    predicate_to_wire,
    predicates_to_wire,
)

__all__ = [
    "BinaryStatisticsClient",
    "ServiceError",
    "ServiceUnavailableError",
    "StatisticsClient",
]

_RECV_CHUNK = 1 << 16


class ServiceError(RuntimeError):
    """The server answered ``{"ok": false, ...}``."""


class ServiceUnavailableError(ConnectionError):
    """The server cannot be reached or vanished mid-conversation.

    Raised on connection refused/reset and on a peer close (clean or
    torn).  Subclasses :class:`ConnectionError`, so existing handlers
    keep working; the distinguishing mark is ``retryable``: the request
    reached no decision, so a routing layer may retry it verbatim
    against a replica without risking a duplicated side effect on *this*
    server.
    """

    retryable = True


#: Transport failures that mean "the server is gone", not "the
#: conversation is broken".  ``ConnectionError`` covers refused, reset
#: and aborted; the clients re-raise these as ServiceUnavailableError.
_GONE = (ConnectionRefusedError, ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


def _connect(host: str, port: int, timeout: float) -> socket.socket:
    """``create_connection`` with refused/reset typed as unavailable."""
    try:
        return socket.create_connection((host, port), timeout=timeout)
    except _GONE as error:
        raise ServiceUnavailableError(
            f"statistics server at {host}:{port} is unavailable: {error}"
        ) from error


class _ServiceOps:
    """The op surface shared by both transports.

    Everything here funnels through ``self.call(op, **fields)``, which
    each client implements over its own wire format.
    """

    def call(
        self, op: str, request_id: Optional[str] = None, **fields: Any
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def estimate(self, table: str, predicate: Predicate) -> CardinalityEstimate:
        response = self.call(
            "estimate", table=table, predicate=predicate_to_wire(predicate)
        )
        return CardinalityEstimate(
            value=float(response["value"]), method=str(response["method"])
        )

    def estimate_range(
        self, table: str, column: str, low: Any, high: Any
    ) -> CardinalityEstimate:
        """Convenience wrapper for the canonical ``[low, high)`` query."""
        return self.estimate(table, RangePredicate(column, low, high))

    def estimate_batch(
        self, table: str, predicates: Sequence[Predicate]
    ) -> List[CardinalityEstimate]:
        """Many predicate cardinalities in one round trip.

        The whole batch travels as a single request and is answered by
        one server-side compiled-plan pass, amortizing both the
        round-trip and the per-predicate dispatch.
        """
        response = self.call(
            "estimate_batch",
            table=table,
            predicates=predicates_to_wire(predicates),
        )
        return [
            CardinalityEstimate(value=float(value), method=str(method))
            for value, method in zip(response["values"], response["methods"])
        ]

    def estimate_range_batch(
        self,
        table: str,
        column: str,
        lows: Sequence[Any],
        highs: Sequence[Any],
    ) -> List[CardinalityEstimate]:
        """Batch convenience wrapper for paired ``[low, high)`` queries."""
        if len(lows) != len(highs):
            raise ValueError("endpoint sequences must align")
        return self.estimate_batch(
            table,
            [RangePredicate(column, low, high) for low, high in zip(lows, highs)],
        )

    def estimate_distinct_batch(
        self, table: str, predicates: Sequence[Predicate]
    ) -> List[CardinalityEstimate]:
        """Distinct-value estimates for many predicates in one round trip."""
        response = self.call(
            "estimate_distinct_batch",
            table=table,
            predicates=predicates_to_wire(predicates),
        )
        return [
            CardinalityEstimate(value=float(value), method=str(method))
            for value, method in zip(response["values"], response["methods"])
        ]

    def explain(self, table: str, predicate: Predicate) -> Dict[str, Any]:
        """An estimate plus its full provenance attribution.

        The returned dict carries ``value`` / ``method`` (bit-identical
        to what ``estimate`` would have answered) and ``provenance``:
        method, store generation, plan identity, bucket span, certified
        (θ, q) envelope and -- for sampled cold starts -- the sampling
        rate and probabilistic q-error bound.
        """
        response = self.call(
            "explain", table=table, predicate=predicate_to_wire(predicate)
        )
        return {
            "value": float(response["value"]),
            "method": str(response["method"]),
            "provenance": dict(response.get("provenance") or {}),
        }

    def explain_range(
        self, table: str, column: str, low: Any, high: Any
    ) -> Dict[str, Any]:
        """Convenience wrapper: explain the canonical ``[low, high)`` query."""
        return self.explain(table, RangePredicate(column, low, high))

    def feedback(
        self,
        table: str,
        column: str,
        estimated: float,
        actual: float,
        estimate_request_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Report an observed true cardinality for a served estimate.

        Passing the ``request_id`` of the original estimate lets the
        server score the observation against the exact certificate that
        answered it and attribute any violation by cause.
        """
        fields: Dict[str, Any] = {
            "table": table,
            "column": column,
            "estimated": float(estimated),
            "actual": float(actual),
        }
        if estimate_request_id is not None:
            fields["estimate_request_id"] = str(estimate_request_id)
        return self.call("feedback", **fields)

    def audit(self) -> Dict[str, Any]:
        """The audit ledger snapshot: per-column q-error SLO accounting."""
        return self.call("audit")["audit"]

    def journal(
        self,
        limit: Optional[int] = None,
        category: Optional[str] = None,
        since_seq: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Flight-recorder events, oldest first."""
        fields: Dict[str, Any] = {}
        if limit is not None:
            fields["limit"] = int(limit)
        if category is not None:
            fields["category"] = category
        if since_seq is not None:
            fields["since_seq"] = int(since_seq)
        return list(self.call("journal", **fields)["events"])

    def doctor(self) -> Dict[str, Any]:
        """The full debug bundle: journal, audit, slow log, metrics."""
        return self.call("doctor")["report"]

    def slow_log(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Recent slow-request records (newest first), with span trees."""
        fields: Dict[str, Any] = {}
        if limit is not None:
            fields["limit"] = int(limit)
        return list(self.call("slow_log", **fields)["entries"])

    def metrics(self) -> Dict[str, Any]:
        """The full metrics snapshot the Prometheus exporter renders."""
        return self.call("metrics")["snapshot"]

    def insert(self, table: str, column: str, codes: Sequence[int]) -> Dict[str, Any]:
        return self.call("insert", table=table, column=column, codes=list(codes))

    def delete(self, table: str, column: str, codes: Sequence[int]) -> Dict[str, Any]:
        return self.call("delete", table=table, column=column, codes=list(codes))

    def build(self, table: str, kind: Optional[str] = None) -> Dict[str, Any]:
        fields: Dict[str, Any] = {"table": table}
        if kind is not None:
            fields["kind"] = kind
        return self.call("build", **fields)

    def invalidate(
        self, table: Optional[str] = None, column: Optional[str] = None
    ) -> int:
        fields: Dict[str, Any] = {}
        if table is not None:
            fields["table"] = table
        if column is not None:
            fields["column"] = column
        return int(self.call("invalidate", **fields)["invalidated"])

    def status(self) -> Dict[str, Any]:
        return self.call("status")["status"]


class StatisticsClient(_ServiceOps):
    """Blocking JSON-lines client; safe for one thread per instance.

    ``timeout`` bounds every socket operation (connect and each recv);
    a server that stops answering raises ``socket.timeout`` instead of
    hanging the caller forever.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = _connect(host, port, timeout)
        self._rx = bytearray()  # reused across every response
        self._request_id = 0

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-operation socket timeout."""
        self._sock.settimeout(timeout)

    # -- plumbing ---------------------------------------------------------

    def _read_line(self) -> bytes:
        """One response line from the reused receive buffer.

        A vanished server -- clean close, mid-response close, or a
        reset -- raises :class:`ServiceUnavailableError` immediately
        (never a silent hang on a torn read), so a routing layer can
        fail the request over to a replica.
        """
        rx = self._rx
        while True:
            index = rx.find(b"\n")
            if index >= 0:
                line = bytes(rx[: index + 1])
                del rx[: index + 1]
                return line
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except _GONE as error:
                rx.clear()
                raise ServiceUnavailableError(
                    f"connection to the server was reset: {error}"
                ) from error
            if not chunk:
                if rx:
                    partial = len(rx)
                    rx.clear()
                    raise ServiceUnavailableError(
                        "server closed the connection mid-response "
                        f"({partial} bytes of an unterminated line)"
                    )
                raise ServiceUnavailableError("server closed the connection")
            rx.extend(chunk)

    def call(
        self, op: str, request_id: Optional[str] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One round trip; returns the response fields on success.

        Every request carries a ``request_id`` (a fresh UUID unless the
        caller supplies one) that the server echoes and stamps on all
        telemetry the request produces; it survives on the response and
        on :class:`ServiceError` for correlation.
        """
        self._request_id += 1
        if request_id is None:
            request_id = uuid.uuid4().hex
        request = {
            "op": op,
            "id": self._request_id,
            "request_id": request_id,
            **fields,
        }
        try:
            self._sock.sendall(encode_line(request))
        except _GONE as error:
            raise ServiceUnavailableError(
                f"connection to the server was lost: {error}"
            ) from error
        response = decode_line(self._read_line())
        if not response.get("ok"):
            message = response.get("error", "unknown server error")
            raise ServiceError(
                f"{message} (request_id={response.get('request_id', request_id)})"
            )
        return response

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "StatisticsClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BinaryStatisticsClient(_ServiceOps):
    """Blocking binary-frame client; safe for one thread per instance.

    Connecting performs the ``HELLO`` negotiation, so construction fails
    fast against a server with the binary transport disabled.  Every
    JSON-lines op is available (framed as ``OP_JSON``); the point of the
    transport is :meth:`estimate_range_batch` /
    :meth:`estimate_distinct_range_batch`, whose predicate batches
    travel as raw float64 buffers (16 bytes per predicate) and whose
    answers come back as one contiguous result vector.

    The receive path reads into one growing reused buffer
    (``recv_into``); only the decoded result array is copied out.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self._sock = _connect(host, port, timeout)
        self._rx = bytearray(FRAME_HEADER_SIZE)  # grows to the largest frame
        self._request_id = 0
        self.server_info: Dict[str, Any] = {}
        try:
            self._hello()
        except BaseException:
            self._sock.close()  # a refused handshake leaves no socket open
            raise

    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-operation socket timeout."""
        self._sock.settimeout(timeout)

    # -- plumbing ---------------------------------------------------------

    def _hello(self) -> None:
        self._send(encode_json_frame({}, opcode=OP_HELLO))
        opcode, body = self._read_frame()
        if opcode == OP_ERROR:
            raise ServiceError(str(decode_json_body(body).get("error")))
        if opcode != OP_HELLO:
            raise ConnectionError(
                f"unexpected opcode 0x{opcode:02x} in HELLO response"
            )
        self.server_info = decode_json_body(body)

    def _read_exact(self, n: int) -> memoryview:
        """``n`` bytes into the reused buffer; a view, valid until the
        next read.  EOF mid-read immediately raises
        :class:`ServiceUnavailableError`.

        Growth replaces the buffer instead of resizing it (a resize
        would fail while a previous read's view is still exported); the
        steady state is zero allocation per response.
        """
        if len(self._rx) < n:
            self._rx = bytearray(max(n, 2 * len(self._rx)))
        view = memoryview(self._rx)
        got = 0
        while got < n:
            try:
                received = self._sock.recv_into(view[got:n])
            except _GONE as error:
                raise ServiceUnavailableError(
                    f"connection to the server was reset: {error}"
                ) from error
            if received == 0:
                if got:
                    raise ServiceUnavailableError(
                        f"server closed the connection mid-frame ({got} of {n} bytes)"
                    )
                raise ServiceUnavailableError("server closed the connection")
            got += received
        return view[:n]

    def _send(self, payload: bytes) -> None:
        try:
            self._sock.sendall(payload)
        except _GONE as error:
            raise ServiceUnavailableError(
                f"connection to the server was lost: {error}"
            ) from error

    def _read_frame(self) -> Tuple[int, memoryview]:
        """One frame off the socket: ``(opcode, body view)``.

        The body view aliases the reused receive buffer -- decode (and
        copy anything kept) before the next read.
        """
        # The 8-byte header is copied out so its view is released before
        # the body read reuses the buffer.
        header = bytes(self._read_exact(FRAME_HEADER_SIZE))
        opcode, length = parse_frame_header(header)
        return opcode, self._read_exact(length)

    def call(
        self, op: str, request_id: Optional[str] = None, **fields: Any
    ) -> Dict[str, Any]:
        """One framed-JSON round trip (same semantics as the lines client)."""
        self._request_id += 1
        if request_id is None:
            request_id = uuid.uuid4().hex
        request = {
            "op": op,
            "id": self._request_id,
            "request_id": request_id,
            **fields,
        }
        self._send(encode_json_frame(request, opcode=OP_JSON))
        opcode, body = self._read_frame()
        response = decode_json_body(body)
        if opcode not in (OP_JSON_RESPONSE, OP_ERROR):
            raise ConnectionError(
                f"unexpected opcode 0x{opcode:02x} in JSON response"
            )
        if not response.get("ok"):
            message = response.get("error", "unknown server error")
            raise ServiceError(
                f"{message} (request_id={response.get('request_id', request_id)})"
            )
        return response

    # -- the array fast path ----------------------------------------------

    def send_range_batch(
        self,
        table: str,
        column: str,
        lows: np.ndarray,
        highs: np.ndarray,
        distinct: bool = False,
    ) -> int:
        """Push one array frame without waiting; returns its frame id.

        Pairs with :meth:`recv_result_vector` for pipelined use: up to
        the server's per-connection in-flight window may be outstanding
        at once, and responses carry the frame id for matching.
        """
        self._request_id += 1
        self._send(
            encode_range_batch(
                table,
                column,
                np.asarray(lows, dtype=np.float64),
                np.asarray(highs, dtype=np.float64),
                distinct=distinct,
                frame_id=self._request_id,
            )
        )
        return self._request_id

    def recv_result_vector(self) -> Tuple[Dict[str, Any], np.ndarray]:
        """One result vector off the wire: ``(header, values copy)``."""
        opcode, body = self._read_frame()
        if opcode == OP_ERROR:
            response = decode_json_body(body)
            raise ServiceError(str(response.get("error", "unknown server error")))
        if opcode != OP_RESULT_VECTOR:
            raise ConnectionError(
                f"unexpected opcode 0x{opcode:02x} in batch response"
            )
        header, values = decode_result_vector(body)
        # The values view aliases the reused receive buffer.
        return header, values.copy()

    def estimate_range_batch(
        self,
        table: str,
        column: str,
        lows: Sequence[Any],
        highs: Sequence[Any],
    ) -> np.ndarray:
        """Cardinalities for paired ``[low, high)`` arrays, one round trip.

        Unlike the JSON client's method of the same name this returns
        the raw ``float64`` vector -- the transport exists so nothing
        per-predicate is ever materialized.
        """
        frame_id = self.send_range_batch(table, column, lows, highs)
        header, values = self.recv_result_vector()
        if header.get("id") != frame_id:
            raise ConnectionError(
                f"response frame id {header.get('id')!r} does not match "
                f"request {frame_id}"
            )
        return values

    def estimate_distinct_range_batch(
        self,
        table: str,
        column: str,
        lows: Sequence[Any],
        highs: Sequence[Any],
    ) -> np.ndarray:
        """Distinct-value twin of :meth:`estimate_range_batch`."""
        frame_id = self.send_range_batch(table, column, lows, highs, distinct=True)
        header, values = self.recv_result_vector()
        if header.get("id") != frame_id:
            raise ConnectionError(
                f"response frame id {header.get('id')!r} does not match "
                f"request {frame_id}"
            )
        return values

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "BinaryStatisticsClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
