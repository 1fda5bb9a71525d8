"""Socket-level tests of the dual-transport server.

Negotiation, cross-transport parity, pipelining, and the wire-robustness
matrix: for every way a client can violate the frame protocol, the
violating connection gets a deterministic outcome and every *sibling*
connection keeps working.
"""

import socket
import struct
import time

import numpy as np
import pytest

from repro.service.client import (
    BinaryStatisticsClient,
    ServiceError,
    StatisticsClient,
)
from repro.service.config import ServiceConfig
from repro.service.frames import (
    FRAME_HEADER_SIZE,
    MAGIC,
    OP_ERROR,
    OP_HELLO,
    OP_JSON,
    PROTOCOL_VERSION,
    decode_json_body,
    encode_json_frame,
    parse_frame_header,
)
from repro.service.server import start_server_thread


@pytest.fixture
def running(service):
    handle = start_server_thread(
        service, config=ServiceConfig(handler_threads=4, max_inflight=8)
    )
    yield handle
    handle.stop()


def recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            return data
        data += chunk
    return data


def recv_frame(sock):
    header = recv_exact(sock, FRAME_HEADER_SIZE)
    assert len(header) == FRAME_HEADER_SIZE
    opcode, length = parse_frame_header(header)
    return opcode, recv_exact(sock, length)


def raw_connection(running):
    sock = socket.create_connection(running.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestNegotiation:
    def test_json_clients_work_unmodified(self, running):
        with StatisticsClient(*running.address) as client:
            assert client.ping()
            assert "orders" in client.status()["tables"]

    def test_binary_hello(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            assert client.server_info["ok"] is True
            assert client.server_info["version"] == PROTOCOL_VERSION
            assert "estimate_batch" in client.server_info["ops"]

    def test_both_transports_share_one_port(self, running):
        with StatisticsClient(*running.address) as json_client:
            with BinaryStatisticsClient(*running.address) as binary_client:
                assert json_client.ping()
                assert binary_client.ping()
                assert json_client.ping()

    def test_binary_only_config_rejects_json(self, service):
        handle = start_server_thread(
            service, config=ServiceConfig(transport="binary")
        )
        try:
            with BinaryStatisticsClient(*handle.address) as client:
                assert client.ping()
            with StatisticsClient(*handle.address) as client:
                with pytest.raises(ServiceError, match="binary frame transport"):
                    client.ping()
        finally:
            handle.stop()

    def test_json_only_config_rejects_binary(self, service):
        handle = start_server_thread(service, config=ServiceConfig(transport="json"))
        try:
            with StatisticsClient(*handle.address) as client:
                assert client.ping()
            start = time.perf_counter()
            with pytest.raises(ServiceError, match="JSON lines only"):
                BinaryStatisticsClient(*handle.address, timeout=2.0)
            assert time.perf_counter() - start < 2.0
        finally:
            handle.stop()


class TestBinaryOps:
    def test_json_ops_over_frames(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            assert client.ping()
            status = client.status()
            assert "orders" in status["tables"]
            estimates = client.estimate_batch(
                "orders",
                [
                    __import__(
                        "repro.query.predicates", fromlist=["RangePredicate"]
                    ).RangePredicate("amount", 1, 50)
                ],
            )
            assert estimates[0].value > 0

    def test_service_errors_are_framed(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            with pytest.raises(ServiceError, match="unknown table"):
                client.estimate_range_batch(
                    "nope", "amount", np.array([1.0]), np.array([2.0])
                )
            # The connection survived the error.
            assert client.ping()

    def test_pipelining(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            lows = np.array([1.0, 5.0, 10.0])
            highs = np.array([50.0, 80.0, 200.0])
            ids = [
                client.send_range_batch("orders", "amount", lows, highs)
                for _ in range(5)
            ]
            seen = set()
            results = []
            for _ in ids:
                header, values = client.recv_result_vector()
                seen.add(header["id"])
                results.append(values)
            assert seen == set(ids)
            for values in results[1:]:
                np.testing.assert_array_equal(values, results[0])


class TestCrossTransportParity:
    def test_estimate_batch_parity(self, running, rng):
        lows = rng.integers(1, 200, size=64).astype(float)
        highs = lows + rng.integers(1, 100, size=64)
        with StatisticsClient(*running.address) as json_client:
            expected = np.array(
                [
                    e.value
                    for e in json_client.estimate_range_batch(
                        "orders", "amount", lows, highs
                    )
                ]
            )
        with BinaryStatisticsClient(*running.address) as binary_client:
            got = binary_client.estimate_range_batch("orders", "amount", lows, highs)
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_distinct_parity(self, running, rng):
        lows = rng.integers(1, 200, size=32).astype(float)
        highs = lows + rng.integers(1, 100, size=32)
        with StatisticsClient(*running.address) as json_client:
            predicates = __import__(
                "repro.query.predicates", fromlist=["RangePredicate"]
            )
            expected = np.array(
                [
                    e.value
                    for e in json_client.estimate_distinct_batch(
                        "orders",
                        [
                            predicates.RangePredicate("amount", low, high)
                            for low, high in zip(lows, highs)
                        ],
                    )
                ]
            )
        with BinaryStatisticsClient(*running.address) as binary_client:
            got = binary_client.estimate_distinct_range_batch(
                "orders", "amount", lows, highs
            )
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_empty_value_range_is_zero(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            values = client.estimate_range_batch(
                "orders", "amount", np.array([50.0]), np.array([50.0])
            )
            assert values[0] == 0.0


class TestNaNEndpoints:
    """A NaN endpoint is a typed ``ValueError`` on both transports, not an
    open-ended range; ``±inf`` stay open bounds; the connection survives."""

    def test_json_lines(self, running):
        from repro.query.predicates import RangePredicate

        with StatisticsClient(*running.address) as client:
            for low, high in ((10.0, float("nan")), (float("nan"), 200.0)):
                with pytest.raises(ServiceError, match="ValueError: NaN"):
                    client.estimate("orders", RangePredicate("amount", low, high))
            open_ended = client.estimate(
                "orders", RangePredicate("amount", 10.0, float("inf"))
            )
            closed = client.estimate(
                "orders", RangePredicate("amount", 10.0, 10_000.0)
            )
            assert open_ended.value == closed.value
            assert client.ping()

    def test_binary(self, running):
        with BinaryStatisticsClient(*running.address) as client:
            lows = np.array([1.0, 10.0, np.nan])
            highs = np.array([50.0, np.nan, 80.0])
            with pytest.raises(ServiceError, match="ValueError: NaN"):
                client.estimate_range_batch("orders", "amount", lows, highs)
            assert client.ping()
            open_ended = client.estimate_range_batch(
                "orders", "amount", np.array([-np.inf, 10.0]), np.array([50.0, np.inf])
            )
            closed = client.estimate_range_batch(
                "orders", "amount", np.array([-10_000.0, 10.0]), np.array([50.0, 10_000.0])
            )
            np.testing.assert_array_equal(open_ended, closed)


class TestWireRobustness:
    """Protocol violations: deterministic outcomes, siblings unharmed."""

    def test_truncated_header_then_disconnect(self, running):
        with BinaryStatisticsClient(*running.address) as sibling:
            sock = raw_connection(running)
            sock.sendall(MAGIC + b"\x01")  # 3 of 8 header bytes
            sock.close()
            assert sibling.ping()

    def test_bad_magic_mid_stream_closes_connection(self, running):
        with BinaryStatisticsClient(*running.address) as sibling:
            sock = raw_connection(running)
            sock.sendall(encode_json_frame({}, opcode=OP_HELLO))
            opcode, _ = recv_frame(sock)
            assert opcode == OP_HELLO
            sock.sendall(struct.pack("<2sBBI", b"XX", PROTOCOL_VERSION, OP_JSON, 0))
            opcode, body = recv_frame(sock)
            assert opcode == OP_ERROR
            assert "magic" in decode_json_body(body)["error"]
            assert recv_exact(sock, 1) == b""  # server closed
            sock.close()
            assert sibling.ping()

    def test_bad_version_closes_connection(self, running):
        sock = raw_connection(running)
        sock.sendall(struct.pack("<2sBBI", MAGIC, 99, OP_JSON, 0))
        opcode, body = recv_frame(sock)
        assert opcode == OP_ERROR
        assert "version" in decode_json_body(body)["error"]
        assert recv_exact(sock, 1) == b""
        sock.close()

    def test_oversized_length_closes_without_allocating(self, running):
        with BinaryStatisticsClient(*running.address) as sibling:
            sock = raw_connection(running)
            sock.sendall(
                struct.pack("<2sBBI", MAGIC, PROTOCOL_VERSION, OP_JSON, 2**31)
            )
            opcode, body = recv_frame(sock)
            assert opcode == OP_ERROR
            assert "limit" in decode_json_body(body)["error"]
            assert recv_exact(sock, 1) == b""
            sock.close()
            assert sibling.ping()

    def test_mid_frame_disconnect(self, running):
        with BinaryStatisticsClient(*running.address) as sibling:
            sock = raw_connection(running)
            sock.sendall(
                struct.pack("<2sBBI", MAGIC, PROTOCOL_VERSION, OP_JSON, 100)
            )
            sock.sendall(b"partial")  # 7 of 100 promised bytes
            sock.close()
            assert sibling.ping()

    def test_unknown_opcode_is_survivable(self, running):
        sock = raw_connection(running)
        body = b"mystery"
        sock.sendall(
            struct.pack("<2sBBI", MAGIC, PROTOCOL_VERSION, 0x42, len(body)) + body
        )
        opcode, err_body = recv_frame(sock)
        assert opcode == OP_ERROR
        assert "opcode" in decode_json_body(err_body)["error"]
        # Same connection still serves valid frames.
        sock.sendall(encode_json_frame({"op": "ping"}, opcode=OP_JSON))
        opcode, body = recv_frame(sock)
        response = decode_json_body(body)
        assert response["ok"] is True
        assert response["pong"] is True
        sock.close()

    def test_bad_json_frame_body_is_survivable(self, running):
        sock = raw_connection(running)
        bad = b"{not json"
        sock.sendall(
            struct.pack("<2sBBI", MAGIC, PROTOCOL_VERSION, OP_JSON, len(bad)) + bad
        )
        opcode, body = recv_frame(sock)
        assert opcode == OP_ERROR
        sock.sendall(encode_json_frame({"op": "ping"}, opcode=OP_JSON))
        opcode, body = recv_frame(sock)
        assert decode_json_body(body)["pong"] is True
        sock.close()

    def test_server_close_mid_response_raises_not_hangs(self, service):
        handle = start_server_thread(service)
        client = StatisticsClient(*handle.address)
        assert client.ping()
        handle.stop()
        with pytest.raises((ConnectionError, OSError)):
            for _ in range(50):
                client.ping()
        client.close()


class TestWireMetrics:
    def test_both_transports_counted(self, running):
        with StatisticsClient(*running.address) as json_client:
            json_client.ping()
        with BinaryStatisticsClient(*running.address) as binary_client:
            binary_client.estimate_range_batch(
                "orders", "amount", np.array([1.0]), np.array([50.0])
            )
            snapshot = binary_client.metrics()
        wire = snapshot["metrics"]["wire"]
        assert wire["transports"]["json"]["frames_in"] >= 1
        assert wire["transports"]["binary"]["frames_in"] >= 2  # hello + batch
        assert wire["transports"]["binary"]["bytes_out"] > 0
        assert "estimate_batch" in wire["latency"]["binary"]
