"""JSON-lines connections on their own threads, binary frames on the loop.

Each JSON-lines connection is served by a dedicated blocking thread from
its first byte until it closes.  These tests pin what that must not
break: a request stuck in ``handle()`` stalls only its own connection,
idle connections hold no thread before their first byte and delay no
one after it, ``stop()`` leaves no connection thread behind, and a JSON
line is bounded by ``max_frame_bytes`` -- an over-long line is a typed,
non-retryable error on a connection that stays usable.
"""

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.query.predicates import RangePredicate
from repro.service.client import (
    BinaryStatisticsClient,
    ServiceError,
    ServiceUnavailableError,
    StatisticsClient,
)
from repro.service.config import ServiceConfig
from repro.service.protocol import decode_line, encode_line, predicates_to_wire
from repro.service.server import start_server_thread

JSON_THREAD_PREFIX = "repro-json"


def json_threads():
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(JSON_THREAD_PREFIX)
    }


@pytest.fixture
def running(service):
    handle = start_server_thread(service)
    yield handle
    handle.stop()


def read_line(sock):
    data = b""
    while not data.endswith(b"\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            break
        data += chunk
    return data


class TestIsolation:
    def test_held_request_stalls_only_its_connection(self, service):
        entered = threading.Event()
        release = threading.Event()
        inner = service.estimate

        def held_estimate(table, predicate):
            entered.set()
            release.wait(10.0)
            return inner(table, predicate)

        service.estimate = held_estimate
        handle = start_server_thread(service)
        results = {}

        def ask():
            with StatisticsClient(*handle.address) as client:
                results["value"] = client.estimate(
                    "orders", RangePredicate("amount", 1, 100)
                ).value

        asker = threading.Thread(target=ask)
        asker.start()
        try:
            assert entered.wait(5.0)
            with StatisticsClient(*handle.address, timeout=2.0) as client:
                assert client.ping()
            with BinaryStatisticsClient(*handle.address, timeout=2.0) as client:
                values = client.estimate_range_batch(
                    "orders", "amount", np.array([1.0]), np.array([50.0])
                )
            assert values[0] > 0
            assert "value" not in results  # still held
        finally:
            release.set()
            asker.join(10.0)
            handle.stop()
        assert results["value"] > 0

    def test_idle_json_connections_delay_no_one(self, running):
        before = json_threads()
        idle = [StatisticsClient(*running.address) for _ in range(16)]
        try:
            for client in idle:
                assert client.ping()
            # Each pinged connection now parks its own thread.
            assert len(json_threads() - before) >= 16
            start = time.perf_counter()
            with StatisticsClient(*running.address, timeout=2.0) as client:
                assert client.ping()
            with BinaryStatisticsClient(*running.address, timeout=2.0) as client:
                assert client.estimate_range_batch(
                    "orders", "amount", np.array([1.0]), np.array([50.0])
                )[0] > 0
            assert time.perf_counter() - start < 1.0
        finally:
            for client in idle:
                client.close()

    def test_silent_connections_hold_no_thread(self, running):
        before = json_threads()
        silent = [
            socket.create_connection(running.address, timeout=5.0)
            for _ in range(20)
        ]
        try:
            time.sleep(0.2)
            assert json_threads() - before == set()
            with StatisticsClient(*running.address, timeout=2.0) as client:
                assert client.ping()
        finally:
            for sock in silent:
                sock.close()


    def test_lone_magic_byte_then_close_is_answered(self, running):
        with socket.create_connection(running.address, timeout=5.0) as sock:
            sock.sendall(b"\xaa")  # half a frame magic, then nothing
            sock.shutdown(socket.SHUT_WR)
            response = decode_line(read_line(sock))
            assert response["ok"] is False
            assert "bad request" in response["error"]
            assert sock.recv(1) == b""


class TestThreadHygiene:
    def test_stop_leaves_no_json_thread_alive(self, service):
        before = json_threads()
        handle = start_server_thread(service)
        clients = [StatisticsClient(*handle.address) for _ in range(4)]
        for client in clients:
            assert client.ping()
        started = json_threads() - before
        assert len(started) == 4
        handle.stop()
        assert not [thread for thread in started if thread.is_alive()]
        for client in clients:
            with pytest.raises(ServiceUnavailableError):
                client.ping()
            client.close()

    def test_inflight_count_survives_concurrent_connections(self, running):
        # Every JSON thread and the event loop update one in-flight
        # count; a lost update would leave it off zero and hang stop().
        clients, rounds = 8, 200
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def hammer():
                with StatisticsClient(*running.address, timeout=5.0) as client:
                    for _ in range(rounds):
                        client.ping()

            with BinaryStatisticsClient(*running.address) as binary:
                workers = [threading.Thread(target=hammer) for _ in range(clients)]
                for worker in workers:
                    worker.start()
                for _ in range(rounds):
                    binary.estimate_range_batch(
                        "orders", "amount", np.array([1.0]), np.array([50.0])
                    )
                for worker in workers:
                    worker.join(30.0)
                assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(switch)
        # A request leaves the count just after its answer is sent.
        deadline = time.perf_counter() + 2.0
        while running.server._inflight and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert running.server._inflight == 0
        wire = running.server.service.metrics.wire_snapshot()["transports"]
        assert wire["json"]["frames_in"] == clients * rounds

    def test_accepted_sockets_disable_nagle(self, running):
        # Without TCP_NODELAY a pipelined binary burst stalls on the
        # client's delayed ACK; every accepted socket gets it.
        with StatisticsClient(*running.address) as client:
            assert client.ping()
            (sock,) = running.server._json_conns
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_thread_start_failure_refuses_one_connection(
        self, running, monkeypatch
    ):
        start = threading.Thread.start

        def failing_start(thread):
            if thread.name.startswith(JSON_THREAD_PREFIX):
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        with StatisticsClient(*running.address, timeout=2.0) as client:
            with pytest.raises(ServiceError, match="cannot serve this connection"):
                client.ping()
        monkeypatch.setattr(threading.Thread, "start", start)
        with StatisticsClient(*running.address, timeout=2.0) as client:
            assert client.ping()
        with BinaryStatisticsClient(*running.address, timeout=2.0) as client:
            assert client.ping()
            counters = client.metrics()["metrics"]["counters"]
        assert counters["json_threads_refused"] == 1


class TestLineBound:
    def test_line_over_64k_is_answered_like_binary(self, running, rng):
        lows = rng.integers(1, 250, size=5000).astype(float)
        highs = lows + rng.integers(1, 60, size=5000)
        predicates = [
            RangePredicate("amount", low, high) for low, high in zip(lows, highs)
        ]
        request = {"op": "estimate_batch", "predicates": predicates_to_wire(predicates)}
        assert len(encode_line(request)) > 1 << 16  # asyncio's readline limit
        with StatisticsClient(*running.address) as client:
            estimates = client.estimate_range_batch("orders", "amount", lows, highs)
        with BinaryStatisticsClient(*running.address) as client:
            expected = client.estimate_range_batch("orders", "amount", lows, highs)
        got = np.array([estimate.value for estimate in estimates])
        np.testing.assert_array_equal(got, expected)

    def test_over_long_line_is_a_typed_error_and_the_connection_survives(
        self, service
    ):
        handle = start_server_thread(
            service, config=ServiceConfig(max_frame_bytes=1024)
        )
        try:
            with StatisticsClient(*handle.address, timeout=2.0) as client:
                predicates = [RangePredicate("amount", 1, 50)] * 64
                with pytest.raises(ServiceError, match="request line exceeds") as info:
                    client.estimate_batch("orders", predicates)
                assert not isinstance(info.value, ServiceUnavailableError)
                assert client.ping()
        finally:
            handle.stop()

    def test_limit_counts_the_line_without_its_newline(self, service):
        limit = 256
        handle = start_server_thread(
            service, config=ServiceConfig(max_frame_bytes=limit)
        )
        try:
            with socket.create_connection(handle.address, timeout=2.0) as sock:
                for size, ok in ((limit, True), (limit + 1, False)):
                    line = encode_line({"op": "ping", "pad": ""})
                    pad = size - (len(line) - 1)
                    line = encode_line({"op": "ping", "pad": " " * pad})
                    assert len(line) - 1 == size
                    sock.sendall(line)
                    response = decode_line(read_line(sock))
                    assert response["ok"] is ok
        finally:
            handle.stop()
