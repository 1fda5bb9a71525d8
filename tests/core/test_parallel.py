"""Parallel multi-column histogram construction."""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.builder import build_histogram
from repro.core.catalog import StatisticsCatalog
from repro.core.config import HistogramConfig
from repro.core.density import AttributeDensity
from repro.core import parallel
from repro.core.parallel import (
    build_column_histograms,
    build_table_histograms,
    default_workers,
    shutdown_build_pools,
)
from repro.core.serialize import serialize_histogram
from repro.dictionary.column import DictionaryEncodedColumn
from repro.dictionary.table import Table


def _columns(rng, n=5, rows=8_000):
    return [
        DictionaryEncodedColumn.from_values(
            rng.integers(0, 200 + 50 * i, size=rows), name=f"col{i}"
        )
        for i in range(n)
    ]


def _table(rng):
    table = Table("orders")
    for column in _columns(rng, n=4):
        table.add_column(column)
    # Unworthy columns: tiny domain and a unique key.
    table.add_column(
        DictionaryEncodedColumn.from_values(rng.choice([1, 2, 3], size=8_000), name="status")
    )
    table.add_column(
        DictionaryEncodedColumn.from_values(np.arange(3_000), name="order_id")
    )
    return table


def _assert_same_histograms(got, expected, rng):
    assert set(got) == set(expected)
    for name in expected:
        a, b = got[name], expected[name]
        assert a.kind == b.kind and len(a) == len(b)
        for _ in range(20):
            lo, hi = sorted(rng.uniform(0, a.hi, size=2))
            assert a.estimate(lo, hi) == b.estimate(lo, hi)


class TestBuildColumnHistograms:
    @pytest.mark.parametrize("executor", ["process", "thread", "serial"])
    def test_matches_direct_builds(self, rng, executor):
        columns = _columns(rng)
        config = HistogramConfig(q=2.0, theta=16)
        got = build_column_histograms(
            columns, kind="V8DincB", config=config, max_workers=2, executor=executor
        )
        expected = {
            c.name: build_histogram(
                AttributeDensity(c.frequencies), kind="V8DincB", config=config
            )
            for c in columns
        }
        _assert_same_histograms(got, expected, rng)

    def test_value_based_kind_ships_dictionary(self, rng):
        columns = _columns(rng, n=3)
        got = build_column_histograms(
            columns, kind="1VincB1", max_workers=2, executor="thread"
        )
        for column in columns:
            assert got[column.name].domain == "value"

    def test_parallel_matches_serial(self, rng):
        columns = _columns(rng)
        config = HistogramConfig(q=2.0, theta=8)
        serial = build_column_histograms(
            columns, config=config, executor="serial"
        )
        parallel = build_column_histograms(
            columns, config=config, max_workers=3, executor="process"
        )
        _assert_same_histograms(parallel, serial, rng)

    def test_single_column_short_circuits_to_serial(self, rng):
        # One job never pays for a pool; result must still be correct.
        columns = _columns(rng, n=1)
        got = build_column_histograms(columns, max_workers=8, executor="process")
        assert set(got) == {"col0"}

    def test_duplicate_names_rejected(self, rng):
        column = _columns(rng, n=1)[0]
        with pytest.raises(ValueError):
            build_column_histograms([column, column])

    def test_bad_arguments_rejected(self, rng):
        columns = _columns(rng, n=2)
        with pytest.raises(ValueError):
            build_column_histograms(columns, kind="nope")
        with pytest.raises(ValueError):
            build_column_histograms(columns, executor="fibers")
        with pytest.raises(ValueError):
            build_column_histograms(columns, max_workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1


class TestBuildTableHistograms:
    def test_skips_unworthy_columns(self, rng):
        table = _table(rng)
        got = build_table_histograms(table, max_workers=2, executor="thread")
        assert set(got) == {"col0", "col1", "col2", "col3"}

    def test_bulk_loads_catalog(self, tmp_path, rng):
        table = _table(rng)
        catalog = StatisticsCatalog(tmp_path)
        got = build_table_histograms(
            table, max_workers=2, executor="thread", catalog=catalog
        )
        assert len(catalog) == len(got) == 4
        reopened = StatisticsCatalog(tmp_path)
        for name, histogram in got.items():
            restored = reopened.get("orders", name)
            lo, hi = sorted(rng.uniform(0, histogram.hi, size=2))
            assert restored.estimate(lo, hi) == histogram.estimate(lo, hi)

    def test_process_pool_end_to_end(self, tmp_path, rng):
        table = _table(rng)
        catalog = StatisticsCatalog(tmp_path)
        got = build_table_histograms(
            table, max_workers=2, executor="process", catalog=catalog
        )
        assert set(catalog.entries()) == {("orders", name) for name in got}


def serialized(histograms):
    return {name: serialize_histogram(h) for name, h in histograms.items()}


class TestBuildPool:
    def test_pool_matches_serial_byte_for_byte(self, rng):
        columns = _columns(rng, n=6)
        config = HistogramConfig(q=2.0, theta=16)
        for kind in ("V8DincB", "1Dinc", "F8Dgt", "1VincB1"):
            serial = build_column_histograms(
                columns, kind=kind, config=config, executor="serial"
            )
            pooled = build_column_histograms(
                columns, kind=kind, config=config, max_workers=2, executor="process"
            )
            assert serialized(pooled) == serialized(serial), kind

    def test_results_keep_input_order(self, rng):
        # Columns go to the pool largest first; the result (and the
        # phase sink) still follow the caller's order.
        columns = _columns(rng, n=5)[::-1]
        sunk = []
        got = build_column_histograms(
            columns,
            max_workers=2,
            executor="process",
            phase_sink=lambda name, profile: sunk.append(name),
        )
        names = [c.name for c in columns]
        assert list(got) == names
        assert sunk == names

    def test_submits_largest_column_first(self, rng, monkeypatch):
        columns = _columns(rng, n=5)
        submitted = []

        class RecordingPool:
            def map(self, fn, payloads):
                payloads = list(payloads)
                submitted.extend(payload[0] for payload in payloads)
                return map(fn, payloads)

        monkeypatch.setattr(parallel, "_build_pool", lambda workers: RecordingPool())
        got = build_column_histograms(columns, max_workers=2, executor="process")
        sizes = {c.name: c.frequencies.size for c in columns}
        assert [sizes[name] for name in submitted] == sorted(
            sizes.values(), reverse=True
        )
        assert list(got) == [c.name for c in columns]

    def test_one_worker_builds_without_a_pool(self, rng, monkeypatch):
        def no_pool(workers):
            raise AssertionError("max_workers=1 must not start a pool")

        monkeypatch.setattr(parallel, "_build_pool", no_pool)
        got = build_column_histograms(
            _columns(rng, n=3), max_workers=1, executor="process"
        )
        assert len(got) == 3

    def test_shutdown_then_rebuild(self, rng):
        columns = _columns(rng, n=3)
        expected = serialized(
            build_column_histograms(columns, max_workers=2, executor="process")
        )
        shutdown_build_pools()
        assert serialized(
            build_column_histograms(columns, max_workers=2, executor="process")
        ) == expected

    def test_broken_pool_is_replaced(self, rng):
        columns = _columns(rng, n=3)
        expected = serialized(
            build_column_histograms(columns, max_workers=2, executor="process")
        )
        # A worker that dies outright breaks the pool for every caller.
        died = parallel._build_pool(2).submit(os._exit, 1)
        assert isinstance(died.exception(timeout=60), BrokenProcessPool)
        with pytest.raises(BrokenProcessPool):
            build_column_histograms(columns, max_workers=2, executor="process")
        assert serialized(
            build_column_histograms(columns, max_workers=2, executor="process")
        ) == expected

    def test_forked_child_builds_on_its_own_pool(self, rng):
        columns = _columns(rng, n=4)
        expected = serialized(
            build_column_histograms(columns, max_workers=2, executor="process")
        )
        pid = os.fork()
        if pid == 0:  # child: never return into pytest
            code = 1
            try:
                got = build_column_histograms(
                    columns, max_workers=2, executor="process"
                )
                own = (os.getpid(), 2) in parallel._POOLS
                code = 0 if own and serialized(got) == expected else 2
                shutdown_build_pools()
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung building on the process pool")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status) == 0
