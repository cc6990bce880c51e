"""BatchState: row recycling, stable indirection, and scalar-order views."""

import tracemalloc

import numpy as np
import pytest

from repro.core.batchstate import BatchState
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.units import bytes_in_interval


def spec(name: str, required: float = 10.0) -> StreamSpec:
    return StreamSpec(name=name, required_mbps=required, probability=0.95)


def elastic_spec(name: str) -> StreamSpec:
    return StreamSpec(name=name, elastic=True, nominal_mbps=40.0)


def make_batch(n_columns: int = 20, capacity: int = 4) -> BatchState:
    return BatchState(
        n_columns=n_columns, dt=0.1, buffer_seconds=2.0, capacity=capacity
    )


class TestRowLifecycle:
    def test_open_precomputes_scalar_constants(self):
        batch = make_batch()
        row = batch.open(spec("s", required=12.5), opened_col=3)
        assert batch.demand_mbps[row] == 12.5
        assert batch.arrival_bytes[row] == bytes_in_interval(12.5, 0.1)
        assert batch.limit_bytes[row] == bytes_in_interval(12.5, 2.0)
        assert batch.opened_col[row] == 3

    def test_elastic_stream_has_nan_demand(self):
        batch = make_batch()
        row = batch.open(elastic_spec("e"), opened_col=0)
        assert np.isnan(batch.demand_mbps[row])
        assert batch.arrival_bytes[row] == 0.0

    def test_duplicate_open_rejected(self):
        batch = make_batch()
        batch.open(spec("s"), opened_col=0)
        with pytest.raises(ConfigurationError):
            batch.open(spec("s"), opened_col=0)

    def test_close_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_batch().close("ghost", cur_col=0)

    def test_free_list_reuse_is_lifo(self):
        batch = make_batch()
        rows = {
            name: batch.open(spec(name), opened_col=0)
            for name in ["a", "b", "c"]
        }
        batch.close("a", cur_col=1)
        batch.close("c", cur_col=1)
        # LIFO: the most recently freed row ("c"'s) is recycled first.
        assert batch.open(spec("d"), opened_col=1) == rows["c"]
        assert batch.open(spec("e"), opened_col=1) == rows["a"]

    def test_reopen_moves_to_end_of_iteration_order(self):
        batch = make_batch()
        for name in ["a", "b", "c"]:
            batch.open(spec(name), opened_col=0)
        batch.close("a", cur_col=2)
        batch.open(spec("a"), opened_col=2)
        assert list(batch.names()) == ["b", "c", "a"]
        ordered = batch.rows_in_order()
        assert [batch.row(n) for n in ["b", "c", "a"]] == list(ordered)


class TestGrowth:
    def test_growth_preserves_live_rows(self):
        batch = make_batch(capacity=2)
        specs = [spec(f"s{i}", required=5.0 + i) for i in range(5)]
        for i, s in enumerate(specs):
            batch.open(s, opened_col=0)
            batch.backlog_bytes[batch.row(s.name)] = 100.0 * i
            batch.write(batch.row(s.name), 0, float(i))
        assert batch.capacity >= 5
        for i, s in enumerate(specs):
            row = batch.row(s.name)
            assert batch.demand_mbps[row] == 5.0 + i
            assert batch.backlog_bytes[row] == 100.0 * i
            np.testing.assert_array_equal(
                batch.history_array(s.name, cur_col=1), [float(i)]
            )

    def test_growth_nan_fills_spec_columns(self):
        batch = make_batch(capacity=1)
        batch.open(spec("a"), opened_col=0)
        batch.open(spec("b"), opened_col=0)
        # Unused tail rows read as "no stream": NaN demand, no backlog.
        tail = np.arange(batch.n_open, batch.capacity)
        assert np.all(np.isnan(batch.demand_mbps[tail]))
        assert np.all(batch.backlog_bytes[tail] == 0)


class TestHistoryViews:
    def test_close_freezes_lifetime_slice(self):
        """A view taken before the close keeps the lifetime's values
        while the freed row is recycled; the name reads empty."""
        batch = make_batch()
        row = batch.open(spec("s"), opened_col=2)
        batch.write(row, slice(2, 5), [1.0, 2.0, 3.0])
        view = batch.history_array("s", cur_col=5)
        batch.close("s", cur_col=5)
        assert len(batch.history_array("s", cur_col=9)) == 0
        assert batch.open(spec("t"), opened_col=5) == row
        batch.write(batch.rows_in_order(), 5, [9.0])
        np.testing.assert_array_equal(view, [1.0, 2.0, 3.0])

    def test_open_stream_slices_to_current_column(self):
        batch = make_batch()
        row = batch.open(spec("s"), opened_col=1)
        batch.write(row, slice(1, 3), [4.0, 5.0])
        np.testing.assert_array_equal(
            batch.history_array("s", cur_col=3), [4.0, 5.0]
        )

    def test_unknown_stream_reads_empty(self):
        assert len(make_batch().history_array("ghost", cur_col=3)) == 0

    def test_reopen_discards_frozen_history(self):
        batch = make_batch()
        row = batch.open(spec("s"), opened_col=0)
        batch.write(row, 0, 7.0)
        batch.close("s", cur_col=1)
        batch.open(spec("s"), opened_col=4)
        np.testing.assert_array_equal(
            batch.history_array("s", cur_col=4), np.zeros(0)
        )

    def test_load_history_roundtrip_and_overrun(self):
        batch = make_batch(n_columns=6)
        batch.open(spec("s"), opened_col=2)
        batch.load_history("s", np.asarray([1.5, 2.5]))
        np.testing.assert_array_equal(
            batch.history_array("s", cur_col=4), [1.5, 2.5]
        )
        with pytest.raises(ConfigurationError):
            batch.load_history("s", np.zeros(5))


def held_arrays(batch: BatchState) -> int:
    """Number of ndarrays reachable from the batch's attributes."""
    count = 0
    stack = list(vars(batch).values())
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            count += 1
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
    return count


class TestHistoryInPlace:
    """The history matrix is the one store, read in place."""

    def test_reads_are_read_only_views(self):
        batch = make_batch()
        row = batch.open(spec("s"), opened_col=0)
        batch.write(row, slice(0, 3), [1.0, 2.0, 3.0])
        open_view = batch.history_array("s", cur_col=3)
        batch.close("s", cur_col=3)
        # Still a read-only view of the matrix after the close.
        for view in (open_view, batch.history_array("s", 3)):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[:] = 0.0
        assert np.shares_memory(open_view, batch.history)

    def test_reports_allocate_no_copy_of_the_history(self):
        realization = make_figure8_testbed().realize(
            seed=77, duration=240.0, dt=0.1
        )
        service = IQPathsService(realization, warmup_intervals=200)
        service.open_streams(
            [elastic_spec(f"e{i}") for i in range(300)]
        )
        service.advance(60.0)
        for i in range(0, 300, 3):
            service.close_stream(f"e{i}")
        service.advance(1.0)
        nbytes = service._vec.batch.history.nbytes
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            reports = service.reports()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 200
        # Copies of these series would be ~16 % of the matrix.
        assert peak - base < 0.05 * nbytes

    def test_long_churn_holds_no_array_per_closed_stream(self):
        cycles = 3000
        batch = make_batch(n_columns=cycles + 1, capacity=4)
        expected = {name: [] for name in ("a", "b", "c")}
        for name in expected:
            batch.open(spec(name), opened_col=0)
        held = held_arrays(batch)
        #: Views the caller took at each close (the batch keeps none).
        kept = {}
        for col in range(cycles):
            name = f"c{col}"
            batch.open(spec(name), opened_col=col)
            expected[name] = []
            rows = batch.rows_in_order()
            values = 10.0 * col + np.arange(1, rows.size + 1)
            batch.write(rows, col, values)
            for stream, value in zip(batch.names(), values):
                expected[stream].append(value)
            kept[name] = batch.history_array(name, cur_col=col + 1)
            batch.close(name, cur_col=col + 1)
        assert held_arrays(batch) == held
        assert batch.capacity == 4
        # The batch knows the open streams only.
        assert list(batch.names()) == ["a", "b", "c"]
        assert len(batch.history_array("c0", cur_col=cycles)) == 0
        for name in ("a", "b", "c"):
            kept[name] = batch.history_array(name, cur_col=cycles)
        # Recycled rows never overwrote a closed span.
        for name, series in expected.items():
            np.testing.assert_array_equal(kept[name], series)

    def test_growth_after_writes_preserves_every_written_column(self):
        batch = make_batch(n_columns=12, capacity=1)
        expected = {}
        for col in range(8):
            if col == 3:
                closed = batch.history_array("s1", cur_col=3)
                batch.close("s1", cur_col=3)
            name = f"s{col}"
            batch.open(spec(name), opened_col=col)
            expected[name] = []
            rows = batch.rows_in_order()
            values = 100.0 * col + np.arange(1, rows.size + 1)
            batch.write(rows, col, values)
            for stream, value in zip(batch.names(), values):
                expected[stream].append(value)
        assert batch.capacity == 8
        assert batch.written == 8
        # The closed span, read through the view taken at the close.
        np.testing.assert_array_equal(closed, expected.pop("s1"))
        for name, series in expected.items():
            np.testing.assert_array_equal(
                batch.history_array(name, cur_col=8), series
            )
            # Columns no write reached read as zeros.
            np.testing.assert_array_equal(
                batch.history_array(name, cur_col=12)[len(series):], 0.0
            )

    def test_growth_after_load_history_preserves_the_series(self):
        batch = make_batch(n_columns=10, capacity=1)
        batch.open(spec("r"), opened_col=2)
        batch.load_history("r", np.asarray([1.5, 2.5, 3.5]))
        assert batch.written == 5
        before = batch.history_array("r", cur_col=5)
        batch.open(spec("x"), opened_col=5)
        assert batch.capacity == 2
        np.testing.assert_array_equal(
            batch.history_array("r", cur_col=5), [1.5, 2.5, 3.5]
        )
        # A view taken before the grow still reads the old matrix.
        np.testing.assert_array_equal(before, [1.5, 2.5, 3.5])
        assert not np.shares_memory(before, batch.history)

    def test_reset_drops_the_high_water_mark(self):
        batch = make_batch(n_columns=4)
        row = batch.open(spec("s"), opened_col=0)
        batch.write(row, 2, 1.0)
        assert batch.written == 3
        batch.reset()
        assert batch.written == 0


class TestCountersAndBacklog:
    def test_backlog_items_follow_insertion_order(self):
        batch = make_batch()
        for name in ["x", "y"]:
            batch.open(spec(name), opened_col=0)
        batch.set_backlog("x", 10.0)
        batch.set_backlog("y", 20.0)
        assert list(batch.backlog_items()) == [("x", 10.0), ("y", 20.0)]

    def test_close_zeroes_backlog(self):
        batch = make_batch()
        row = batch.open(spec("s"), opened_col=0)
        batch.set_backlog("s", 99.0)
        batch.close("s", cur_col=1)
        assert batch.backlog_bytes[row] == 0.0

    def test_reset_drops_everything(self):
        batch = make_batch(n_columns=4)
        batch.open(spec("s"), opened_col=0)
        batch.close("s", cur_col=1)
        batch.reset(n_columns=8)
        assert batch.n_open == 0
        assert batch.n_columns == 8
        assert len(batch.history_array("s", cur_col=2)) == 0


class TestValidation:
    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            BatchState(n_columns=-1, dt=0.1, buffer_seconds=2.0)
        with pytest.raises(ConfigurationError):
            BatchState(n_columns=4, dt=0.0, buffer_seconds=2.0)
        with pytest.raises(ConfigurationError):
            BatchState(n_columns=4, dt=0.1, buffer_seconds=2.0, capacity=0)
