"""Self-test of the benchmark's helpers. Run from the repository root:

    python3 -m pytest perfbench/tests
"""
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import stats
import tracing
import workloads


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    value, pct, samples = stats.tail(values)
    assert (value, pct, samples) == (90, 90.0, 100)
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, samples = stats.tail([5.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and samples == 11
    assert pct == pytest.approx(100.0 / 11)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_err_digits():
    assert stats.err_digits(1e-7) == pytest.approx(7.0)
    assert stats.err_digits(1.0) == 0.0
    assert stats.err_digits(0.0) == pytest.approx(52 * math.log10(2))


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(4.0)
    assert tracing.covered(2.0, 6.5, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == pytest.approx(2.5)
    assert tracing.covered(0.0, 1.0, []) == 0.0


def test_self_time_subtracts_union_of_overlapping_thread_spans():
    tracer = tracing.Tracer()
    child = tracer.wrap("m.child", lambda: time.sleep(0.05))
    barrier = threading.Barrier(2)

    def both():
        barrier.wait(timeout=5)
        child()

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for fut in [pool.submit(both) for _ in range(2)]:
                fut.result(timeout=5)

    tracer.wrap("m.parent", parent)()
    p, c = tracer.stats["m.parent"], tracer.stats["m.child"]
    assert c.calls == 2
    assert c.total_s >= 0.1 > p.total_s  # the children overlapped
    # the union of the children is at least 0.05 s of the parent's span
    assert p.self_s <= p.total_s - 0.05 + 1e-6
    assert p.self_s >= 0.0


def test_spans_from_many_threads_are_all_counted():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("m.leaf", lambda: None)

    def work():
        for _ in range(500):
            leaf()

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert tracer.stats["m.leaf"].calls == 4000


def test_errors_are_counted_and_reraised():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("m.boom", boom)()
    assert tracer.stats["m.boom"].errors == 1


def test_useful_point_ratio_on_default_overlap_grid():
    from lifshitz_fidelity import BosonGasParams, boundary, kernels

    original = kernels.simpson
    tracer = tracing.Tracer()
    tracer.install()
    try:
        boundary.overlap_quadrature(BosonGasParams(), 0.01)
    finally:
        tracer.uninstall()
    assert kernels.simpson is original
    # two Simpson levels of 4097 and 8193 points; only the last is kept
    assert tracer.quad_ratios == [8193 / (4097 + 8193)]
    assert tracer.stats["kernels.gaussian_product"].points == 4097 + 8193
    assert tracer.stats["kernels.gaussian_product"].bytes_computed == 2 * 8 * (4097 + 8193)


def test_missing_functions_are_recorded_absent(monkeypatch):
    from lifshitz_fidelity import verification

    original = verification.run_all
    monkeypatch.setattr(tracing, "FOREIGN", (("boundary", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verification.run_all is not original
    finally:
        tracer.uninstall()
    assert verification.run_all is original
    assert tracer.absent == ["boundary.no_such_function"]


def test_verify_checks_are_traced_through_the_check_tuple():
    from lifshitz_fidelity import verification

    tracer = tracing.Tracer()
    tracer.install()
    try:
        verification.check_flag_determinism()  # direct call
        verification.run_all()
    finally:
        tracer.uninstall()
    assert tracer.stats["verification.check_flag_determinism"].calls == 2
    assert tracer.stats["verification.check_horizon_root"].calls == 1


def test_pools_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.make_pool(name, 7)
        assert [r.argv for r in a] == [r.argv for r in workloads.make_pool(name, 7)]
    assert ([r.argv for r in workloads.make_pool("sweep-boundary", 7)]
            != [r.argv for r in workloads.make_pool("sweep-boundary", 8)])


def test_boundary_inputs_stay_inside_the_fit_domain():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        q, h_lo, h_hi, beta = workloads.boundary_point(rng)
        assert 0.1 <= q <= 10 and 0.1 <= h_lo < h_hi <= 10
        assert 4 * beta**2 / (q * h_lo) <= workloads.BOUNDARY_X_MAX * (1 + 1e-12)


class _FakeExecutor:
    """Stands in for run.Executor: the request's slot sets its cost."""

    workers = 2

    def run(self, req):
        return 1.0 + req.points, workloads.Outcome(True, None)


class _FakeTracer:
    def install(self):
        pass

    def uninstall(self):
        pass


def test_request_loop_traces_every_request_both_ways():
    import run

    pool = [workloads.Request("sweep", [], 0), workloads.Request("sweep", [], 2)]
    done = run.request_loop(_FakeExecutor(), pool, 0, run.Tally(), tracer=_FakeTracer())
    assert len(done) > stats.TAIL_BEYOND
    for slot in range(len(pool)):
        assert {s.traced for s in done if s.slot == slot} == {False, True}


def test_trace_overhead_compares_each_slot_with_itself():
    samples = [stats.Sample(slot, 0, cost * (1.1 if traced else 1.0), traced, True)
               for slot, cost in ((0, 1.0), (1, 3.0)) for traced in (False, True, False)]
    assert stats.trace_overhead(samples) == pytest.approx(0.1)
    assert stats.trace_overhead([stats.Sample(0, 0, 1.0, False, True)]) is None


def test_points_per_s_counts_passing_points_over_all_time():
    samples = [stats.Sample(0, 10, 1.0, False, True), stats.Sample(1, 10, 1.0, False, False)]
    assert stats.good_points_per_s(samples) == pytest.approx(5.0)
    assert stats.good_points_per_s([stats.Sample(0, 10, 0.0, False, False)]) == 0.0


def test_a_raising_request_keeps_its_time(tmp_path, monkeypatch):
    import run

    monkeypatch.setenv("LF_WORKERS", "1")  # restored after the test

    class Raising:
        @staticmethod
        def main(argv):
            time.sleep(0.02)
            raise RuntimeError("boom")

    ex = run.Executor("sweep-boundary", tmp_path)
    ex.cli = Raising
    try:
        dt, outcome = ex.run(workloads.Request("sweep", ["sweep"], 1))
    finally:
        ex.close()
    assert dt >= 0.02 and not outcome.ok and "boom" in outcome.note
