"""Tests for the extension models: broadcast, multi-node, energy."""

import pytest

from repro.device.broadcast import (
    broadcast_host_serial,
    broadcast_p2p_allgather,
    broadcast_runtime_share,
)
from repro.device.specs import A100_SXM4
from repro.perfmodel import predict_multi_gpu, predict_search
from repro.perfmodel.energy import estimate_energy
from repro.perfmodel.multinode import predict_multi_node
from repro.perfmodel.workload import search_workload


class TestBroadcast:
    def test_host_serial_scales_with_gpus(self):
        one = broadcast_host_serial(10**9, 1)
        eight = broadcast_host_serial(10**9, 8)
        assert eight.seconds == pytest.approx(8 * one.seconds)

    def test_p2p_cheaper_at_scale(self):
        serial = broadcast_host_serial(10**9, 8)
        p2p = broadcast_p2p_allgather(10**9, 8)
        assert p2p.seconds < serial.seconds
        assert p2p.host_bytes < serial.host_bytes

    def test_p2p_single_gpu_degenerates(self):
        est = broadcast_p2p_allgather(10**9, 1)
        assert est.p2p_bytes == 0

    def test_paper_claim_broadcast_negligible(self):
        # §3.6: at the largest evaluated workload, distribution time is
        # irrelevant either way.
        wl = search_workload(4096, 524288, 32)
        pred = predict_multi_gpu(A100_SXM4, 8, 4096, 524288, 32)
        shares = broadcast_runtime_share(wl.transfer_bytes, 8, pred.seconds)
        assert shares["host_serial"] < 0.001
        assert shares["p2p_allgather"] < 0.001

    def test_validation(self):
        with pytest.raises(ValueError):
            broadcast_host_serial(-1, 2)
        with pytest.raises(ValueError):
            broadcast_p2p_allgather(10, 0)
        with pytest.raises(ValueError):
            broadcast_runtime_share(10, 2, 0.0)


class TestMultiNode:
    def test_single_node_matches_multi_gpu_model(self):
        node = predict_multi_node(1, 8, 4096, 524288, 32)
        gpu = predict_multi_gpu(A100_SXM4, 8, 4096, 524288, 32)
        assert node.tera_quads_per_second_scaled == pytest.approx(
            gpu.tera_quads_per_second_scaled, rel=0.01
        )

    def test_scaling_across_nodes(self):
        one = predict_multi_node(1, 8, 4096, 524288, 32)
        four = predict_multi_node(4, 8, 4096, 524288, 32)
        assert four.seconds < one.seconds
        assert four.speedup_vs_single_gpu > one.speedup_vs_single_gpu
        assert four.total_gpus == 32

    def test_granularity_limit(self):
        # nb = 4096/32 = 128 outer iterations: beyond 128 GPUs no gain.
        at_limit = predict_multi_node(16, 8, 4096, 524288, 32)
        beyond = predict_multi_node(32, 8, 4096, 524288, 32)
        assert beyond.schedule.makespan == pytest.approx(
            at_limit.schedule.makespan, rel=0.2
        )
        assert beyond.parallel_efficiency < at_limit.parallel_efficiency

    def test_broadcast_time_grows_with_nodes(self):
        two = predict_multi_node(2, 8, 2048, 262144, 32)
        sixteen = predict_multi_node(16, 8, 2048, 262144, 32)
        assert sixteen.broadcast_seconds > two.broadcast_seconds

    def test_validation(self):
        with pytest.raises(ValueError):
            predict_multi_node(0, 8, 2048, 262144, 32)


class TestEnergy:
    def test_power_is_tdp_times_gpus(self):
        pred = predict_multi_gpu(A100_SXM4, 8, 4096, 524288, 32)
        est = estimate_energy(pred)
        assert est.watts == pytest.approx(8 * 400)

    def test_joules_consistent(self):
        pred = predict_search(A100_SXM4, 2048, 524288, 32)
        est = estimate_energy(pred)
        assert est.joules == pytest.approx(est.watts * pred.seconds)

    def test_efficiency_improves_with_saturation(self):
        # Larger N -> better tensor efficiency -> more quads per joule.
        small = estimate_energy(predict_search(A100_SXM4, 2048, 32768, 32))
        large = estimate_energy(predict_search(A100_SXM4, 2048, 524288, 32))
        assert (
            large.giga_quad_samples_per_joule
            > small.giga_quad_samples_per_joule
        )

    def test_validation(self):
        pred = predict_search(A100_SXM4, 1024, 32768, 32)
        with pytest.raises(ValueError, match="draw_fraction"):
            estimate_energy(pred, draw_fraction=0.0)
