"""Cross-model consistency: analytic workload ≡ executed counters ≡ WMMA.

Three independent definitions of "how much work a search does" exist in
this repository: closed-form accounting (`perfmodel.workload`), counters
accumulated by the executed pipeline (`device.virtual_gpu`), and the
instruction-level execution model (`tensor.wmma`).  These tests pin all
three to each other under randomized configurations, so no layer can
drift.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitops import BitMatrix
from repro.core.search import Epi4TensorSearch, SearchConfig
from repro.datasets import Dataset, generate_random_dataset
from repro.device.specs import A100_PCIE, TITAN_RTX
from repro.perfmodel.figures import fig2_grid
from repro.perfmodel.workload import search_workload
from repro.tensor.wmma import WmmaGemm

shapes = st.fixed_dictionaries(
    {
        "m_blocks": st.integers(2, 4),
        "block_size": st.integers(2, 5),
        "n_samples": st.integers(20, 90),
        "seed": st.integers(0, 1000),
    }
)


class TestWorkloadVsCounters:
    @settings(max_examples=10, deadline=None)
    @given(shapes)
    def test_all_counters_match_closed_form(self, cfg):
        m = cfg["m_blocks"] * cfg["block_size"]
        rng = np.random.default_rng(cfg["seed"])
        ds = Dataset(
            genotypes=rng.integers(0, 3, (m, cfg["n_samples"]), dtype=np.int8),
            phenotypes=rng.random(cfg["n_samples"]) < 0.5,
        )
        if ds.n_cases == 0 or ds.n_controls == 0 or m < 4:
            return
        # prune=False: the closed forms count every valid position scored.
        res = Epi4TensorSearch(
            ds, SearchConfig(block_size=cfg["block_size"], prune=False)
        ).run()
        wl = search_workload(m, cfg["n_samples"], cfg["block_size"])
        c = res.metrics
        raw = c.sum_by("epi4_tensor_ops_total", "kernel", form="raw")
        assert raw["tensor4"] == wl.executed_tensor4_ops
        assert raw["tensor3"] == wl.executed_tensor3_ops
        assert c.total("epi4_combine_bit_ops_total") == wl.executed_combine_bit_ops
        assert c.total("epi4_score_cells_total") == wl.score_cells
        assert c.total("epi4_pairwise_ops_total") == wl.pairwise_ops
        # The counter reflects word-padded storage; the closed form counts
        # exact bits (they coincide asymptotically).
        words = ((ds.n_controls + 63) // 64) + ((ds.n_cases + 63) // 64)
        transfer = c.total("epi4_transfer_bytes_total")
        assert transfer == 8 * 2 * m * words
        assert transfer >= wl.transfer_bytes


class TestCountersVsWmma:
    def test_padded_accounting_equals_wmma_instructions(self):
        """The device layer's tile-quantized op counts must equal what the
        fragment-level executor actually issues."""
        rng = np.random.default_rng(5)
        for spec in (TITAN_RTX, A100_PCIE):
            a = BitMatrix.from_bool(rng.random((36, 700)) < 0.4)
            b = BitMatrix.from_bool(rng.random((20, 700)) < 0.4)
            _, stats = WmmaGemm(spec.tiles, "and").gemm(a, b)
            assert stats.fused_ops == spec.tiles.padded_ops(36, 20, 700)
            im, in_, ik = spec.tiles.instruction
            assert stats.fused_ops == stats.instructions * 2 * im * in_ * ik


class TestFigureShapes:
    """Structural invariants of the modelled Fig. 2 grid."""

    @pytest.fixture(scope="class")
    def grid(self):
        rows = fig2_grid(block_sizes=(32,), stream_counts=(1,))
        return {
            (r.system, r.engine, r.n_snps, r.n_samples): r.tera_quads_per_second
            for r in rows
        }

    def test_perf_increases_with_snps(self, grid):
        for system, engine in (("S1", "xor"), ("S2", "and")):
            for n in (32768, 262144):
                series = [grid[(system, engine, m, n)] for m in (256, 512, 1024, 2048)]
                assert series == sorted(series), (system, n)

    def test_ampere_monotone_in_samples(self, grid):
        for m in (256, 2048):
            series = [
                grid[("S2", "and", m, n)]
                for n in (32768, 65536, 131072, 262144, 524288)
            ]
            assert series == sorted(series), m

    def test_turing_cliff_at_524288(self, grid):
        for m in (256, 2048):
            assert (
                grid[("S1", "xor", m, 524288)] < grid[("S1", "xor", m, 262144)]
            ), m

    def test_a100_beats_titan_everywhere(self, grid):
        for m in (256, 512, 1024, 2048):
            for n in (32768, 65536, 131072, 262144, 524288):
                assert grid[("S2", "and", m, n)] > grid[("S1", "xor", m, n)]
