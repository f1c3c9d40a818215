"""Ablation: sample-chunked GEMM execution (§4.5's Turing-cliff mitigation).

The paper suggests splitting >=524288-sample inputs into 262144-sample
matrices and adding the partial contingency tables element-wise.  The
mitigation is modelled, not executed: chunking removes the Turing cliff.
"""

from repro.device.specs import TITAN_RTX
from repro.perfmodel import predict_search

from conftest import print_table


def test_model_chunking_removes_turing_cliff(benchmark):
    def predictions():
        plain = predict_search(TITAN_RTX, 2048, 524288, 32)
        chunked = predict_search(TITAN_RTX, 2048, 524288, 32, sample_chunked=True)
        below = predict_search(TITAN_RTX, 2048, 262144, 32)
        return plain, chunked, below

    plain, chunked, below = benchmark(predictions)
    print_table(
        "Turing 524288-sample cliff (model)",
        ["config", "tera-q/s"],
        [
            ["N=262144 (below cliff)", f"{below.tera_quads_per_second_scaled:.1f}"],
            ["N=524288 plain", f"{plain.tera_quads_per_second_scaled:.1f}"],
            ["N=524288 chunked", f"{chunked.tera_quads_per_second_scaled:.1f}"],
        ],
    )
    assert plain.tera_quads_per_second_scaled < below.tera_quads_per_second_scaled
    # Chunking recovers close to the below-cliff rate ("keeping close to the
    # highest performance achieved").
    assert (
        chunked.tera_quads_per_second_scaled
        > 0.9 * below.tera_quads_per_second_scaled
    )
