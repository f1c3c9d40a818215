"""Analytic workload + calibrated performance model.

:mod:`repro.perfmodel.workload` counts exactly how much work (tensor ops,
combine ops, score cells, bytes) a search of given ``(M, N0, N1, B)``
performs — the same numbers the :class:`~repro.device.VirtualGPU` launches
count, obtainable without running anything.

:mod:`repro.perfmodel.efficiency` and :mod:`repro.perfmodel.model` turn that
workload into projected runtimes/TOPS for the paper's GPUs, calibrated
against the anchor measurements the paper discloses (§4.5-§4.6).

:mod:`repro.perfmodel.figures` generates the full series behind Fig. 2,
Fig. 3 and Table 2.
"""

from repro.perfmodel.efficiency import tensor_efficiency
from repro.perfmodel.model import PerformancePrediction, predict_multi_gpu, predict_search
from repro.perfmodel.workload import SearchWorkload, outer_iteration_tensor_ops, search_workload

__all__ = [
    "PerformancePrediction",
    "SearchWorkload",
    "outer_iteration_tensor_ops",
    "predict_multi_gpu",
    "predict_search",
    "search_workload",
    "tensor_efficiency",
]
