"""``torch``: optional torch-matmul backend (GPU-capable).

Registers only when :mod:`torch` imports — environments without it
simply don't list the backend, mirroring the numba pattern.  Install
with the ``.[torch]`` extra.

The plane-group decomposition, pack-once caches, shape banding, and
margin scan are all shared with ``numpy-packed`` via
:mod:`repro.hw.backends.packed_common`; only the batched GEMM runs
through torch, on ``$REPRO_TORCH_DEVICE`` (default ``cuda`` when
available, else ``cpu``).  Exactness still holds: operands are exact
integers inside the float32/float64 windows, and TF32 matmul
downcasting — which would destroy the 24-bit window on Ampere+ GPUs —
is explicitly disabled, so results stay bit-identical to the scalar
trace and every other backend.  Plane caches live CPU-side (numpy);
operands transfer per call.
"""

from __future__ import annotations

import os

import numpy as np
import torch

from . import KernelJob, register_backend
from .packed_common import fused_matrix_many, fused_matrix_table

# float32 exactness relies on true fp32 accumulation; TF32's 10-bit
# mantissa would silently break the 2^24 exact-integer window
torch.backends.cuda.matmul.allow_tf32 = False

_DEVICE = torch.device(
    os.environ.get("REPRO_TORCH_DEVICE")
    or ("cuda" if torch.cuda.is_available() else "cpu"))


def torch_batched_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:data:`~repro.hw.backends.packed_common.BatchedGemm` via torch:
    stacked ``a @ b^T`` over the last two axes."""
    ta = torch.from_numpy(np.ascontiguousarray(a)).to(_DEVICE)
    tb = torch.from_numpy(np.ascontiguousarray(b)).to(_DEVICE)
    out = torch.matmul(ta, tb.transpose(-1, -2))
    return out.cpu().numpy()


class TorchBackend:
    """Plane-group kernel with torch batched matmuls behind the
    :class:`KernelBackend` protocol."""

    name = "torch"
    description = ("plane-group kernel over torch batched matmuls "
                   f"(device={_DEVICE.type}; registered only when "
                   "torch imports)")

    @staticmethod
    def matrix(q, k, threshold, magnitude_bits, group, valid=None,
               margin_scale=1.0):
        job = KernelJob(q=q, k=k, threshold=threshold,
                        magnitude_bits=magnitude_bits, group=group,
                        valid=valid, margin_scale=margin_scale)
        return fused_matrix_many([job], torch_batched_gemm)[0]

    @staticmethod
    def matrix_many(jobs, cache=None):
        return fused_matrix_many(jobs, torch_batched_gemm, cache=cache)

    @staticmethod
    def matrix_table(table):
        return fused_matrix_table(table, torch_batched_gemm)


BACKEND = register_backend(TorchBackend())
