"""Per-iteration base-model latency (prefill / decode / vision encode).

The serving engine advances its simulated clock by these costs.  The base
model computation is identical across V-LoRA and all baselines — systems
differ only in the LoRA operator, the mode switches, and the schedule — so
a roofline treatment is sufficient here while the kernel-level tiling
model (:mod:`repro.kernels`) carries the differentiating costs.

Calibration sanity (A100-80GB, Qwen-VL-7B):

* one decode step ~= weights read (13 GB) / effective HBM bandwidth
  plus per-layer launch overheads -> ~9-11 ms;
* prefill runs ~0.07-0.1 ms per input token (paper: "<1 ms per token");
* the LM head over a 152 k vocab adds ~0.8 ms per decode step, which the
  vision task head (§4.2.2) replaces with a negligible ~100-class GEMV.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Sequence, Tuple

from repro.hardware.gpu import GPUSpec
from repro.hardware.memory import FP16_BYTES
from repro.kernels.cost_model import GemmCostModel
from repro.models.config import ModelConfig


class IterationCostModel:
    """Latency of one engine iteration for a fixed (model, GPU) pair."""

    #: Achievable fraction of Tensor-core peak for large dense GEMMs.
    DENSE_EFFICIENCY = 0.50
    #: Fused kernels launched per transformer layer (qkv, attn, o, mlp).
    KERNELS_PER_LAYER = 4
    #: Fixed per-iteration software overhead (scheduler step, batch prep).
    ITERATION_OVERHEAD_S = 0.4e-3

    def __init__(self, model: ModelConfig, gpu: GPUSpec,
                 cost_model: GemmCostModel = None, tp_degree: int = 1):
        if tp_degree < 1:
            raise ValueError(f"tp_degree must be >= 1, got {tp_degree}")
        self.model = model
        self.gpu = gpu
        self.tp_degree = tp_degree
        self.cost_model = cost_model or GemmCostModel(gpu)
        # Memoize per *instance*: a class-level ``@lru_cache`` on a method
        # closes over ``self``, so one shared cache pins every instance
        # alive and mixes entries across (model, GPU, tp) configurations.
        self.decode_seconds_uniform = lru_cache(maxsize=4096)(
            self._decode_seconds_uniform
        )
        self._decode_steps: Dict[Tuple[int, bool, int],
                                 Callable[[int], float]] = {}
        # Tensor parallelism shards every weight matrix across GPUs:
        # per-GPU compute and weight traffic shrink by tp, at the cost of
        # two all-reduces of the activations per layer (Megatron-style).
        self._peak = gpu.tensor_flops * self.DENSE_EFFICIENCY * tp_degree
        self._bw = (gpu.hbm_bytes_per_s * self.cost_model.mem_efficiency
                    * tp_degree)
        self._layer_weight_bytes = (
            model.num_layers * model.params_per_layer * FP16_BYTES
        )
        self._launches = (
            model.num_layers * self.KERNELS_PER_LAYER
            * gpu.kernel_launch_us * 1e-6
        )

    def _allreduce_seconds(self, tokens: int) -> float:
        """Two ring all-reduces per layer of (tokens x d) activations."""
        if self.tp_degree == 1:
            return 0.0
        bytes_per = tokens * self.model.hidden_dim * FP16_BYTES
        ring = 2.0 * (self.tp_degree - 1) / self.tp_degree
        per_layer = 2 * (
            ring * bytes_per / self.gpu.nvlink_bytes_per_s
            + 2 * (self.tp_degree - 1) * self.gpu.nvlink_latency_us * 1e-6
        )
        return self.model.num_layers * per_layer

    # -- phases ---------------------------------------------------------------

    def prefill_seconds(
        self, token_counts: Sequence[int], num_images: int = 0
    ) -> float:
        """One prefill iteration over requests with the given input lengths.

        Includes causal attention over each request's own prefix and the
        vision encoder for any images entering with this batch.
        """
        if not token_counts:
            raise ValueError("prefill needs at least one request")
        if any(t <= 0 for t in token_counts):
            raise ValueError(f"token counts must be positive: {token_counts}")
        total = sum(token_counts)
        flops = total * self.model.flops_per_token()
        for t in token_counts:
            # Causal attention: average context of t/2 per new token.
            flops += self.model.attention_flops(t, max(t // 2, 1))
        compute = flops / self._peak
        # Weights stream through once per iteration; activations are minor.
        mem = self._layer_weight_bytes / self._bw
        t = max(compute, mem) + 0.1 * min(compute, mem)
        t += self._launches + self.ITERATION_OVERHEAD_S
        t += self._allreduce_seconds(total)
        t += self.vision_encode_seconds(num_images)
        return t

    def decode_seconds(
        self,
        context_lens: Sequence[int],
        lm_head: bool = True,
        task_head_classes: int = 0,
    ) -> float:
        """One decode step for a batch with the given per-request contexts.

        ``lm_head=False`` with ``task_head_classes > 0`` models a vision
        task head answering in this single round (§4.2.2).
        """
        if not context_lens:
            raise ValueError("decode needs at least one request")
        if any(c <= 0 for c in context_lens):
            raise ValueError(f"context lengths must be positive: {context_lens}")
        batch = len(context_lens)
        flops = batch * self.model.flops_per_token()
        flops += sum(
            self.model.attention_flops(1, c) for c in context_lens
        )
        compute = flops / self._peak
        kv_bytes = sum(context_lens) * self.model.kv_bytes_per_token
        mem = (self._layer_weight_bytes + kv_bytes) / self._bw
        t = max(compute, mem) + 0.1 * min(compute, mem)
        t += self._launches + self.ITERATION_OVERHEAD_S
        t += self._allreduce_seconds(batch)
        if lm_head:
            t += self.head_seconds(batch, self.model.vocab_size)
        if task_head_classes > 0:
            t += self.head_seconds(batch, task_head_classes)
        return t

    def head_seconds(self, batch: int, num_classes: int) -> float:
        """One output head pass: ``(batch x d) @ (d x num_classes)``."""
        if batch <= 0 or num_classes <= 0:
            raise ValueError("batch and num_classes must be positive")
        flops = 2.0 * batch * self.model.hidden_dim * num_classes
        wbytes = self.model.hidden_dim * num_classes * FP16_BYTES
        return max(flops / self._peak, wbytes / self._bw) + self.cost_model.launch_seconds(1)

    def vision_encode_seconds(self, num_images: int) -> float:
        """Vision receptor cost for ``num_images`` images entering the batch."""
        if num_images < 0:
            raise ValueError(f"num_images must be >= 0, got {num_images}")
        if num_images == 0:
            return 0.0
        enc = self.model.vision_encoder
        compute = num_images * enc.flops_per_image / self._peak
        wbytes = enc.num_params * FP16_BYTES
        mem = wbytes / self._bw
        return max(compute, mem) + self.cost_model.launch_seconds(num_images)

    def decode_seconds_stats(
        self,
        batch: int,
        total_context: int,
        lm_head: bool = True,
        task_head_classes: int = 0,
    ) -> float:
        """One decode step from sufficient statistics (batch, Σ context).

        Bit-identical to :meth:`decode_seconds` on any batch with the
        same size and total context length: the cost model is affine in
        the per-request context lengths (attention FLOPs and KV traffic
        are both linear in ``c``), and every intermediate product/sum is
        an exact integer-valued float far below 2**53, so the reduction
        loses nothing.  This lets the cost cache price a decode step
        from ``(batch, total_context)`` instead of the full per-request
        KV-length vector.  It evaluates :meth:`decode_step`, the one
        decode formula.
        """
        if total_context < batch:
            raise ValueError(
                f"total_context {total_context} below batch size {batch} "
                f"(context lengths are positive)"
            )
        return self.decode_step(batch, lm_head, task_head_classes)(
            total_context)

    def decode_step(
        self, batch: int, lm_head: bool = True, task_head_classes: int = 0,
    ) -> Callable[[int], float]:
        """The decode-step price of a fixed batch, as a function of its
        total context length.

        Every term that depends only on ``(batch, lm_head,
        task_head_classes)`` -- the batch's dense FLOPs, the launches and
        overhead, the all-reduce and the output heads -- is computed
        once, and the function adds them in the order
        :meth:`decode_seconds` does, so its result is ``==`` to
        :meth:`decode_seconds_stats`.  The functions are kept per
        ``(batch, lm_head, task_head_classes)``; a decode run prices all
        its iterations with one.
        """
        key = (batch, lm_head, task_head_classes)
        step = self._decode_steps.get(key)
        if step is None:
            if batch <= 0:
                raise ValueError(f"batch must be positive, got {batch}")
            step = self._decode_steps[key] = self._decode_step(*key)
        return step

    def _decode_step(self, batch: int, lm_head: bool,
                     task_head_classes: int) -> Callable[[int], float]:
        dense = batch * self.model.flops_per_token()
        # attention_flops is linear in the context: an exact integer
        # multiple of its one-token value.
        attention = self.model.attention_flops(1, 1)
        kv_per_token = self.model.kv_bytes_per_token
        weights = self._layer_weight_bytes
        peak, bw = self._peak, self._bw
        fixed = self._launches + self.ITERATION_OVERHEAD_S
        allreduce = self._allreduce_seconds(batch)
        # Adding 0.0 leaves a positive float unchanged, so an absent
        # head costs nothing and changes no rounding.
        lm = self.head_seconds(batch, self.model.vocab_size) if lm_head else 0.0
        task = (self.head_seconds(batch, task_head_classes)
                if task_head_classes > 0 else 0.0)

        def step(total_context: int) -> float:
            compute = (dense + attention * total_context) / peak
            mem = (weights + total_context * kv_per_token) / bw
            # max(compute, mem) + 0.1 * min(compute, mem), which picks
            # compute on a tie, without the two builtin calls.
            if mem > compute:
                t = mem + 0.1 * compute
            else:
                t = compute + 0.1 * mem
            t += fixed
            t += allreduce
            t += lm
            t += task
            return t

        return step

    # -- convenience -------------------------------------------------------------

    def _decode_seconds_uniform(
        self, batch: int, context_len: int,
        lm_head: bool = True, task_head_classes: int = 0,
    ) -> float:
        """Memoized decode step for a uniform-context batch (hot path).

        Exposed as ``decode_seconds_uniform`` (wrapped per instance in
        ``__init__`` so caches are never shared across GPU configs).
        """
        return self.decode_seconds(
            [context_len] * batch, lm_head=lm_head,
            task_head_classes=task_head_classes,
        )
