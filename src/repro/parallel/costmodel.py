"""The calibrated cost model of the simulated cluster.

Durations in the simulation are expressed in **evaluation units**: one
unit is the nominal time to generate and evaluate one neighbor on an
unloaded reference processor.  Everything else is scaled to that.

The model's terms and why they exist:

* ``eval_cost`` — per-neighbor generation + evaluation; the work the
  paper parallelizes.  Route scans and route-stats cache hits are
  folded into it.
* ``selection_cost(n)`` — the master-side cost of selecting from a
  pool of ``n`` evaluated neighbors and updating the memories (with a
  mild quadratic term for the pairwise non-dominated filtering).
* message costs — fixed ``msg_latency`` plus ``per_item`` transit per
  carried solution, a ``recv_cost`` the receiver pays to handle each
  message, and a ``contention`` factor that inflates latency and
  handling as more processors share the interconnect (the ccNUMA
  effect that makes the asynchronous variant fall off between 6 and 12
  processors and the collaborative variant's overhead grow with the
  number of searchers).
* **bulk vs. streamed receives** — the synchronous master performs a
  collective gather: it blocks at a barrier and then deserializes the
  whole remaining neighborhood (hundreds of solution payloads) on its
  critical path, costing ``recv_per_item_bulk`` per item.  The
  asynchronous master instead pre-posts receives for a stream of small
  batches; on a shared-memory ccNUMA machine the data is deposited
  while the master computes, leaving only the per-message handling and
  a small ``recv_per_item_stream`` on the critical path.  This
  computation/communication overlap is the textbook benefit of
  asynchronous protocols and, together with never waiting for
  stragglers, is what buys the asynchronous variant its large speedup
  at identical evaluation counts.
* the **stall model** (``stall_rate``/``stall_mean``) and
  ``speed_sigma`` — jitter and descheduling on a *shared* 128-CPU
  machine.  Stalls arrive as a Poisson process in compute time, so a
  long sequential generation pays the same expected inflation per unit
  of work as a short worker chunk — the model is fair to the
  sequential baseline.  What it is *not* fair to is a barrier: the
  synchronous master waits for the **maximum** over its workers'
  stall draws every iteration, while the mean-field sequential run
  only ever pays the average.  This straggler asymmetry is the paper's
  own explanation for the synchronous variant's poor speedup ("the
  processors wait a considerable amount of time") and for why the
  asynchronous variant — which simply refuses to wait (decision
  function) and lets stalled workers' neighbors trickle into later
  iterations — is so much faster at identical evaluation counts.

The default constants were calibrated (see
``benchmarks/bench_calibration.py`` and tests/test_parallel_shapes.py)
so the four qualitative shapes of the paper's Tables I–IV hold; no
claim is made about the Origin 3800's absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SimulationError

__all__ = ["CostModel"]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Durations of the simulated cluster, in evaluation units."""

    #: nominal cost of generating + evaluating one neighbor.
    eval_cost: float = 1.0
    #: linear selection/memory-update cost per pooled neighbor.
    proc_linear: float = 0.25
    #: quadratic pairwise-dominance cost coefficient.
    proc_quadratic: float = 0.00085
    #: fixed per-selection overhead (archive/crowding bookkeeping).
    iter_cost: float = 20.0
    #: cost of constructing the initial solution (I1), per customer.
    init_cost_per_customer: float = 1.0
    #: one-way message latency.
    msg_latency: float = 2.0
    #: transit cost per item (solution/neighbor) carried by a message.
    per_item: float = 0.05
    #: receiver-side handling cost per message.
    recv_cost: float = 1.5
    #: critical-path deserialization cost per item of a *bulk*
    #: (collective-gather) receive — paid by the synchronous master.
    recv_per_item_bulk: float = 0.6
    #: critical-path cost per item of a *streamed* (pre-posted) receive
    #: — the overlapped asynchronous path.
    recv_per_item_stream: float = 0.05
    #: latency/handling inflation per additional active processor
    #: (interconnect contention): ``factor = 1 + contention * (P - 1)``.
    #: Applies to transit and per-message handling, not to local bulk
    #: deserialization.
    contention: float = 0.10
    #: compute slowdown per additional processor the job occupies —
    #: memory-bandwidth/NUMA pressure of wider jobs on a shared
    #: machine.  This is the dominant reason the collaborative variant
    #: (all processors computing all the time) runs *slower* than the
    #: sequential baseline, increasingly so with more searchers.
    compute_contention: float = 0.01
    #: Poisson rate of stall events per unit of nominal compute.
    stall_rate: float = 0.002
    #: mean duration of one stall (exponential).
    stall_mean: float = 25.0
    #: lognormal sigma of per-processor relative speed.
    speed_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.eval_cost <= 0:
            raise SimulationError("eval_cost must be positive")
        for label in (
            "proc_linear",
            "proc_quadratic",
            "iter_cost",
            "init_cost_per_customer",
            "msg_latency",
            "per_item",
            "recv_cost",
            "recv_per_item_bulk",
            "recv_per_item_stream",
            "contention",
            "compute_contention",
            "stall_rate",
            "stall_mean",
            "speed_sigma",
        ):
            if getattr(self, label) < 0:
                raise SimulationError(f"{label} must be non-negative")

    # ------------------------------------------------------------------
    # Derived durations
    # ------------------------------------------------------------------
    def selection_cost(self, pool_size: int) -> float:
        """Master cost of one selection + memory update over ``pool_size``."""
        n = float(pool_size)
        return self.iter_cost + self.proc_linear * n + self.proc_quadratic * n * n

    def init_cost(self, n_customers: int) -> float:
        """Cost of the I1 construction for an instance size."""
        return self.init_cost_per_customer * float(n_customers)

    def contention_factor(self, n_processors: int) -> float:
        """Interconnect inflation for a cluster of ``n_processors``."""
        return 1.0 + self.contention * max(n_processors - 1, 0)

    def transfer_delay(self, n_items: int, n_processors: int) -> float:
        """One-way transit time of a message carrying ``n_items``."""
        return (self.msg_latency + self.per_item * n_items) * self.contention_factor(
            n_processors
        )

    def receive_cost(
        self, n_processors: int, n_items: int = 1, *, streamed: bool = False
    ) -> float:
        """Receiver-side critical-path cost of one message.

        ``streamed=True`` uses the overlapped (pre-posted) per-item
        rate; ``False`` models a bulk collective gather whose
        deserialization sits fully on the receiver's critical path.
        Interconnect contention inflates the per-message handling (and
        the streamed per-item work, which touches the interconnect);
        bulk deserialization is local memory work and is not inflated.
        """
        cf = self.contention_factor(n_processors)
        if streamed:
            return (self.recv_cost + self.recv_per_item_stream * n_items) * cf
        return self.recv_cost * cf + self.recv_per_item_bulk * n_items

    def compute_duration(
        self,
        nominal: float,
        speed: float,
        rng: np.random.Generator,
        n_processors: int = 1,
    ) -> float:
        """Actual duration of ``nominal`` units of compute on a processor.

        Applies the processor's speed factor, multiplicative jitter,
        and the Poisson stall process: ``Poisson(stall_rate * nominal)``
        stall events, each with an ``Exp(stall_mean)`` duration.  The
        expected inflation per unit of work is therefore identical for
        long and short computations — only the *variance* (and hence
        the cost of a barrier waiting on the maximum) differs.
        """
        if nominal <= 0:
            return 0.0
        duration = nominal / speed
        duration *= 1.0 + self.compute_contention * max(n_processors - 1, 0)
        duration *= float(rng.lognormal(mean=0.0, sigma=0.03))
        if self.stall_rate > 0 and self.stall_mean > 0:
            n_stalls = int(rng.poisson(self.stall_rate * nominal))
            if n_stalls > 0:
                duration += float(rng.exponential(self.stall_mean, size=n_stalls).sum())
        return duration

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """Copy with some constants replaced (ablation benchmarks)."""
        return replace(self, **kwargs)  # type: ignore[arg-type]

    #: neighborhood size the default constants were calibrated at (the
    #: paper's setting).
    REFERENCE_NEIGHBORHOOD = 200

    def for_neighborhood(self, neighborhood_size: int) -> "CostModel":
        """Rescale the model for a shrunken neighborhood size.

        The calibration holds at the paper's ``S = 200``; benchmark
        configurations shrink ``S`` to fit a laptop budget.  To keep
        the simulation *dimensionally self-similar* — identical
        speedup shapes in expectation at any scale — every cost that
        is "per iteration" or "per message" must shrink with the
        iteration length, and rate-like terms must grow inversely:

        * ``iter_cost``, ``msg_latency``, ``recv_cost``, ``stall_mean``
          scale with ``S / 200`` (they are fixed chunks of an
          iteration);
        * ``stall_rate`` and ``proc_quadratic`` scale with ``200 / S``
          (events per unit work, and the quadratic coefficient whose
          full-pool contribution per neighbor is ``quad * S``);
        * per-item costs (``eval_cost``, ``proc_linear``,
          ``per_item``, ``recv_per_item_*``) are already per neighbor
          and stay put.
        """
        if neighborhood_size < 1:
            raise SimulationError("neighborhood_size must be >= 1")
        factor = neighborhood_size / self.REFERENCE_NEIGHBORHOOD
        if factor == 1.0:
            return self
        return replace(
            self,
            iter_cost=self.iter_cost * factor,
            msg_latency=self.msg_latency * factor,
            recv_cost=self.recv_cost * factor,
            stall_mean=self.stall_mean * factor,
            stall_rate=self.stall_rate / factor,
            proc_quadratic=self.proc_quadratic / factor,
        )
