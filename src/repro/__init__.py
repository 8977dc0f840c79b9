"""repro — parallel multiobjective tabu search for the CVRPTW.

A from-scratch reproduction of *"Parallel Tabu Search and the
Multiobjective Vehicle Routing Problem with Time Windows"* (Andreas
Beham, IPPS 2007): the CVRPTW problem substrate, the three-objective
TSMO tabu search, its synchronous, asynchronous and collaborative
parallelizations on a deterministic simulated cluster, and the
benchmark harness that regenerates the paper's Tables I-IV and
Figure 1.

Quickstart::

    from repro import generate_instance, run_sequential_tsmo, TSMOParams

    instance = generate_instance("R1", 100, seed=42)
    result = run_sequential_tsmo(
        instance, TSMOParams(max_evaluations=5000, neighborhood_size=100), seed=1
    )
    for entry in result.archive:
        print(entry.objectives)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro._version import __version__
from repro.core import (
    Evaluator,
    I1Params,
    ObjectiveVector,
    Solution,
    evaluate,
    i1_construct,
)
from repro.errors import (
    AdmissionError,
    BenchmarkError,
    CheckpointError,
    CrashInjected,
    InstanceError,
    JobCancelled,
    JobDeadlineExceeded,
    LedgerError,
    OperatorError,
    ParseError,
    ReproError,
    SearchError,
    SearchInterrupted,
    ServeError,
    SimulationError,
    SolutionError,
)
from repro.mo import ParetoArchive, hypervolume, mutual_coverage, set_coverage
from repro.moea import NSGA2Params, run_nsga2
from repro.obs import (
    NULL_OBS,
    EventTracer,
    MetricsRegistry,
    Obs,
    PhaseProfiler,
)
from repro.parallel import (
    AsyncParams,
    CollabParams,
    CostModel,
    HybridParams,
    SimCluster,
    run_asynchronous_tsmo,
    run_collaborative_tsmo,
    run_hybrid_tsmo,
    run_multiprocessing_tsmo,
    run_sequential_simulated,
    run_synchronous_tsmo,
)
from repro.persistence import (
    CheckpointPlan,
    CheckpointPolicy,
    InterruptFlag,
    RunManifest,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve import JobSpec, ServeParams, SolveScheduler
from repro.tabu import (
    TSMOEngine,
    TSMOParams,
    TSMOResult,
    TrajectoryRecorder,
    run_sequential_tsmo,
)
from repro.vrptw import (
    Instance,
    generate_instance,
    loads_solomon,
    read_solomon,
    write_solomon,
)

__all__ = [
    "AdmissionError",
    "AsyncParams",
    "BenchmarkError",
    "CheckpointError",
    "CheckpointPlan",
    "CheckpointPolicy",
    "CollabParams",
    "CostModel",
    "CrashInjected",
    "Evaluator",
    "EventTracer",
    "HybridParams",
    "I1Params",
    "Instance",
    "InstanceError",
    "InterruptFlag",
    "JobCancelled",
    "JobDeadlineExceeded",
    "JobSpec",
    "LedgerError",
    "MetricsRegistry",
    "NSGA2Params",
    "NULL_OBS",
    "ObjectiveVector",
    "Obs",
    "OperatorError",
    "ParetoArchive",
    "ParseError",
    "PhaseProfiler",
    "ReproError",
    "RunManifest",
    "SearchError",
    "SearchInterrupted",
    "ServeError",
    "ServeParams",
    "SimCluster",
    "SimulationError",
    "Solution",
    "SolutionError",
    "SolveScheduler",
    "TSMOEngine",
    "TSMOParams",
    "TSMOResult",
    "TrajectoryRecorder",
    "__version__",
    "evaluate",
    "generate_instance",
    "hypervolume",
    "i1_construct",
    "loads_solomon",
    "mutual_coverage",
    "read_checkpoint",
    "read_solomon",
    "run_asynchronous_tsmo",
    "run_collaborative_tsmo",
    "run_hybrid_tsmo",
    "run_multiprocessing_tsmo",
    "run_nsga2",
    "run_sequential_simulated",
    "run_sequential_tsmo",
    "run_synchronous_tsmo",
    "set_coverage",
    "write_checkpoint",
    "write_solomon",
]
