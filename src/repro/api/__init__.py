"""Public API facade: ``Study`` / ``RunOptions`` and typed results.

This package is the canonical entry layer of the simulator — every
caller (examples, benchmarks, future service endpoints) routes through
it, and new backends or scenario families land here instead of growing
another free-function entry point:

* :class:`RunOptions` — every execution knob (integrator, solver
  settings, relinearisation profile, backend, lane width, workers,
  checkpointing, progress) in one validated dataclass, with named
  profiles ``exact()`` / ``fast()`` / ``batched()``;
* :class:`Study` — the fluent driver:
  ``Study.scenario(...).options(...).sweep(...).run()`` dispatches single
  runs, multi-solver comparisons and sweeps through one execution
  planner (:mod:`repro.api.planner`);
* :class:`RunHandle` / :class:`StudyResult` / :class:`ExplorationResult`
  / :class:`ComparisonResult` — typed result wrappers with uniform
  ``summary()`` / ``format()`` / ``export_csv()``;
* :class:`ExperimentSpec` — the declarative form: a whole experiment
  (scenario + options + solver dispatch + sweep grid) as serialisable
  data with JSON/TOML round-trip, a stable ``content_hash()`` feeding
  the result cache (:mod:`repro.cache`), and
  :meth:`Study.to_spec` / :meth:`Study.from_spec` interconversion.
"""

from .options import BACKENDS, CACHE_MODES, RunOptions
from .planner import SOLVERS, ExecutionPlan
from .results import ComparisonResult, ExplorationResult, RunHandle, StudyResult
from .study import Study
from .experiment import ExperimentSpec, SweepAxis, SweepSpec

__all__ = [
    "Study",
    "RunOptions",
    "RunHandle",
    "StudyResult",
    "ExplorationResult",
    "ComparisonResult",
    "ExecutionPlan",
    "ExperimentSpec",
    "SweepAxis",
    "SweepSpec",
    "BACKENDS",
    "SOLVERS",
    "CACHE_MODES",
]
