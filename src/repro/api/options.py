"""Consolidated execution options for the :mod:`repro.api` facade.

:class:`RunOptions` is the one typed place every execution knob lives:
every knob is validated eagerly at construction (incoherent combinations
raise :class:`~repro.core.errors.ConfigurationError` naming the offending
pair instead of being silently ignored), the sweep engine is built from
one validated instance, and the common configurations ship as named
profiles — :meth:`RunOptions.exact`, :meth:`RunOptions.fast` and
:meth:`RunOptions.batched`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.elimination import AssemblyStructure
from ..core.errors import ConfigurationError
from ..core.integrators import ExplicitIntegrator, make_integrator
from ..core.kernels import COMPILED_MODES, resolve_compiled
from ..core.serialise import decode_value, encode_value
from ..core.solver import SolverSettings

__all__ = [
    "RunOptions",
    "BACKENDS",
    "CACHE_MODES",
    "COMPILED_MODES",
    "FINGERPRINT_EXEMPT",
]

#: execution backends understood by the dispatch planner
BACKENDS = ("process", "batched", "queue")

#: result-cache modes: ``"off"`` never touches the store, ``"read"`` serves
#: hits but never writes, ``"readwrite"`` serves hits and records misses
CACHE_MODES = ("off", "read", "readwrite")

#: sweep progress callback: ``progress(done, total, best_point)``
ProgressFn = Callable[[int, int, object], None]

#: RunOptions fields deliberately excluded from the execution fingerprint,
#: each with the one-line reason it can never change a per-candidate
#: result.  The static checker (``repro check``, rule family
#: ``fingerprint``) enforces that every field is either read by
#: :meth:`RunOptions.fingerprint` or listed here — an unfingerprinted
#: result-changing knob silently serves stale cache entries, so any new
#: field must pick a side explicitly.
FINGERPRINT_EXEMPT = {
    "lane_width": "lane packing changes batching granularity only; fixed-step "
    "marches are byte-identical across widths and adaptive ones fall under "
    "the documented 10% shared-step tolerance fingerprinted via 'backend'",
    "n_workers": "worker count only changes scheduling; the engine's "
    "determinism contract makes results independent of parallelism",
    "checkpoint_path": "where a checkpoint is written never affects what is "
    "computed; the checkpoint's own config hash derives from the fingerprint",
    "progress": "a reporting callback observes the run and cannot feed back "
    "into any result",
    "reuse_assembly": "assembly reuse is a pure memoisation of structurally "
    "identical systems; the assembled operators are identical either way",
    "assembly_structure": "a pre-built structure is the same object the "
    "builder would derive from the spec; supplying it skips work, not math",
    "cache": "the cache mode decides whether results are stored or served, "
    "never what a computed result contains",
    "cache_dir": "storage location of the result cache; contents are keyed "
    "by the fingerprint itself",
    "store_traces": "trace retention only controls how much of an already "
    "computed result is kept in memory",
    "explore": "the exploration strategy picks which candidates run, not "
    "what any single candidate scores; per-candidate cache keys stay valid "
    "across strategies (seeded subsets are covered by 'seed')",
    "budget": "candidate budget sizes the explored set; like 'explore' it "
    "selects work rather than changing any candidate's result",
    "store_url": "where the shared result store lives (a path or URL); "
    "entries inside it are keyed by the fingerprint itself, exactly like "
    "cache_dir",
    "lease_timeout_s": "queue lease duration only tunes how fast a dead "
    "worker's task is reclaimed; every (re)run writes the same "
    "content-addressed result bytes",
}


@dataclass(frozen=True)
class RunOptions:
    """Every execution knob of the simulator, in one validated place.

    Attributes
    ----------
    integrator:
        Explicit integration formula for the proposed solver (default:
        second-order Adams-Bashforth, as in the paper's case study).
    settings:
        :class:`~repro.core.solver.SolverSettings` override.  ``None``
        derives per-scenario defaults (step limit resolving the highest
        excitation frequency the scenario reaches).
    relinearise_interval:
        Amortised-relinearisation solver profile: hold each assembled
        Jacobian/elimination for up to this many explicit steps.  ``None``
        (or 1) is the exact, byte-identical profile; larger values are
        2-3x faster per run with the documented 10 % relative score
        tolerance.
    backend:
        Sweep execution backend: ``"process"`` evaluates one candidate per
        task, ``"batched"`` marches controller-free same-topology
        candidates in lock-step through stacked arrays
        (:class:`~repro.core.batch.BatchedSolver>`).
    lane_width:
        Maximum lanes per batched block (``backend="batched"`` only —
        combining it with the process backend raises).
    compiled:
        March-kernel backend for the batched march
        (:mod:`repro.core.kernels`): ``"off"`` (default) is an alias for
        the always-available vectorised NumPy kernel; ``"auto"`` picks
        the best importable backend (numba, then JAX, then NumPy);
        ``"numba"``/``"jax"``/``"numpy"`` pin one and raise eagerly when
        it is not importable (``pip install repro[compiled]``).
        Fixed-step results are byte-identical across modes; adaptive runs
        fall under the batched backend's documented 10 % tolerance.
        Only valid with ``backend="batched"``.
    n_workers:
        Worker processes for sweep execution.  ``1`` evaluates inline;
        scores are byte-identical for any worker count.  ``None`` uses
        ``os.cpu_count()``.
    checkpoint_path:
        Sweep checkpoint/resume CSV (:mod:`repro.io.csvio`).
    progress:
        Sweep progress callback ``progress(done, total, best_point)``.
    reuse_assembly:
        Reuse the one-time structural assembly setup across same-topology
        candidates (results are identical either way).
    assembly_structure:
        Advanced single-run knob: clone a previously prepared
        :class:`~repro.core.elimination.AssemblyStructure` instead of
        rebuilding it (see :func:`repro.harvester.prepare_assembly`).
        Sweeps manage this internally; combining it with a sweep raises.
    cache:
        Result-cache mode (:mod:`repro.cache`): ``"off"`` (default) never
        touches the store; ``"read"`` serves single runs and per-candidate
        sweep points from the content-addressed store but never writes;
        ``"readwrite"`` additionally records misses.  Cache keys cover the
        experiment content hash plus a code-version salt, so results never
        survive a version bump.
    cache_dir:
        Root directory of the result store.  ``None`` uses the
        ``REPRO_CACHE_DIR`` environment variable, falling back to
        ``~/.cache/repro``.  Setting it with ``cache="off"`` raises.
    store_url:
        Shared result-store location as a URL (:mod:`repro.dist`):
        ``file:///path`` (or a bare path) for a directory store,
        ``memory://name`` for an in-process registry store,
        ``kv://host:port`` for a ``repro kv-serve`` server.  Required by
        ``backend="queue"`` (parent and workers must agree on one
        store); on other backends it is an alternative spelling of
        ``cache_dir`` (setting both raises, as does combining it with
        ``cache="off"``).
    lease_timeout_s:
        Queue-backend lease duration in seconds: how long a worker may
        go without heartbeating before its candidate is reclaimed and
        handed to another worker.  Only valid with ``backend="queue"``
        (``None`` keeps the queue executor's default of 30 s).
    store_traces:
        Whether cached single-run entries include the full waveform traces
        (on by default; scores/stats are always stored).  A run served
        from a traces-free entry has summary statistics but no traces.
    explore:
        Exploration strategy for sweep candidate generation
        (:mod:`repro.explore`): ``None`` (default) and ``"grid"`` run the
        dense cartesian grid (byte-identical); ``"random"`` / ``"latin"``
        sample a seeded ``budget``-point subset; ``"halving"`` eliminates
        weak candidates on short-horizon scores; ``"extend"`` re-runs a
        superset grid with previously swept points served from the cache
        (requires ``cache != "off"``).
    budget:
        Candidate budget for sampling strategies (number of grid points
        to draw), or the optional initial-pool size for ``"halving"``.
        Only valid together with ``explore``.
    seed:
        Seed for the sampled candidate subset.  Required by
        ``"random"``/``"latin"`` (and by ``"halving"`` with a sub-grid
        ``budget``); folded into the execution fingerprint so cache
        entries and checkpoints never mix candidates across seeds.
    """

    integrator: Optional[ExplicitIntegrator] = None
    settings: Optional[SolverSettings] = None
    relinearise_interval: Optional[int] = None
    backend: str = "process"
    lane_width: Optional[int] = None
    compiled: str = "off"
    n_workers: Optional[int] = 1
    checkpoint_path: Optional[str] = None
    progress: Optional[ProgressFn] = None
    reuse_assembly: bool = True
    assembly_structure: Optional[AssemblyStructure] = None
    cache: str = "off"
    cache_dir: Optional[str] = None
    store_url: Optional[str] = None
    lease_timeout_s: Optional[float] = None
    store_traces: bool = True
    explore: Optional[str] = None
    budget: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ #
    # profiles
    # ------------------------------------------------------------------ #
    @classmethod
    def exact(cls, **overrides) -> "RunOptions":
        """The paper-exact profile: relinearise every step (the default).

        Results are byte-identical for any worker count.
        """
        return cls(**overrides)

    @classmethod
    def fast(cls, relinearise_interval: int = 4, **overrides) -> "RunOptions":
        """Amortised-relinearisation profile (documented 10 % tolerance).

        Holds each assembled Jacobian/elimination over up to
        ``relinearise_interval`` explicit steps — 2-3x faster per run;
        runs that trip the stability guard transparently re-run exact.
        """
        return cls(relinearise_interval=relinearise_interval, **overrides)

    @classmethod
    def batched(cls, lane_width: Optional[int] = None, **overrides) -> "RunOptions":
        """Batched lane-parallel sweep profile (``backend="batched"``).

        Same-topology controller-free candidates march in lock-step
        through stacked ``(B, n, n)`` arrays; composes with ``n_workers``
        (each worker marches one lane block) and with the
        ``compiled=`` lane-core knob (``"auto"`` picks the fastest
        importable march kernel).
        """
        return cls(backend="batched", lane_width=lane_width, **overrides)

    @classmethod
    def queue(cls, store_url: str, **overrides) -> "RunOptions":
        """Distributed work-queue sweep profile (``backend="queue"``).

        The parent enqueues candidate tasks keyed by their cache keys;
        external ``repro worker`` processes lease, evaluate and write
        results through the shared store at ``store_url``.  Scores are
        identical to ``backend="process"`` (workers run the same scalar
        candidate path), so the profile forces ``cache="readwrite"`` —
        the store *is* the result channel.
        """
        overrides.setdefault("cache", "readwrite")
        return cls(backend="queue", store_url=store_url, **overrides)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Reject out-of-range values and incoherent option pairs."""
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.lane_width is not None:
            if self.lane_width < 1:
                raise ConfigurationError("lane_width must be at least 1")
            if self.backend != "batched":
                raise ConfigurationError(
                    f"incoherent options: lane_width={self.lane_width} with "
                    f"backend={self.backend!r} — lane widths only apply to "
                    "the batched backend; drop lane_width or use "
                    "RunOptions.batched()"
                )
        if self.compiled not in COMPILED_MODES:
            raise ConfigurationError(
                f"unknown compiled mode {self.compiled!r}; choose from "
                f"{COMPILED_MODES}"
            )
        if self.compiled != "off":
            if self.backend != "batched":
                raise ConfigurationError(
                    f"incoherent options: compiled={self.compiled!r} with "
                    f"backend={self.backend!r} — the compiled lane core "
                    "accelerates the batched lock-step march; drop compiled "
                    "or use RunOptions.batched()"
                )
            # eager backend resolution: an explicitly requested backend
            # that is not importable fails here, at construction, not in
            # a worker process mid-sweep
            resolve_compiled(self.compiled)
        if self.n_workers is not None and self.n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        if self.relinearise_interval is not None and self.relinearise_interval < 1:
            raise ConfigurationError("relinearise_interval must be at least 1")
        if self.progress is not None and not callable(self.progress):
            raise ConfigurationError("progress must be callable")
        if self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"unknown cache mode {self.cache!r}; choose from {CACHE_MODES}"
            )
        if self.cache_dir is not None and self.cache == "off":
            raise ConfigurationError(
                f"incoherent options: cache_dir={self.cache_dir!r} with "
                "cache='off' — the store is never consulted; drop cache_dir "
                "or select cache='read'/'readwrite'"
            )
        if self.store_url is not None:
            if self.cache_dir is not None:
                raise ConfigurationError(
                    f"incoherent options: store_url={self.store_url!r} with "
                    f"cache_dir={self.cache_dir!r} — both name the result "
                    "store; pick one (a file:// store_url is the same as a "
                    "cache_dir)"
                )
            if self.cache == "off":
                raise ConfigurationError(
                    f"incoherent options: store_url={self.store_url!r} with "
                    "cache='off' — the store is never consulted; drop "
                    "store_url or select cache='read'/'readwrite'"
                )
        if self.backend == "queue":
            if self.store_url is None:
                raise ConfigurationError(
                    "incoherent options: backend='queue' without store_url — "
                    "the parent and its `repro worker` fleet communicate "
                    "only through a shared store; pass "
                    "RunOptions.queue(store_url=...) (a path, file://, "
                    "memory:// or kv://host:port)"
                )
            if self.cache != "readwrite":
                raise ConfigurationError(
                    f"incoherent options: backend='queue' with "
                    f"cache={self.cache!r} — queue results travel through "
                    "store writes, so the sweep needs cache='readwrite' "
                    "(RunOptions.queue() sets it)"
                )
            if self.n_workers not in (None, 1):
                raise ConfigurationError(
                    f"incoherent options: n_workers={self.n_workers} with "
                    "backend='queue' — queue workers are external `repro "
                    "worker` processes, not parent subprocesses; start more "
                    "workers instead of raising n_workers"
                )
        if self.lease_timeout_s is not None:
            if self.backend != "queue":
                raise ConfigurationError(
                    f"incoherent options: lease_timeout_s="
                    f"{self.lease_timeout_s} with backend={self.backend!r} — "
                    "leases pace the distributed work queue; drop it or use "
                    "RunOptions.queue()"
                )
            if self.lease_timeout_s <= 0:
                raise ConfigurationError(
                    "lease_timeout_s must be positive, got "
                    f"{self.lease_timeout_s}"
                )
        self._validate_explore()

    def _validate_explore(self) -> None:
        """Pairwise coherence of the exploration knobs (eager, like the rest)."""
        if self.budget is not None and self.budget < 1:
            raise ConfigurationError(f"budget must be at least 1, got {self.budget}")
        if self.explore is None:
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is not None:
                    raise ConfigurationError(
                        f"incoherent options: {knob}={value!r} without "
                        "explore= — the knob configures an exploration "
                        "strategy; pick one (e.g. explore='random') or "
                        "drop it"
                    )
            return
        from ..explore import EXPLORE_STRATEGIES

        if self.explore not in EXPLORE_STRATEGIES:
            raise ConfigurationError(
                f"unknown exploration strategy {self.explore!r}; choose "
                f"from {sorted(EXPLORE_STRATEGIES)}"
            )
        if self.explore in ("grid", "extend"):
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is not None:
                    raise ConfigurationError(
                        f"incoherent options: {knob}={value!r} with "
                        f"explore={self.explore!r} — the dense enumeration "
                        f"takes no {knob}; drop it or pick a "
                        "sampling/halving strategy"
                    )
        if self.explore in ("random", "latin"):
            for knob, value in (("budget", self.budget), ("seed", self.seed)):
                if value is None:
                    raise ConfigurationError(
                        f"explore={self.explore!r} needs a {knob} — sampled "
                        "candidate subsets must be sized and reproducible; "
                        f"pass RunOptions({knob}=...)"
                    )
        if self.explore == "halving" and self.seed is not None and self.budget is None:
            raise ConfigurationError(
                "incoherent options: seed without budget for "
                "explore='halving' — halving over the full grid is "
                "deterministic; drop seed or pass budget < grid size"
            )
        if self.explore == "extend" and self.cache == "off":
            raise ConfigurationError(
                "incoherent options: explore='extend' with cache='off' — "
                "grid extension serves previously swept points from the "
                "result cache; select cache='read' or 'readwrite'"
            )

    def validate_for_sweep(self) -> None:
        """Additional coherence checks for sweep dispatch."""
        if self.assembly_structure is not None:
            raise ConfigurationError(
                "incoherent options: assembly_structure with a sweep — the "
                "sweep engine manages assembly reuse itself (per-topology, "
                "per-worker); drop assembly_structure"
            )

    def validate_for_single_run(self) -> None:
        """Additional coherence checks for single-run dispatch.

        Sweep-only knobs on a single run are rejected loudly (naming the
        offending pair) rather than silently ignored.
        """
        for knob, value in (
            ("checkpoint_path", self.checkpoint_path),
            ("progress", self.progress),
            ("lane_width", self.lane_width),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with a single "
                    "run — this knob only applies to sweeps; drop it or "
                    "add .sweep(...) to the study"
                )
        if self.backend != "process":
            raise ConfigurationError(
                f"incoherent options: backend={self.backend!r} with a "
                "single run — backends select how sweep candidates are "
                "executed; a single scenario always runs the scalar solver"
            )
        if self.n_workers not in (None, 1):
            raise ConfigurationError(
                f"incoherent options: n_workers={self.n_workers} with a "
                "single run — worker processes only apply to sweeps"
            )
        self._reject_explore_knobs("a single run")

    def validate_for_compare(self) -> None:
        """Additional coherence checks for comparison dispatch.

        A comparison is a set of single-run legs, so the sweep-only knobs
        are rejected exactly as for one run — except ``n_workers``, which
        fans the legs out across worker processes.
        """
        for knob, value in (
            ("checkpoint_path", self.checkpoint_path),
            ("progress", self.progress),
            ("lane_width", self.lane_width),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with a "
                    "comparison — this knob only applies to sweeps; drop "
                    "it or add .sweep(...) to the study"
                )
        if self.backend != "process":
            raise ConfigurationError(
                f"incoherent options: backend={self.backend!r} with a "
                "comparison — backends select how sweep candidates are "
                "executed; comparison legs always run the scalar solver"
            )
        self._reject_explore_knobs("a comparison")

    def _reject_explore_knobs(self, context: str) -> None:
        for knob, value in (
            ("explore", self.explore),
            ("budget", self.budget),
            ("seed", self.seed),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"incoherent options: {knob}={value!r} with {context} — "
                    "exploration strategies generate sweep candidates; drop "
                    "it or add .sweep(...) to the study"
                )

    # ------------------------------------------------------------------ #
    # canonical serialisation (the declarative-experiment form)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (lossless JSON/TOML round-trip).

        Fields equal to their defaults are omitted, so the serialised form
        stays as small as what the user actually configured.  The two
        process-local knobs that cannot be data — ``progress`` callbacks
        and prepared ``assembly_structure`` objects — raise when set.
        """
        for knob, value in (
            ("progress", self.progress),
            ("assembly_structure", self.assembly_structure),
        ):
            if value is not None:
                raise ConfigurationError(
                    f"cannot serialise RunOptions: {knob} is a process-local "
                    "object with no declarative form; drop it from options "
                    "destined for an ExperimentSpec"
                )
        data: Dict[str, object] = {}
        for field in dataclasses.fields(self):
            if field.name in ("progress", "assembly_structure"):
                continue
            value = getattr(self, field.name)
            if value == field.default:
                continue
            if field.name == "integrator":
                value = {
                    "name": str(value.name),
                    "order": getattr(value, "order", None),
                }
                if value["order"] is None:
                    del value["order"]
            elif field.name == "settings":
                value = encode_value(value)
            data[field.name] = value
        return data

    @classmethod
    def from_dict(cls, data) -> "RunOptions":
        """Rebuild options from :meth:`to_dict` output (unknown keys rejected)."""
        if "refresh" in data:
            # named rather than lumped with unknown keys: an experiment
            # file may still carry this once-valid field
            raise ConfigurationError(
                "options dict sets the removed field 'refresh': the batched "
                "march always uses the prepared batched refresh "
                "(bit-identical to per-lane refresh); drop the field"
            )
        valid = tuple(
            field.name
            for field in dataclasses.fields(cls)
            if field.name not in ("progress", "assembly_structure")
        )
        unknown = set(data) - set(valid)
        if unknown:
            raise ConfigurationError(
                f"options dict has unknown fields {sorted(unknown)}; "
                f"valid fields are {list(valid)}"
            )
        kwargs: Dict[str, object] = dict(data)
        integrator = kwargs.get("integrator")
        if integrator is not None:
            if not isinstance(integrator, dict) or "name" not in integrator:
                raise ConfigurationError(
                    f"options dict integrator must be a "
                    f"{{'name': ..., 'order': ...}} table, got {integrator!r}"
                )
            extra = set(integrator) - {"name", "order"}
            if extra:
                raise ConfigurationError(
                    f"options dict integrator has unknown fields "
                    f"{sorted(extra)}; valid fields are ['name', 'order']"
                )
            order = integrator.get("order")
            factory_kwargs = {}
            if order is not None and str(integrator["name"]).strip().lower() in (
                "adams_bashforth",
                "ab",
            ):
                factory_kwargs["order"] = int(order)
            try:
                built = make_integrator(str(integrator["name"]), **factory_kwargs)
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(str(exc)) from None
            if order is not None and getattr(built, "order", None) != int(order):
                # make_integrator ignores kwargs for fixed-order formulas;
                # dropping a meaningful-looking value silently would
                # misreport what runs
                raise ConfigurationError(
                    f"integrator {integrator['name']!r} has fixed order "
                    f"{getattr(built, 'order', None)}; it cannot take "
                    f"order={order}"
                )
            kwargs["integrator"] = built
        settings = kwargs.get("settings")
        if settings is not None:
            settings = decode_value(settings)
            if not isinstance(settings, SolverSettings):
                raise ConfigurationError(
                    "options dict settings must decode to SolverSettings, "
                    f"got {type(settings).__name__}"
                )
            kwargs["settings"] = settings
        return cls(**kwargs)

    def fingerprint(self) -> Dict[str, object]:
        """Canonical fingerprint of everything that can change a *result*.

        This is the **one** options fingerprint in the codebase: the sweep
        engine's checkpoint config-hash and the result cache's keys are
        both derived from it, so a checkpoint resume and a cache hit agree
        on what "the same execution" means.  Deliberately excluded: knobs
        that change *how fast* or *where* candidates run but not their
        scores (:data:`FINGERPRINT_EXEMPT` lists each with its reason) —
        the engine's determinism contract (and the documented 10 %
        adaptive shared-step tolerance for the batched backend, which *is*
        included via ``backend``) covers those.  ``seed`` *is* included: a
        seeded exploration samples a different candidate set per seed, so
        its results must never collide with another seed's in the cache.

        ``compiled`` is recorded only where it can change results: at
        fixed step every march-kernel backend is byte-identical to the
        scalar solver (so all modes share one fingerprint, ``"off"``),
        while adaptive batched runs fall under the same documented 10 %
        tolerance as the batched backend itself and fingerprint the
        requested mode (``"off"`` — an alias for ``"numpy"`` — keeps its
        historical fingerprint so existing caches and checkpoints still
        hit).
        """
        integrator = self.integrator
        if integrator is None:
            integrator_form = None
        else:
            integrator_form = {
                "name": str(integrator.name),
                "order": getattr(integrator, "order", None),
            }
        settings = self.settings
        adaptive = settings is None or settings.fixed_step is None
        compiled_form = (
            str(self.compiled)
            if self.compiled != "off" and self.backend == "batched" and adaptive
            else "off"
        )
        # the queue backend distributes the *same* scalar candidate path the
        # process backend runs (workers call the identical _evaluate_task),
        # so both map to one fingerprint: queue sweeps and process sweeps
        # share cache entries, which is what makes their scores provably equal
        backend_form = "process" if self.backend == "queue" else str(self.backend)
        interval = self.relinearise_interval
        return {
            "integrator": integrator_form,
            "settings": None if settings is None else encode_value(settings),
            "relinearise_interval": None if interval is None else int(interval),
            "backend": backend_form,
            "seed": None if self.seed is None else int(self.seed),
            "compiled": compiled_form,
        }

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def replace(self, **changes) -> "RunOptions":
        """Copy with some fields changed (validated again)."""
        return dataclasses.replace(self, **changes)
