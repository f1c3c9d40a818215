"""Seeded rule configuration: which modules/classes the invariants bind.

Everything here is *repo policy*, deliberately separated from rule
mechanics so adding a module to the deterministic set, or a class to the
guarded-by registry, is a one-line change (see
``docs/static_analysis.md`` § "Adding a rule or extending a registry").

Source files can extend these registries without touching this module:

- a module-level ``# epi4lint: deterministic`` comment opts a file into
  the determinism rules;
- a class-level ``_GUARDED_BY = {"_field": "_lock"}`` literal declares
  guarded fields for any class (the seeds below use exactly the same
  shape, keyed by dotted module + class name).
"""

from __future__ import annotations

from dataclasses import dataclass

# --------------------------------------------------------------------- #
# Determinism (EPI401-EPI403)

#: Modules (dotted prefixes) on the digest/merge/journal/plan/bounds
#: paths: everything that feeds the bit-identical top-k contract.
#: Wall-clock, RNG, UUIDs and unordered iteration are banned here
#: outright.
DETERMINISTIC_MODULES: tuple[str, ...] = (
    "repro.core.reduction",
    "repro.core.solution",
    "repro.core.journal",
    "repro.dist.merge",
    "repro.dist.plan",
    "repro.scoring.bounds",
    "repro.obs.manifest",
)

#: Modules allowed to read the wall clock directly.  Everything else
#: must go through :class:`repro.utils.timing.Timer` (or stick to the
#: monotonic interval clocks, which never leak into artifacts).
WALLCLOCK_SANCTIONED_MODULES: tuple[str, ...] = (
    "repro.utils.timing",
    "repro.obs.trace",
)

#: Fully qualified callables banned in deterministic scope.
BANNED_DETERMINISTIC_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid3",
        "uuid.uuid4",
        "uuid.uuid5",
        "os.urandom",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.seed",
        "random.getrandbits",
        "random.SystemRandom",
    }
)

#: Constructors that are deterministic *only when explicitly seeded*
#: (call with zero positional/keyword args = banned in deterministic
#: scope).
SEED_REQUIRED_CALLS: frozenset[str] = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
    }
)

#: Wall-clock reads banned everywhere outside the sanctioned modules
#: (EPI402) — monotonic interval clocks are fine outside deterministic
#: scope, epoch time is not.
WALLCLOCK_CALLS: frozenset[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

# --------------------------------------------------------------------- #
# Concurrency (EPI411-EPI413)


@dataclass(frozen=True)
class GuardSpec:
    """Guarded-by declaration for one thread-shared class."""

    module: str
    cls: str
    lock: str
    fields: tuple[str, ...]
    #: Methods (beyond the ``*_locked`` naming convention and
    #: ``# epi4lint: lock-held`` tags) called only with the lock held.
    lock_held_methods: tuple[str, ...] = ()
    #: Reentrant lock (RLock): self-acquisition while held is legal.
    reentrant: bool = False

    @property
    def qualified(self) -> str:
        return f"{self.module}.{self.cls}"

    @property
    def lock_id(self) -> str:
        return f"{self.cls}.{self.lock}"


#: The seed guarded-by registry: every class whose instances are shared
#: between device worker threads.  Fields listed here may only be
#: touched under ``with self.<lock>:`` or from a lock-held method.
GUARDED_BY: tuple[GuardSpec, ...] = (
    GuardSpec(
        module="repro.core.reduction",
        cls="TopKReducer",
        lock="_lock",
        fields=("_solutions",),
        lock_held_methods=("_truncate",),
        reentrant=True,
    ),
    GuardSpec(
        module="repro.obs.metrics",
        cls="MetricsRegistry",
        lock="_lock",
        fields=("_counters", "_gauges", "_hists", "_hist_buckets"),
    ),
    GuardSpec(
        module="repro.core.operand_cache",
        cls="OperandCache",
        lock="_lock",
        fields=(
            "_entries",
            "_pending",
            "_hits",
            "_misses",
            "_evictions",
            "_current_bytes",
            "_peak_bytes",
        ),
    ),
    GuardSpec(
        module="repro.core.journal",
        cls="RoundJournal",
        lock="_lock",
        fields=("_fh",),
    ),
)

#: Methods that may touch guarded fields without the lock because the
#: instance cannot be shared yet (construction) or is being torn down.
CONSTRUCTION_METHODS: frozenset[str] = frozenset(
    {"__init__", "__post_init__", "__new__", "__del__"}
)

# --------------------------------------------------------------------- #
# Durability (EPI421-EPI423)

#: Callables that atomically publish a file (the rename half of the
#: write → fsync → rename → fsync-dir discipline).
RENAME_CALLS: frozenset[str] = frozenset(
    {"os.rename", "os.replace", "shutil.move"}
)

#: Callables that satisfy the "fsync the temp file first" obligation.
FILE_FSYNC_CALLS: frozenset[str] = frozenset({"os.fsync"})

#: Callables that satisfy the "fsync the directory after" obligation.
DIR_FSYNC_CALLS: frozenset[str] = frozenset(
    {
        "os.fsync",
        "repro.utils.fs.fsync_directory",
        "fsync_directory",
    }
)

#: Modules that write results/resume artifacts: every ``open(..., "w")``
#: here must sit inside an atomic-writer function (one that fsyncs), and
#: every rename must follow the full durability ordering.
DURABILITY_MODULES: tuple[str, ...] = (
    "repro.core.journal",
    "repro.dist.worker",
    "repro.dist.coordinator",
    "repro.obs.exporters",
    "repro.utils.fs",
)

# --------------------------------------------------------------------- #
# Observability / surface coherence (EPI431-EPI434)

#: Prefix every run metric carries (the catalogue key in
#: ``docs/observability.md``).
METRIC_PREFIX = "epi4" + "_"   # split so the literal itself is not collected

#: Markdown catalogue the emitted metric set is reconciled against.
OBSERVABILITY_DOC = "docs/observability.md"

#: Module defining :class:`SearchConfig` (EPI433/EPI434 source of truth).
SEARCH_CONFIG_MODULE = "repro.core.search"
SEARCH_CONFIG_CLASS = "SearchConfig"

#: Module whose ``--flag`` string literals form the CLI surface.
CLI_MODULE = "repro.cli"

README_DOC = "README.md"

#: SearchConfig fields whose CLI flag is not the mechanical
#: ``--<field-with-dashes>`` spelling.
FLAG_ALIASES: dict[str, str] = {
    "engine_kind": "--engine",
}

#: Modules excluded from the metric-literal sweep (the analyzer itself
#: names metric ids in rule config and docs).
COHERENCE_EXCLUDED_MODULES: tuple[str, ...] = ("repro.analysis",)
