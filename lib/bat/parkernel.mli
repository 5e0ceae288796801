(** The morsel scheduler on OCaml 5 domains.

    One kernel, two schedules: every data-parallel BAT operator is
    written once, in {!Bat}, as a kernel over a row range, and runs
    either once over all rows or range by range under a {!Bat.sched}.
    This module holds only the second schedule.  A {!type-pool} owns
    [size - 1] worker domains (the caller is the remaining
    participant); {!run_tasks} hands out task indices through an atomic
    counter — morsel-at-a-time work stealing — and joins the pool
    before returning, so parallelism never escapes one operator call.
    Per-range results come back {e in morsel order}, which is what
    keeps every operator bitwise-identical under every schedule.

    Grouped aggregation has no parallel path: per-morsel partial tables
    merged in morsel order ran at 0.07–0.51× of the sequential kernel
    on two cores.  Dense and merge joins (a few instructions per row)
    and float [Sum]/[Prod]/[Avg] folds (float addition is not
    associative) also stay in one range.  The scheduler never inspects
    effect verdicts — gating on {!Effcheck} safety is the executor's job
    ({!Mil.par}).

    Pools must only be driven from the domain that created them; worker
    tasks must not touch domain-unsafe globals ({!Mirror_util.Metrics},
    {!Mirror_util.Trace}).  Per-morsel timings are collected into
    preallocated slots and aggregated by the caller instead. *)

type pool

val create : int -> pool
(** [create n] spawns a pool of total size [max 1 n] (i.e. [n - 1]
    worker domains plus the calling domain). *)

val shutdown : pool -> unit
(** Stop and join the workers.  Idempotent. *)

val size : pool -> int
(** Total domains participating in this pool's jobs (workers + caller). *)

(** {1 Global configuration}

    The CLI's [--domains N] sets the process-wide default; tests inject
    their own pools and morsel geometry. *)

val set_domains : int -> unit
(** Set the default pool size (clamped to [1..64]).  Shuts down any
    existing default pool; [1] disables parallel execution. *)

val domains : unit -> int
(** The configured default pool size. *)

val default_pool : unit -> pool option
(** The lazily-created process-wide pool, [None] when [domains () <= 1].
    Shut down automatically at exit. *)

val set_morsel_size : int -> unit
(** Rows per morsel (clamped to [>= 1]; default 16384). *)

val morsel_size : unit -> int

val set_min_rows : int -> unit
(** Inputs smaller than this stay sequential (default 2048; tests set 0
    to force tiny BATs through the parallel path). *)

val min_rows : unit -> int

val with_morsel_size : int -> (unit -> 'a) -> 'a
(** [with_morsel_size m f] runs [f] with the morsel size dynamically
    overridden to [max 1 m], restoring the previous size afterwards
    (exception-safe).  The executor wraps a single operator dispatch in
    this when it has a {!morsel_for} hint; the override is read once on
    the calling domain when the operator fixes its morsel geometry, so
    nesting and sequential re-entry are safe. *)

val morsel_for : domains:int -> int -> int
(** [morsel_for ~domains rows] is the estimate-derived morsel size for
    an operator expected to process [rows] rows on a [domains]-wide
    pool: one morsel per domain, clamped below by a per-domain share of
    {!min_rows} and above by the configured {!morsel_size} — so small
    (but admissible) inputs spread across the pool instead of landing
    in a single default-sized morsel. *)

(** {1 Scheduling} *)

type runstat = {
  morsels : int;  (** Morsels executed for this operator call. *)
  busy : float;  (** Summed per-morsel wall seconds (all domains). *)
  wall : float;  (** Caller-observed wall seconds. *)
}

val run_tasks : pool -> int -> (int -> unit) -> runstat
(** [run_tasks p m task] runs [task 0 .. task (m-1)], possibly
    concurrently, and returns once all completed.  Tasks must write
    only to disjoint caller-owned slots.  If tasks raise, the exception
    of the lowest-numbered failing task is re-raised after the join —
    the same exception a sequential left-to-right loop would surface
    first. *)

val map_ranges : pool -> int -> (int -> int -> 'a) -> 'a array * runstat
(** [map_ranges p n f] partitions [0..n-1] into {!morsel_size} ranges
    and returns [f lo hi] per range (hi exclusive), in range order. *)

(** {1 Current-pool plumbing}

    [Foreign] operators receive the session's pool dynamically: the
    executor wraps Effcheck-safe dispatches in {!with_pool}, and the
    extension's physical operator picks it up with {!current} (e.g. the
    CONTREP belief scan).  Unsafe foreigns run with {!current} unset —
    the scheduler's refusal layer. *)

val with_pool : pool -> (unit -> 'a) -> 'a
val current : unit -> pool option

(** {1 The scheduler}

    [Bat]'s data-parallel operators run over row ranges and take an
    optional {!Bat.sched}; this turns a pool into one. *)

val scheduler : ?on_run:(runstat -> unit) -> pool -> Bat.sched
(** [scheduler p] splits [[0, n)] into {!morsel_size} ranges (or the
    {!with_morsel_size} override) and runs them on [p] through
    {!map_ranges}, calling [on_run] with each job's {!runstat}.  An
    empty input, or one below {!min_rows}, runs as one range on the
    calling domain, without touching the pool or calling [on_run]. *)

(** {1 Pool-lifetime statistics} *)

type totals = {
  t_jobs : int;  (** {!run_tasks} invocations. *)
  t_morsels : int;
  t_busy : float;
  t_wall : float;
}

val totals : pool -> totals
(** Accumulated since [create]; read from the owning domain only. *)
