(** The multi-process daemon fabric: OS-process isolation for the
    open distributed architecture.

    The fabric is the second driver over {!Mirror_daemon.Delivery}
    (the first, {!Mirror_daemon.Orchestrator}, runs handlers
    in-process): the core decides expiry, barriers, retries and dead
    letters; the fabric forks one worker process per slot, assigns
    each daemon to a slot, and executes deliveries over the
    {!Mirror_daemon.Transport} line protocol, one in flight per
    process.  The recovery unit is the {e process}: a worker that dies —
    [SIGKILL], a fatal handler exception, an OOM — is detected by EOF
    on its reply pipe, its in-flight delivery is requeued (or
    dead-lettered once its retry budget is gone), its hosted daemons'
    breakers trip immediately, and a fresh process is forked when the
    backoff elapses (the breaker's [Open] → [Half_open] transition is
    the restart signal).  Time is the monotonic wall clock
    ({!Mirror_util.Clock.mono}) — real processes die in real time.

    State discipline: the parent's store is authoritative.  Workers
    fork from it (so a fresh process is born caught-up), and handler
    writes stream back as captured {!Mirror_daemon.Store.op}s which
    the parent applies and relays to the other workers before their
    next dispatch.  A delivery's effects (ops, downstream
    publications) are staged in the parent and land {e atomically}
    when its [Done] terminator arrives — a worker killed mid-delivery
    leaves no trace, so the retry cannot double-apply.

    With {!open_durable}, the delivery state machine and every store
    write are journaled through {!Dlog}; after an orchestrator crash
    (the parent itself dying), re-opening the same directory replays
    the journal and reconstructs the pending set, the dead-letter
    queue, and the metadata store exactly. *)

type config = {
  procs : int;  (** Worker process count (daemons are striped over slots). *)
  ttl : float;  (** Seconds before a queued delivery expires. *)
  capacity : int option;
  policy : Mirror_daemon.Bus.overflow_policy;
  breaker : Mirror_daemon.Supervisor.config;
  barriers : (string * string list) list;
  max_retries : int;  (** Extra attempts per delivery (worker deaths included). *)
}

val default_config : config
(** 2 processes, ttl 30s, capacity 256, [Backpressure], default
    breaker, the ["collection.complete"] barrier, 2 retries. *)

type stats = Mirror_daemon.Delivery.daemon_stats = {
  name : string;
  handled : int;
  produced : int;
  failures : int;
  cpu_seconds : float;  (** Always 0: handlers run in the workers. *)
}

type report = Mirror_daemon.Delivery.report = {
  rounds : int;  (** Event-loop turns. *)
  quiescent : bool;
  pending : int;
  degraded : string list;
  stats : stats list;
  dead_letters : Mirror_daemon.Deadletter.entry list;
}
(** See {!Mirror_daemon.Delivery.report}; worker deaths and restarts
    are counted by {!deaths} and {!restarts}. *)

type t

val create :
  ?daemons:Mirror_daemon.Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:config ->
  unit ->
  t
(** Ephemeral fabric (no journal).  Defaults: the standard daemon set,
    a monotonic wall clock, seed 7901. *)

val open_durable :
  ?daemons:Mirror_daemon.Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:config ->
  ?checkpoint_every:int ->
  dir:string ->
  unit ->
  (t * Dlog.recovery, string) result
(** Durable fabric journaling through [dir].  If the directory holds a
    previous instance's journal, its store history is replayed into
    the fresh store, journaled in-flight deliveries are re-injected
    onto the bus (original sequence ids and attempt counts), and dead
    letters are reconstituted in the queue — the exact state the
    crashed instance had journaled. *)

val core : t -> Mirror_daemon.Delivery.t
val ctx : t -> Mirror_daemon.Daemon.ctx

val dead_letters : t -> Mirror_daemon.Deadletter.entry list
(** Oldest first; persists across runs. *)

val dlog : t -> Dlog.t option

val ingest_image :
  t -> doc:int -> url:string -> ?annotation:string -> Mirror_mm.Image.t -> unit

val complete_collection : t -> unit

(** {1 Running} *)

val run : ?max_turns:int -> t -> report
(** Fork fresh workers (capturing the current parent state, ingested
    media included), pump deliveries until quiescence or [max_turns],
    and leave the workers running for inspection.  Raises whatever
    fatal exception an armed ["fabric.*"] crash point fires — after
    SIGKILLing the workers and abandoning the journal as-is, which is
    precisely the crash {!open_durable} recovers from. *)

val redeliver : ?daemon:string -> ?probe:bool -> t -> int
(** {!Mirror_daemon.Delivery.redeliver}, journaled: each letter is one
    atomic [Fab_redeliver] journal record, so an orchestrator crash
    mid-redelivery loses nothing: replayed letters are pending again,
    the rest are still dead. *)

val shutdown : t -> unit
(** Quit the workers gracefully and checkpoint + close the journal. *)

(** {1 Fault injection and introspection} *)

val kill_worker : t -> int -> bool
(** [SIGKILL] the process in slot [id]; false if the slot is empty.
    The death is observed (EOF) on the next turn. *)

val set_tick_hook : t -> (int -> unit) option -> unit
(** Called at the start of every turn with the turn number — the
    chaos suite's kill-schedule injection point. *)

val workers : t -> (int * int option * string list) list
(** Per slot: (id, live pid, hosted daemon names). *)

val pending_deliveries : t -> int
(** Queued, stalled, or in-flight deliveries across all daemons. *)

val state_keys : t -> (string * int) list * (string * int * string) list
(** Live (daemon, seq) pending keys — queued and in-flight — and
    (daemon, seq, cause tag) dead letters, both sorted; directly
    comparable with {!Dlog.state_keys} for exact-recovery checks. *)

val deaths : t -> int
(** Worker processes that died, cumulative across runs. *)

val restarts : t -> int
(** Fresh processes forked mid-run to replace them, cumulative. *)

val kills : t -> int
