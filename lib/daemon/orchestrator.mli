(** The in-process driver of the open distributed architecture.

    Pumps the bus in rounds, calling each daemon's handler directly,
    until the daemons go quiescent.  Every policy decision — TTL,
    barrier, retry or dead-letter, breakers, redelivery, the report —
    is {!Delivery}'s; this module owns only the schedule: per round,
    each daemon handles at most the deliveries queued at the round's
    start (one while its breaker is half-open, none while open).

    Time is injectable ({!Mirror_util.Clock}); by default a virtual
    clock advances one tick per round, so breaker backoff and message
    deadlines are deterministic and tests never sleep.

    Failure taxonomy: an exception from a handler is a {e daemon}
    failure — retried, then dead-lettered with the exception text.
    {!Faults.Crash}, [Out_of_memory] and [Stack_overflow] are {e not}
    daemon failures: the in-flight delivery is requeued and the
    exception re-raised to the caller (the supervision analogue of a
    process crash — state survives in [t]; call {!run} again to
    restart). *)

type config = {
  delivery : Delivery.config;  (** TTL, queue bound, breaker, barriers. *)
  tick : float;  (** Virtual-clock advance per round. *)
}

val default_config : config
(** {!Delivery.default_config}, tick 1s. *)

type daemon_stats = Delivery.daemon_stats = {
  name : string;
  handled : int;
  produced : int;
  failures : int;
  cpu_seconds : float;
}

type report = Delivery.report = {
  rounds : int;
  quiescent : bool;
  pending : int;
  degraded : string list;
  stats : daemon_stats list;
  dead_letters : Deadletter.entry list;
}
(** See {!Delivery.report}. *)

type t

val create :
  ?daemons:Daemon.t list ->
  ?clock:Mirror_util.Clock.t ->
  ?seed:int ->
  ?config:config ->
  unit ->
  t
(** Fresh context with the given daemons subscribed ([Standard.all] by
    default) and the ["ImageLibrary"] extent registered in the
    dictionary.  [clock] defaults to a fresh virtual clock; [seed]
    (default 7901) drives the breakers' deterministic jitter. *)

val core : t -> Delivery.t
val ctx : t -> Daemon.ctx
val supervisor : t -> Supervisor.t

val dead_letters : t -> Deadletter.entry list
(** See {!Delivery.dead_letters}. *)

val redeliver : ?daemon:string -> ?probe:bool -> t -> int
(** See {!Delivery.redeliver}; follow with {!run} to process the
    replayed letters. *)

val ingest_image :
  t -> doc:int -> url:string -> ?annotation:string -> Mirror_mm.Image.t -> unit
(** See {!Delivery.ingest_image}. *)

val complete_collection : t -> unit

val formulate : t -> string -> unit
(** Post a ["query.formulate"] request for the given text on behalf of
    a client; the formulation daemon answers after the next {!run}. *)

val formulated : t -> (string * float) list option
(** Pop the client's next formulation answer (concept, belief) — the
    interactive query-formulation round trip of §5.1. *)

val run :
  ?max_retries:int -> ?max_rounds:int -> ?trace:Mirror_util.Trace.t -> t -> report
(** Pump messages until quiescence, the livelock guard, or a stall no
    amount of time can fix.  [max_retries] (default 2) extra attempts
    per {e delivery} (each enqueued copy has its own budget);
    [max_rounds] (default 1000) guards against livelock.  Daemons
    whose breaker is open are skipped (their backlog waits, then
    expires); a half-open breaker admits a single probe delivery.

    [trace] records an ["orchestrator.run"] span with one child per
    round, per-daemon spans beneath, and zero-duration ["breaker"]
    events on breaker transitions.  When the {!Mirror_util.Metrics}
    registry is enabled, per-daemon
    ["daemon.<name>.handled"/".failures"/".ms"/".depth"] metrics,
    ["breaker.<name>.opened"/".half_open"/".closed"] counters and the
    ["bus.*"] counters are recorded.

    @raise Faults.Crash (and re-raises [Out_of_memory] /
    [Stack_overflow]) after requeueing the in-flight delivery — see
    the failure taxonomy above. *)
