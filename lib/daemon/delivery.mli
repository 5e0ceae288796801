(** The delivery core: every supervision-policy decision of the open
    distributed architecture, made in one place for both drivers.

    A {e driver} executes deliveries: {!Orchestrator} calls handlers
    in-process on a virtual clock, [Mirror_fabric.Fabric] ships them
    to forked worker processes.  Everything else lives here: the
    daemon context (bus, media server, dictionary, store,
    subscriptions), TTL stamping and expiry, the barrier, settlement
    (retry or dead-letter), redelivery, ingestion and the run report.

    A driver's loop is: {!expire} each daemon's backlog, take
    deliveries with {!next}, execute them, and settle each with
    {!succeed} or {!fail}.  How many deliveries a turn takes and how
    time passes between turns is the driver's schedule. *)

type config = {
  ttl : float;
      (** Message deadline: a delivery still queued [ttl] clock
          seconds after it was first considered is dead-lettered as
          expired (so a downed daemon's backlog drains to the
          dead-letter queue instead of burning retry attempts). *)
  capacity : int option;  (** Per-subscriber bus queue bound. *)
  policy : Bus.overflow_policy;
  breaker : Supervisor.config;
  barriers : (string * string list) list;
      (** [(topic, awaits)]: a delivery on [topic] is held while any
          [awaits] topic has pending deliveries or dead letters.  The
          default holds ["collection.complete"] until segmentation
          (["image.new"]) and feature extraction (["segments.ready"])
          have resolved, so the clusterer never runs on a partial
          feature store. *)
}

val default_config : config
(** ttl 30s, capacity 256, [Backpressure], default breaker, the
    ["collection.complete"] barrier. *)

type daemon_stats = {
  name : string;
  handled : int;  (** Messages successfully processed. *)
  produced : int;  (** Messages published as a result. *)
  failures : int;  (** Failed handlings (each attempt counts). *)
  cpu_seconds : float;
      (** Processor time inside the handler, as measured by the
          driver (0 when the handler runs in another process). *)
}

type report = {
  rounds : int;  (** Driver turns taken by this run. *)
  quiescent : bool;
      (** True when no deliveries remain queued or in flight.  A
          false report is honest about why: [pending] counts the
          backlog (turn guard hit, breaker still open, or a barrier
          held by dead letters). *)
  pending : int;  (** Deliveries still queued or in flight when the run stopped. *)
  degraded : string list;
      (** Daemons that ended the run unhealthy: breaker not closed,
          or dead letters addressed to them.  Empty for a clean run. *)
  stats : daemon_stats list;
      (** In daemon registration order; cumulative across runs. *)
  dead_letters : Deadletter.entry list;  (** Added during this run. *)
}

(** Observers of the state machine's transitions — the fabric journals
    them; they make no decisions. *)
type hooks = {
  on_dead : Deadletter.entry -> unit;  (** After the letter is queued. *)
  on_done : string -> Bus.delivery -> unit;
      (** After a success settled (its outputs are published). *)
  on_redeliver : Deadletter.entry -> unit;
      (** Before the letter goes back on the bus. *)
}

type t

val create :
  ?daemons:Daemon.t list ->
  ?seed:int ->
  ?config:config ->
  ?hooks:hooks ->
  clock:Mirror_util.Clock.t ->
  unit ->
  t
(** Fresh context with the given daemons subscribed ([Standard.all] by
    default) and the ["ImageLibrary"] extent registered in the
    dictionary.  [seed] (default 7901) drives the breakers'
    deterministic jitter.  Overflow sheds are dead letters. *)

val daemons : t -> Daemon.t list
val ctx : t -> Daemon.ctx
val clock : t -> Mirror_util.Clock.t
val supervisor : t -> Supervisor.t

val dead_letters : t -> Deadletter.entry list
(** The full dead-letter queue, oldest first (persists across runs). *)

val dead_count : t -> int
(** Size of the dead-letter queue — a driver notes it at the start of
    a run and hands it to {!report}. *)

(** {1 The state machine} *)

val expire : t -> string -> unit
(** Stamp one daemon's fresh deliveries with their deadline and
    dead-letter the overdue ones as [Expired]. *)

val wake_at : t -> float option
(** The earliest instant at which the clock alone can unblock queued
    work: a stamped delivery deadline or the reopen time of an open
    breaker guarding pending deliveries.  [None] when no such instant
    exists.  A run loop with no reply owed sleeps until then. *)

val next : ?in_flight:(string -> bool) -> t -> name:string -> Bus.delivery option
(** The next delivery to execute for daemon [name], with its attempt
    counted; [None] when the breaker is open, the queue is empty, or
    the head delivery is held by a barrier (it stays queued).
    [in_flight topic] tells the barrier whether the driver holds an
    unsettled delivery on [topic] outside the bus. *)

val succeed :
  ?cpu:float -> ?ms:float -> t -> name:string -> Bus.delivery -> Bus.message list -> unit
(** Settle a handled delivery: tally it, close the breaker, publish
    its outputs.  [cpu] is handler processor time and [ms] handler
    wall time ([daemon.<name>.ms] metric), when the driver measured
    them. *)

val fail : ?cpu:float -> t -> max_retries:int -> name:string -> Bus.delivery -> string -> unit
(** Settle a failed delivery: tally it, feed the breaker, and requeue
    it while [attempts <= max_retries], else dead-letter it as
    [Failed] with the given reason. *)

val crashed : cpu:float -> t -> name:string -> Bus.delivery -> unit
(** The handler took its host down with it (a simulated process
    crash): tally the failure and put the delivery back untouched by
    the retry policy — the restart retries it. *)

val restore : t -> Deadletter.entry -> unit
(** Re-admit a dead letter recovered from a journal (no hook fires). *)

val redeliver : ?daemon:string -> ?probe:bool -> t -> int
(** Drain the dead-letter queue (all of it, or one daemon's) back
    onto the bus with fresh retry budgets and deadlines.  By default
    the target breakers are force-closed — the operator's "the daemon
    is healthy again" signal.  With [~probe:true] they are only moved
    to half-open, so the first replayed delivery acts as a probe and a
    still-sick daemon re-trips after one failure instead of absorbing
    the whole backlog.  Returns the number of redelivered messages. *)

(** {1 Ingestion} *)

val ingest_image :
  t -> doc:int -> url:string -> ?annotation:string -> Mirror_mm.Image.t -> unit
(** Publish footage on the media server, register the document, and
    announce ["image.new"] (and ["annotation.new"] when an annotation
    is supplied). *)

val complete_collection : t -> unit
(** Announce ["collection.complete"] — unblocks the clusterer once
    the barrier releases. *)

(** {1 Reporting} *)

val pending : t -> int
(** Deliveries queued or stalled for the daemons (the driver adds
    whatever it holds in flight). *)

val degraded : t -> string list
(** Daemons with a non-closed breaker or addressed dead letters. *)

val report : t -> since:int -> rounds:int -> pending:int -> report
(** Assemble a run report; [since] is {!dead_count} at the run's
    start. *)
