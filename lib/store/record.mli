(** Logical write-ahead-log records and their binary codec.

    The log is *logical*: each record describes one completed update
    at the storage-manager level (extent DDL, whole-extent replacement
    — the copying DML discipline of {!Mirror_core.Storage} makes that
    the natural granularity), one relevance-feedback judgement, or one
    opaque daemon-store write.  Redo is idempotent by construction:
    [Replace] carries the complete post-state of the extent, so
    applying a record twice (or applying it to a state that already
    includes it) converges to the same database.

    The codec round-trips exactly: floats travel as their IEEE-754
    bits, strings length-prefixed, so a replayed database is
    bit-for-bit the one that was logged. *)

type fab_cause = Mirror_daemon.Deadletter.cause =
  | Failed of string
  | Expired of string
  | Overflow
(** Why a delivery was dead-lettered — the dead-letter queue's own
    cause type, journaled as is.  [Failed] carries the raising
    exception's text (arbitrary bytes, newlines included); [Expired]
    the breaker state at expiry. *)

type fab_route = {
  daemon : string;  (** Destination subscriber. *)
  seq : int;  (** Bus sequence id — unique per enqueued copy. *)
  topic : string;
  subject : int;
  payload : (string * string) list;
  attempts : int;  (** Attempts consumed when journaled (0 if fresh). *)
}
(** One in-flight delivery, self-contained: recovery re-materializes
    the bus entry from this record alone. *)

type t =
  | Define of string * Mirror_core.Types.t  (** [define <name> as <ty>] *)
  | Replace of string * Mirror_core.Value.t list
      (** Full new contents of an extent (load / insert / delete). *)
  | Feedback of { query : string; judgements : (string * bool) list }
      (** A {!Mirror_core.Mirror.give_feedback} call. *)
  | Store_op of { tag : string; payload : string }
      (** A daemon metadata-store write ({!Mirror_daemon.Store}
          journal record), kept opaque here. *)
  | Fab_route of fab_route
      (** A delivery was routed to a daemon (now pending). *)
  | Fab_done of { daemon : string; seq : int }
      (** The delivery was handled (or dropped); no longer pending. *)
  | Fab_dead of { daemon : string; seq : int; cause : fab_cause; at : float }
      (** The pending delivery moved to the dead-letter queue. *)
  | Fab_redeliver of { daemon : string; seq : int }
      (** The dead letter moved back to pending with a fresh retry
          budget — one atomic record, so a crash between "take" and
          "requeue" can neither lose nor duplicate the letter. *)
  | Fab_atomic of t list
      (** A group of records that commits as one WAL frame — the
          fabric journals a delivery's settlement (store writes,
          downstream routes, the [Fab_done]) this way, so a crash can
          lose the whole settlement or none of it, never leave the
          delivery pending with its effects already applied. *)

val encode : t -> string
(** Serialise to the WAL payload form. *)

val decode : string -> (t, string) result
(** Parse a payload produced by {!encode}.  Total: malformed input
    yields [Error], never an exception. *)

val describe : t -> string
(** One-line human rendering for [wal status] and diagnostics. *)
