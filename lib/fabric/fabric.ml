module Clock = Mirror_util.Clock
module Bus = Mirror_daemon.Bus
module Daemon = Mirror_daemon.Daemon
module Store = Mirror_daemon.Store
module Supervisor = Mirror_daemon.Supervisor
module Deadletter = Mirror_daemon.Deadletter
module Delivery = Mirror_daemon.Delivery
module Transport = Mirror_daemon.Transport
module Worker = Mirror_daemon.Worker
module Faults = Mirror_daemon.Faults
module Record = Mirror_store.Record

type config = {
  procs : int;
  ttl : float;
  capacity : int option;
  policy : Bus.overflow_policy;
  breaker : Supervisor.config;
  barriers : (string * string list) list;
  max_retries : int;
}

let default_config =
  let d = Delivery.default_config in
  {
    procs = 2;
    ttl = d.Delivery.ttl;
    capacity = d.Delivery.capacity;
    policy = d.Delivery.policy;
    breaker = d.Delivery.breaker;
    barriers = d.Delivery.barriers;
    max_retries = 2;
  }

type stats = Delivery.daemon_stats = {
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
  stats : stats list;
  dead_letters : Deadletter.entry list;
}

(* One worker slot.  The slot (its id and hosted daemons) is fixed;
   the process occupying it changes across restarts. *)
type worker = {
  id : int;
  hosted : Daemon.t list;
  buf : Buffer.t;  (* unframed reply bytes from the current process *)
  mutable pid : int;
  mutable rfd : Unix.file_descr;  (* replies, raw (see the select note) *)
  mutable oc : out_channel;  (* requests *)
  mutable alive : bool;
  mutable inflight : (string * Bus.delivery) option;
  mutable staged : Transport.reply list;  (* Op/Pub since Deliver, reversed *)
  mutable synced : int;  (* op-log cursor already sent to this process *)
}

type t = {
  config : config;
  core : Delivery.t;
  dlog : Dlog.t option;
  workers : worker array;
  (* Store ops seen this run, as (origin slot, marshalled blob): -1 =
     the parent itself.  Each worker has a cursor into this log and is
     caught up (skipping its own ops) before every dispatch. *)
  mutable ops : (int * string) array;
  mutable nops : int;
  mutable tick_hook : (int -> unit) option;
  mutable deaths : int;
  mutable restarts : int;
  mutable kills : int;
}

let fab_route_of name (d : Bus.delivery) =
  {
    Record.daemon = name;
    seq = d.Bus.seq;
    topic = d.Bus.message.Bus.topic;
    subject = d.Bus.message.Bus.subject;
    payload = d.Bus.message.Bus.payload;
    attempts = d.Bus.attempts;
  }

let push_op t origin blob =
  if t.nops = Array.length t.ops then begin
    let bigger = Array.make (max 64 (2 * t.nops)) (0, "") in
    Array.blit t.ops 0 bigger 0 t.nops;
    t.ops <- bigger
  end;
  t.ops.(t.nops) <- (origin, blob);
  t.nops <- t.nops + 1

(* The journal observes the core's transitions; it makes no decisions. *)
let journal_hooks dl =
  {
    Delivery.on_dead =
      (fun (e : Deadletter.entry) ->
        Dlog.dead dl ~daemon:e.Deadletter.daemon ~seq:e.Deadletter.delivery.Bus.seq
          ~cause:e.Deadletter.cause ~at:e.Deadletter.at);
    on_done = (fun name dv -> Dlog.done_ dl ~daemon:name ~seq:dv.Bus.seq);
    on_redeliver =
      (* One atomic journal record per letter: a crash mid-redelivery
         loses nothing — replayed letters are pending again, the rest
         are still dead. *)
      (fun (e : Deadletter.entry) ->
        Dlog.redeliver dl ~daemon:e.Deadletter.daemon ~seq:e.Deadletter.delivery.Bus.seq);
  }

let make ?daemons ?clock ?seed ?(config = default_config) ~dlog () =
  if config.procs < 1 then invalid_arg "Fabric: procs must be positive";
  let clock = match clock with Some c -> c | None -> Clock.mono () in
  let core =
    Delivery.create ?daemons ?seed ?hooks:(Option.map journal_hooks dlog) ~clock
      ~config:
        {
          Delivery.ttl = config.ttl;
          capacity = config.capacity;
          policy = config.policy;
          breaker = config.breaker;
          barriers = config.barriers;
        }
      ()
  in
  let daemons = Delivery.daemons core and context = Delivery.ctx core in
  let workers =
    Array.init config.procs (fun id ->
        {
          id;
          hosted = List.filteri (fun i _ -> i mod config.procs = id) daemons;
          buf = Buffer.create 4096;
          pid = -1;
          rfd = Unix.stdin;
          oc = stdout;
          alive = false;
          inflight = None;
          staged = [];
          synced = 0;
        })
  in
  let t =
    {
      config;
      core;
      dlog;
      workers;
      ops = [||];
      nops = 0;
      tick_hook = None;
      deaths = 0;
      restarts = 0;
      kills = 0;
    }
  in
  (* Every parent-side store write enters the op log so workers can be
     caught up; [Store.apply] of a worker's op suppresses this hook
     (no echo), those ops are pushed explicitly with their origin. *)
  Store.set_sync context.Daemon.store
    (Some (fun op -> push_op t (-1) (Worker.marshal_op op)));
  (match dlog with
  | None -> ()
  | Some dl ->
    Store.set_journal context.Daemon.store
      (Some (fun tag payload -> Dlog.store_op dl ~tag ~payload));
    (* Journal every routing decision for hosted daemons (other
       subscribers, e.g. a client inbox, are not fabric-recovered). *)
    Bus.set_route_hook context.Daemon.bus
      (Some
         (fun name d ->
           if List.exists (fun (h : Daemon.t) -> String.equal h.Daemon.name name) daemons
           then Dlog.route dl (fab_route_of name d))));
  t

let create ?daemons ?clock ?seed ?config () =
  make ?daemons ?clock ?seed ?config ~dlog:None ()

let ( let* ) = Result.bind

let open_durable ?daemons ?clock ?seed ?config ?checkpoint_every ~dir () =
  let* dl, recovery = Dlog.open_ ?checkpoint_every ~dir () in
  let t = make ?daemons ?clock ?seed ?config ~dlog:(Some dl) () in
  let context = Delivery.ctx t.core in
  (* Rebuild the metadata store first (the journal interleaves store
     writes ahead of the delivery records that depend on them), then
     re-materialize pending deliveries on the bus and dead letters in
     the queue.  [Store.replay] suppresses both hooks, [Bus.inject]
     bypasses the route hook and [Delivery.restore] the core's hooks:
     replaying {e from} the journal must not write back into it. *)
  let* () =
    List.fold_left
      (fun acc (tag, payload) ->
        let* () = acc in
        Result.map_error
          (fun e -> Printf.sprintf "fabric recovery: store record %S: %s" tag e)
          (Store.replay context.Daemon.store tag payload))
      (Ok ()) (Dlog.store_history dl)
  in
  let message (fr : Record.fab_route) =
    { Bus.topic = fr.Record.topic; subject = fr.Record.subject; payload = fr.Record.payload }
  in
  List.iter
    (fun (fr : Record.fab_route) ->
      ignore
        (Bus.inject context.Daemon.bus ~name:fr.Record.daemon ~seq:fr.Record.seq
           ~attempts:fr.Record.attempts (message fr)))
    (Dlog.pending dl);
  List.iter
    (fun ((fr : Record.fab_route), cause, at) ->
      Bus.reserve context.Daemon.bus ~seq:fr.Record.seq;
      Delivery.restore t.core
        {
          Deadletter.daemon = fr.Record.daemon;
          delivery =
            { Bus.seq = fr.Record.seq; message = message fr; attempts = fr.Record.attempts;
              deadline = None };
          cause;
          at;
        })
    (Dlog.dead_letters dl);
  Ok (t, recovery)

let ctx t = Delivery.ctx t.core
let core t = t.core
let supervisor t = Delivery.supervisor t.core
let dead_letters t = Delivery.dead_letters t.core
let set_tick_hook t h = t.tick_hook <- h

let ingest_image t ~doc ~url ?annotation img =
  Delivery.ingest_image t.core ~doc ~url ?annotation img

let complete_collection t = Delivery.complete_collection t.core

let workers t =
  Array.to_list
    (Array.map
       (fun w ->
         ( w.id,
           (if w.alive then Some w.pid else None),
           List.map (fun (d : Daemon.t) -> d.Daemon.name) w.hosted ))
       t.workers)

(* Deliveries handed to a worker and not yet settled, as (daemon, delivery). *)
let inflight t = List.filter_map (fun w -> w.inflight) (Array.to_list t.workers)
let pending_deliveries t = Delivery.pending t.core + List.length (inflight t)

(* {1 Process plumbing} *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Fork one process into slot [w].  The child gets fork-copies of the
   whole context (bus, media, dictionary, store) — it only ever uses
   the store and media, and its store hooks are cleared so captured
   ops come exclusively from [Worker.serve]'s per-delivery hook. *)
let spawn t w =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close rep_r;
    (* Drop the parent-side ends of every sibling: a copy held here
       would keep a sibling's pipes open after it (or the parent)
       dies, hiding the EOF that is the fabric's crash signal. *)
    Array.iter
      (fun (o : worker) ->
        if o.id <> w.id && o.alive then begin
          close_quiet o.rfd;
          close_quiet (Unix.descr_of_out_channel o.oc)
        end)
      t.workers;
    let code =
      try
        let context = ctx t in
        Store.set_journal context.Daemon.store None;
        Store.set_sync context.Daemon.store None;
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr rep_w in
        match Worker.serve ic oc w.hosted ~ctx:context with
        | Worker.Quit -> 0
        | Worker.Orphaned -> 2
        | Worker.Fatal _ -> 70
      with _ -> 71
    in
    (* Never return into the parent's code, and never flush inherited
       buffers: [_exit], not [exit]. *)
    Unix._exit code
  | pid ->
    Unix.close req_r;
    Unix.close rep_w;
    Unix.set_nonblock rep_r;
    w.pid <- pid;
    w.rfd <- rep_r;
    w.oc <- Unix.out_channel_of_descr req_w;
    w.alive <- true;
    w.inflight <- None;
    w.staged <- [];
    Buffer.clear w.buf;
    (* Fork copied the parent's store as of now, so the new process
       starts fully caught up. *)
    w.synced <- t.nops

(* A worker process is gone: reap it, settle whatever it was handling
   as a failure, and trip the breakers of everything it hosted so the
   backlog waits for the restart instead of burning attempts. *)
let mark_dead (t : t) w =
  if w.alive then begin
    w.alive <- false;
    t.deaths <- t.deaths + 1;
    close_quiet w.rfd;
    (* [close_out] would leave the channel open (and registered for the
       at-exit flush) if the flush hits the dead worker's pipe;
       [close_out_noerr] unregisters it regardless. *)
    close_out_noerr w.oc;
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    Buffer.clear w.buf;
    (* Whatever the dying process said since its last terminator is
       discarded: a delivery's writes land atomically on [Done] or not
       at all, so the retry cannot double-apply them. *)
    w.staged <- [];
    (match w.inflight with
    | None -> ()
    | Some (name, dv) ->
      w.inflight <- None;
      Delivery.fail t.core ~max_retries:t.config.max_retries ~name dv
        (Printf.sprintf "worker process %d died" w.pid));
    List.iter
      (fun (d : Daemon.t) -> Supervisor.trip_now (supervisor t) d.Daemon.name)
      w.hosted
  end

let kill_worker (t : t) id =
  if id < 0 || id >= Array.length t.workers then false
  else
    let w = t.workers.(id) in
    if not w.alive then false
    else begin
      (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      t.kills <- t.kills + 1;
      true
    end

let send t w req =
  try
    Transport.send_request w.oc req;
    true
  with Sys_error _ ->
    (* Broken pipe: the process died under us.  EOF handling would
       find this too; do it now so the delivery is not stranded. *)
    mark_dead t w;
    false

let catch_up t w =
  let i = ref w.synced in
  let ok = ref true in
  while !ok && !i < t.nops do
    let origin, blob = t.ops.(!i) in
    if origin <> w.id then ok := send t w (Transport.Sync blob);
    if !ok then begin
      incr i;
      w.synced <- !i
    end
  done;
  !ok

(* {1 The event loop} *)

(* The barrier also waits on deliveries a worker holds. *)
let in_flight t topic =
  List.exists (fun (_, dv) -> String.equal dv.Bus.message.Bus.topic topic) (inflight t)

(* Hand the next eligible delivery to an idle worker.  One delivery in
   flight per process: a half-open breaker's single dispatch is
   naturally the probe. *)
let dispatch t w =
  if w.alive && w.inflight = None then
    let rec try_daemons = function
      | [] -> ()
      | (d : Daemon.t) :: rest -> (
        let name = d.Daemon.name in
        match Delivery.next ~in_flight:(in_flight t) t.core ~name with
        | None -> try_daemons rest
        | Some dv ->
          if
            catch_up t w
            && send t w
                 (Transport.Deliver
                    { seq = dv.Bus.seq; daemon = name; message = dv.Bus.message })
          then w.inflight <- Some (name, dv)
          else
            (* The process died while we were talking to it; the
               delivery goes back (its attempt counts). *)
            Bus.requeue_delivery (ctx t).Daemon.bus ~name dv)
    in
    try_daemons w.hosted

(* Settlement is transactional per delivery: [Op]/[Pub] frames are
   staged and land only when the [Done] terminator arrives.  A worker
   killed mid-delivery (or a handler that raised after partial writes)
   therefore leaves no trace in the parent, and the retry cannot
   double-apply a non-idempotent op like [O_visual]. *)
let settle_reply t w reply =
  let inflight seq =
    match w.inflight with
    | Some (name, dv) when dv.Bus.seq = seq ->
      w.inflight <- None;
      let staged = List.rev w.staged in
      w.staged <- [];
      (name, dv, staged)
    | _ -> raise (Transport.Bad (Printf.sprintf "unexpected terminator for #%d" seq))
  in
  match reply with
  | Transport.Op _ | Transport.Pub _ -> w.staged <- reply :: w.staged
  | Transport.Done seq -> (
    let name, dv, staged = inflight seq in
    let commit () =
      let out =
        List.filter_map
          (function
            | Transport.Op blob ->
              (* Applying to the parent store fires the durability
                 journal but not the sync hook; other workers get it
                 via the op log. *)
              Store.apply (ctx t).Daemon.store (Worker.unmarshal_op blob);
              push_op t w.id blob;
              None
            | Transport.Pub m -> Some m
            | Transport.Done _ | Transport.Fail _ -> None)
          staged
      in
      Delivery.succeed t.core ~name dv out
    in
    (* The settlement is one atomic journal group: a crash leaves
       either the delivery pending with no effects, or done with all
       of them — never effects without the [Fab_done]. *)
    match t.dlog with
    | Some dl ->
      Dlog.atomically dl commit;
      Faults.crash_hit "fabric.settled"
    | None -> commit ())
  | Transport.Fail (seq, text) ->
    let name, dv, _ = inflight seq in
    Delivery.fail t.core ~max_retries:t.config.max_retries ~name dv text

(* Settle every complete reply line in [w.buf], scanning by index and
   keeping the unterminated tail once.  Bytes stay buffered here, never
   in an [in_channel]: select must only report an fd ready when a read
   would actually return data. *)
let settle_buffer t w =
  let s = Buffer.contents w.buf in
  let rec settle start =
    match String.index_from_opt s start '\n' with
    | None -> start
    | Some i ->
      (match Transport.reply_of_line (String.sub s start (i - start)) with
      | Ok r -> settle_reply t w r
      | Error e -> raise (Transport.Bad e));
      settle (i + 1)
  in
  let tail = settle 0 in
  if tail > 0 then begin
    Buffer.clear w.buf;
    Buffer.add_substring w.buf s tail (String.length s - tail)
  end

let read_worker t w =
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read w.rfd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
      Buffer.add_subbytes w.buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> true
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  in
  let open_ = drain () in
  (* Settle what the process said before any EOF first: a worker killed
     right after writing [Done] did finish that delivery.  Only a torn
     tail (a delivery without its terminator) is left for [mark_dead]
     to discard and retry. *)
  settle_buffer t w;
  if not open_ then mark_dead t w

(* A dead slot is respawned once its hosted breakers' backoff has
   elapsed (the [Open] → [Half_open] transition is the restart
   signal), and only if there is work left for it. *)
let maybe_respawn (t : t) w =
  if (not w.alive) && w.pid >= 0 then
    let has_work =
      List.exists
        (fun (d : Daemon.t) -> Bus.pending_for (ctx t).Daemon.bus ~name:d.Daemon.name > 0)
        w.hosted
    in
    let ready =
      List.exists
        (fun (d : Daemon.t) ->
          match Supervisor.state (supervisor t) d.Daemon.name with
          | Supervisor.Open _ -> false
          | Supervisor.Closed | Supervisor.Half_open -> true)
        w.hosted
    in
    if has_work && ready then begin
      spawn t w;
      t.restarts <- t.restarts + 1
    end

(* Forget a reaped process: its slot stays, empty. *)
let release w =
  close_quiet w.rfd;
  w.alive <- false;
  w.inflight <- None;
  Buffer.clear w.buf

let quit_workers t =
  Array.iter
    (fun w ->
      if w.alive then begin
        ignore (send t w Transport.Quit);
        if w.alive then begin
          close_out_noerr w.oc;
          (* Collect the exit; anything still stuck gets the axe. *)
          (match Unix.waitpid [] w.pid with
          | _ -> ()
          | exception Unix.Unix_error _ -> (
            try
              Unix.kill w.pid Sys.sigkill;
              ignore (Unix.waitpid [] w.pid)
            with Unix.Unix_error _ -> ()));
          release w
        end
      end)
    t.workers

let kill_all t =
  Array.iter
    (fun w ->
      if w.alive then begin
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
        close_out_noerr w.oc;
        release w
      end)
    t.workers

let shutdown t =
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_pipe)
    (fun () -> quit_workers t);
  Option.iter Dlog.close t.dlog

let run ?(max_turns = 100_000) (t : t) =
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* Fresh processes every run: fork captures the current parent state
     (media ingested since the last run included), and the intra-run
     op log can restart from empty. *)
  quit_workers t;
  t.nops <- 0;
  t.ops <- [||];
  Array.iter (fun w -> spawn t w) t.workers;
  let since = Delivery.dead_count t.core in
  let turns = ref 0 in
  (try
     while pending_deliveries t > 0 && !turns < max_turns do
       incr turns;
       Option.iter (fun f -> f !turns) t.tick_hook;
       List.iter (fun (d : Daemon.t) -> Delivery.expire t.core d.Daemon.name)
         (Delivery.daemons t.core);
       (* Read before dispatching, so a breaker that reopens while it is
          read is acted on in this turn rather than slept through. *)
       let wake = Delivery.wake_at t.core in
       Array.iter (fun w -> maybe_respawn t w) t.workers;
       Array.iter (fun w -> dispatch t w) t.workers;
       let fds =
         Array.fold_left (fun acc w -> if w.alive then w.rfd :: acc else acc) []
           t.workers
       in
       let busy = Array.exists (fun w -> w.inflight <> None) t.workers in
       (* Block while an answer is owed; otherwise sleep until the clock
          alone can unblock work (a TTL deadline or a breaker reopen). *)
       let timeout =
         match wake with
         | Some at when not busy ->
           Float.min 1.0 (Float.max 0.0 (at -. Clock.now (Delivery.clock t.core)))
         | _ -> 1.0
       in
       (match Unix.select fds [] [] timeout with
       | readable, _, _ ->
         List.iter
           (fun fd ->
             match
               Array.find_opt (fun w -> w.alive && w.rfd == fd) t.workers
             with
             | Some w -> read_worker t w
             | None -> ())
           readable
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
       Option.iter Dlog.sync t.dlog
     done
   with e ->
     (* The orchestrator itself is dying (e.g. an armed fabric crash
        point).  Take the workers down hard and leave the journal
        exactly as-is — recovery replays it. *)
     kill_all t;
     Option.iter Dlog.abandon t.dlog;
     Sys.set_signal Sys.sigpipe prev_pipe;
     raise e);
  Sys.set_signal Sys.sigpipe prev_pipe;
  Option.iter Dlog.sync t.dlog;
  Delivery.report t.core ~since ~rounds:!turns ~pending:(pending_deliveries t)

let redeliver ?daemon ?probe t =
  let n = Delivery.redeliver ?daemon ?probe t.core in
  Option.iter Dlog.sync t.dlog;
  n

(* {1 Introspection for the CLI and tests} *)

let state_keys t =
  let bus = (ctx t).Daemon.bus in
  let queued =
    List.concat_map
      (fun (d : Daemon.t) ->
        let name = d.Daemon.name in
        let acc = ref [] in
        let keep (dv : Bus.delivery) =
          acc := (name, dv.Bus.seq) :: !acc;
          true
        in
        ignore (Bus.sweep bus ~name ~keep);
        !acc)
      (Delivery.daemons t.core)
  in
  ( List.sort compare (List.map (fun (n, dv) -> (n, dv.Bus.seq)) (inflight t) @ queued),
    List.sort compare
      (List.map
         (fun (e : Deadletter.entry) ->
           ( e.Deadletter.daemon,
             e.Deadletter.delivery.Bus.seq,
             Dlog.cause_tag e.Deadletter.cause ))
         (dead_letters t)) )

let deaths (t : t) = t.deaths
let restarts (t : t) = t.restarts
let kills (t : t) = t.kills
let dlog t = t.dlog
