module Clock = Mirror_util.Clock
module Metrics = Mirror_util.Metrics

type config = {
  ttl : float;
  capacity : int option;
  policy : Bus.overflow_policy;
  breaker : Supervisor.config;
  barriers : (string * string list) list;
}

let default_config =
  {
    ttl = 30.0;
    capacity = Some 256;
    policy = Bus.Backpressure;
    breaker = Supervisor.default_config;
    barriers = [ ("collection.complete", [ "image.new"; "segments.ready" ]) ];
  }

type daemon_stats = {
  name : string;
  handled : int;
  produced : int;
  failures : int;
  cpu_seconds : float;
}

type report = {
  rounds : int;
  quiescent : bool;
  pending : int;
  degraded : string list;
  stats : daemon_stats list;
  dead_letters : Deadletter.entry list;
}

type hooks = {
  on_dead : Deadletter.entry -> unit;
  on_done : string -> Bus.delivery -> unit;
  on_redeliver : Deadletter.entry -> unit;
}

type counts = {
  mutable m_handled : int;
  mutable m_produced : int;
  mutable m_failures : int;
  mutable m_cpu : float;
}

type t = {
  context : Daemon.ctx;
  daemons : Daemon.t list;
  tallies : (string, counts) Hashtbl.t;
  config : config;
  clk : Clock.t;
  sup : Supervisor.t;
  dlq : Deadletter.t;
  hooks : hooks option;
}

let initial_schema =
  "SET< TUPLE< Atomic<URL>: source, Atomic<Text>: annotation, Atomic<Image>: image > >"

(* Every dead letter enters here: nothing leaves the bus without an
   attributable record. *)
let add_dead t name delivery cause =
  let e = { Deadletter.daemon = name; delivery; cause; at = Clock.now t.clk } in
  Deadletter.add t.dlq e;
  if Metrics.enabled () then Metrics.incr "deadletter.count";
  Option.iter (fun h -> h.on_dead e) t.hooks

let create ?daemons ?(seed = 7901) ?(config = default_config) ?hooks ~clock () =
  let daemons = match daemons with Some ds -> ds | None -> Standard.all () in
  let context =
    {
      Daemon.bus = Bus.create ?capacity:config.capacity ~policy:config.policy ();
      media = Media.create ();
      dict = Dictionary.create ();
      store = Store.create ();
    }
  in
  Dictionary.register context.Daemon.dict ~name:"ImageLibrary" ~schema:initial_schema
    ~owner:"application";
  let tallies = Hashtbl.create 16 in
  List.iter
    (fun (d : Daemon.t) ->
      Hashtbl.replace tallies d.Daemon.name
        { m_handled = 0; m_produced = 0; m_failures = 0; m_cpu = 0.0 };
      List.iter (fun topic -> Bus.subscribe context.Daemon.bus ~topic ~name:d.Daemon.name)
        d.Daemon.topics)
    daemons;
  let t =
    {
      context;
      daemons;
      tallies;
      config;
      clk = clock;
      sup = Supervisor.create ~config:config.breaker ~clock ~seed ();
      dlq = Deadletter.create ();
      hooks;
    }
  in
  Bus.set_overflow_handler context.Daemon.bus
    (Some (fun name delivery -> add_dead t name delivery Deadletter.Overflow));
  t

let daemons t = t.daemons
let ctx t = t.context
let clock t = t.clk
let supervisor t = t.sup
let dead_letters t = Deadletter.entries t.dlq
let dead_count t = Deadletter.count t.dlq

let expire t name =
  let now = Clock.now t.clk in
  Bus.sweep t.context.Daemon.bus ~name ~keep:(fun (dv : Bus.delivery) ->
      match dv.Bus.deadline with
      | None ->
        dv.Bus.deadline <- Some (now +. t.config.ttl);
        true
      | Some dl -> dl > now)
  |> List.iter (fun dv ->
         add_dead t name dv
           (Deadletter.Expired (Supervisor.state_to_string (Supervisor.state t.sup name))))

(* Only daemons with queued work count: an idle daemon's breaker or
   deadlines unblock nothing. *)
let wake_at t =
  let earlier acc = function
    | Some x when (match acc with Some a -> x < a | None -> true) -> Some x
    | _ -> acc
  in
  List.fold_left
    (fun acc (d : Daemon.t) ->
      let name = d.Daemon.name in
      if Bus.pending_for t.context.Daemon.bus ~name = 0 then acc
      else begin
        let acc = ref (earlier acc (Supervisor.waiting_until t.sup name)) in
        ignore
          (Bus.sweep t.context.Daemon.bus ~name ~keep:(fun (dv : Bus.delivery) ->
               acc := earlier !acc dv.Bus.deadline;
               true));
        !acc
      end)
    None t.daemons

(* A barrier delivery is held while any awaited topic still has
   deliveries queued, in flight or dead-lettered: the downstream daemon
   must not consume its trigger before upstream work has resolved. *)
let barrier_held t ~in_flight (m : Bus.message) =
  match List.assoc_opt m.Bus.topic t.config.barriers with
  | None -> false
  | Some awaits ->
    List.exists
      (fun topic ->
        Bus.pending_by_topic t.context.Daemon.bus ~topic > 0
        || Deadletter.exists_topic t.dlq topic
        || in_flight topic)
      awaits

let next ?(in_flight = fun _ -> false) t ~name =
  let bus = t.context.Daemon.bus in
  if not (Supervisor.allow t.sup name) then None
  else
    match Bus.fetch_delivery bus ~name with
    | None -> None
    | Some dv when barrier_held t ~in_flight dv.Bus.message ->
      Bus.requeue_delivery bus ~name dv;
      None
    | Some dv ->
      dv.Bus.attempts <- dv.Bus.attempts + 1;
      Some dv

let tally t name ~cpu =
  let m = Hashtbl.find t.tallies name in
  m.m_cpu <- m.m_cpu +. cpu;
  m

let succeed ?(cpu = 0.0) ?ms t ~name dv out =
  let m = tally t name ~cpu in
  m.m_handled <- m.m_handled + 1;
  m.m_produced <- m.m_produced + List.length out;
  Supervisor.success t.sup name;
  if Metrics.enabled () then begin
    Metrics.incr ("daemon." ^ name ^ ".handled");
    Option.iter (Metrics.observe ("daemon." ^ name ^ ".ms")) ms
  end;
  List.iter (Bus.publish t.context.Daemon.bus) out;
  Option.iter (fun h -> h.on_done name dv) t.hooks

let fail ?(cpu = 0.0) t ~max_retries ~name (dv : Bus.delivery) reason =
  let m = tally t name ~cpu in
  m.m_failures <- m.m_failures + 1;
  Supervisor.failure t.sup name;
  if Metrics.enabled () then Metrics.incr ("daemon." ^ name ^ ".failures");
  if dv.Bus.attempts <= max_retries then Bus.requeue_delivery t.context.Daemon.bus ~name dv
  else add_dead t name dv (Deadletter.Failed reason)

let crashed ~cpu t ~name dv =
  let m = tally t name ~cpu in
  m.m_failures <- m.m_failures + 1;
  Bus.requeue_delivery t.context.Daemon.bus ~name dv

let restore t e = Deadletter.add t.dlq e

let redeliver ?daemon ?(probe = false) t =
  let letters = Deadletter.take ?daemon t.dlq in
  List.iter
    (fun (e : Deadletter.entry) ->
      Option.iter (fun h -> h.on_redeliver e) t.hooks;
      (* Force-close assumes the operator healed the daemon; [probe]
         only half-opens, so the first replayed delivery acts as the
         probe and a still-sick daemon re-trips after one failure
         instead of absorbing the whole backlog. *)
      if probe then Supervisor.probe t.sup e.Deadletter.daemon
      else Supervisor.reset t.sup e.Deadletter.daemon;
      let d = e.Deadletter.delivery in
      d.Bus.attempts <- 0;
      d.Bus.deadline <- None;
      Bus.requeue_delivery t.context.Daemon.bus ~name:e.Deadletter.daemon d;
      if Metrics.enabled () then Metrics.incr "deadletter.redelivered")
    letters;
  List.length letters

let ingest_image t ~doc ~url ?annotation img =
  Media.put t.context.Daemon.media ~url img;
  Store.register_doc t.context.Daemon.store ~doc ~url;
  Bus.publish t.context.Daemon.bus
    { Bus.topic = "image.new"; subject = doc; payload = [ ("url", url) ] };
  match annotation with
  | None -> ()
  | Some text ->
    Bus.publish t.context.Daemon.bus
      { Bus.topic = "annotation.new"; subject = doc; payload = [ ("text", text) ] }

let complete_collection t =
  Bus.publish t.context.Daemon.bus
    { Bus.topic = "collection.complete"; subject = -1; payload = [] }

let pending t =
  List.fold_left
    (fun acc (d : Daemon.t) -> acc + Bus.pending_for t.context.Daemon.bus ~name:d.Daemon.name)
    0 t.daemons

let degraded t =
  List.filter_map
    (fun (d : Daemon.t) ->
      let name = d.Daemon.name in
      if
        Supervisor.state t.sup name <> Supervisor.Closed
        || Deadletter.for_daemon t.dlq name <> []
      then Some name
      else None)
    t.daemons

let report t ~since ~rounds ~pending =
  let stats =
    List.map
      (fun (d : Daemon.t) ->
        let m = Hashtbl.find t.tallies d.Daemon.name in
        {
          name = d.Daemon.name;
          handled = m.m_handled;
          produced = m.m_produced;
          failures = m.m_failures;
          cpu_seconds = m.m_cpu;
        })
      t.daemons
  in
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  {
    rounds;
    quiescent = pending = 0;
    pending;
    degraded = degraded t;
    stats;
    dead_letters = drop since (Deadletter.entries t.dlq);
  }
