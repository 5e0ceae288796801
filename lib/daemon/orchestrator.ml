module Clock = Mirror_util.Clock

type config = { delivery : Delivery.config; tick : float }

let default_config = { delivery = Delivery.default_config; tick = 1.0 }

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

type t = { core : Delivery.t; tick : float }

let create ?daemons ?clock ?seed ?(config = default_config) () =
  let clock = match clock with Some c -> c | None -> Clock.virtual_ () in
  { core = Delivery.create ?daemons ?seed ~config:config.delivery ~clock (); tick = config.tick }

let core t = t.core
let ctx t = Delivery.ctx t.core
let supervisor t = Delivery.supervisor t.core
let dead_letters t = Delivery.dead_letters t.core
let redeliver ?daemon ?probe t = Delivery.redeliver ?daemon ?probe t.core

let ingest_image t ~doc ~url ?annotation img =
  Delivery.ingest_image t.core ~doc ~url ?annotation img

let complete_collection t = Delivery.complete_collection t.core

let formulate t text =
  let bus = (ctx t).Daemon.bus in
  let reply = "client.formulated" in
  Bus.subscribe bus ~topic:reply ~name:"client";
  Bus.publish bus
    { Bus.topic = "query.formulate"; subject = -1; payload = [ ("text", text); ("reply", reply) ] }

let formulated t =
  let bus = (ctx t).Daemon.bus in
  match Bus.fetch bus ~name:"client" with
  | None -> None
  | Some m -> (
    match Bus.attr m "concepts" with
    | None -> Some []
    | Some enc ->
      Some
        (Mirror_util.Stringx.split_on (fun c -> c = ';') enc
        |> List.filter_map (fun pair ->
               match String.index_opt pair '=' with
               | None -> None
               | Some i ->
                 let c = String.sub pair 0 i in
                 let w = String.sub pair (i + 1) (String.length pair - i - 1) in
                 Option.map (fun w -> (c, w)) (float_of_string_opt w))))

let run ?(max_retries = 2) ?(max_rounds = 1000) ?(trace = Mirror_util.Trace.null) t =
  let module Trace = Mirror_util.Trace in
  let module Metrics = Mirror_util.Metrics in
  let core = t.core in
  let context = Delivery.ctx core and sup = Delivery.supervisor core in
  let bus = context.Daemon.bus in
  let daemons = Delivery.daemons core in
  let rounds = ref 0 in
  let fatal : exn option ref = ref None in
  let since = Delivery.dead_count core in
  let dead_count () = Delivery.dead_count core - since in
  Supervisor.set_listener sup
    (Some
       (fun name st ->
         if Trace.is_on trace then
           Trace.event trace "breaker"
             ~attrs:[ ("daemon", name); ("state", Supervisor.state_to_string st) ]));
  Fun.protect ~finally:(fun () -> Supervisor.set_listener sup None) @@ fun () ->
  Trace.enter trace "orchestrator.run";
  let continue_ = ref (Delivery.pending core > 0) in
  while !continue_ && !fatal = None && !rounds < max_rounds do
    incr rounds;
    Trace.enter trace (Printf.sprintf "round %d" !rounds);
    let attempts_this_round = ref 0 in
    let dead_at_round_start = dead_count () in
    List.iter
      (fun (d : Daemon.t) ->
        if !fatal = None then begin
          let name = d.Daemon.name in
          Delivery.expire core name;
          if Metrics.enabled () then
            Metrics.observe ("daemon." ^ name ^ ".depth")
              (float_of_int (Bus.queued bus ~name));
          (* Handle at most the messages present at round start (so a
             daemon whose output feeds its own inbox cannot monopolise
             a round), gated by the breaker: open = skip, half-open =
             one probe delivery. *)
          let budget =
            match Supervisor.state sup name with
            | Supervisor.Open _ -> 0
            | Supervisor.Half_open -> min 1 (Bus.queued bus ~name)
            | Supervisor.Closed -> Bus.queued bus ~name
          in
          let handled = ref 0 in
          let rec drain budget =
            if budget > 0 && !fatal = None then
              match Delivery.next core ~name with
              | None -> ()
              | Some dv ->
                incr attempts_this_round;
                let w0 = if Metrics.enabled () then Trace.now () else 0.0 in
                let t0 = Sys.time () in
                (match d.Daemon.handle context dv.Bus.message with
                | out ->
                  let cpu = Sys.time () -. t0 in
                  let ms = if Metrics.enabled () then Some (1000.0 *. (Trace.now () -. w0)) else None in
                  incr handled;
                  Delivery.succeed ~cpu ?ms core ~name dv out
                | exception e when Faults.is_fatal e ->
                  Delivery.crashed ~cpu:(Sys.time () -. t0) core ~name dv;
                  fatal := Some e
                | exception e ->
                  Delivery.fail ~cpu:(Sys.time () -. t0) core ~max_retries ~name dv
                    (Printexc.to_string e));
                drain (budget - 1)
          in
          if budget > 0 && Trace.is_on trace then begin
            Trace.enter trace name;
            drain budget;
            Trace.leave ~rows:!handled trace
          end
          else drain budget
        end)
      daemons;
    let dead_delta = dead_count () - dead_at_round_start in
    Trace.leave
      ~attrs:
        [ ("attempts", string_of_int !attempts_this_round); ("dead", string_of_int dead_delta) ]
      trace;
    if Clock.is_virtual (Delivery.clock core) then Clock.advance (Delivery.clock core) t.tick;
    (* Keep pumping while the round did something, or while an open
       breaker guards pending work (advancing time will half-open it,
       or the backlog will expire).  Anything else is a stall no amount
       of rounds can fix — stop and report it honestly. *)
    let can_unblock () =
      List.exists
        (fun (d : Daemon.t) ->
          Bus.pending_for bus ~name:d.Daemon.name > 0
          && Supervisor.state sup d.Daemon.name <> Supervisor.Closed)
        daemons
    in
    continue_ :=
      Delivery.pending core > 0
      && (!attempts_this_round > 0 || dead_delta > 0 || can_unblock ())
  done;
  let pending = Delivery.pending core in
  Trace.leave
    ~attrs:
      [
        ("rounds", string_of_int !rounds);
        ("pending", string_of_int pending);
        ("dead_letters", string_of_int (dead_count ()));
      ]
    trace;
  (match !fatal with Some e -> raise e | None -> ());
  Delivery.report core ~since ~rounds:!rounds ~pending
