(* Tests for the distributed architecture (mirror_daemon). *)

module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth
module Bus = Mirror_daemon.Bus
module Media = Mirror_daemon.Media
module Dictionary = Mirror_daemon.Dictionary
module Store = Mirror_daemon.Store
module Daemon = Mirror_daemon.Daemon
module Standard = Mirror_daemon.Standard
module Faults = Mirror_daemon.Faults
module Orchestrator = Mirror_daemon.Orchestrator
module Supervisor = Mirror_daemon.Supervisor
module Deadletter = Mirror_daemon.Deadletter
module Clock = Mirror_util.Clock

(* {1 Bus} *)

let test_bus_pubsub () =
  let b = Bus.create () in
  Bus.subscribe b ~topic:"t" ~name:"d1";
  Bus.subscribe b ~topic:"t" ~name:"d2";
  Bus.publish b { Bus.topic = "t"; subject = 5; payload = [ ("k", "v") ] };
  Alcotest.(check int) "fan out" 2 (Bus.pending b);
  (match Bus.fetch b ~name:"d1" with
  | Some m ->
    Alcotest.(check int) "subject" 5 m.Bus.subject;
    Alcotest.(check (option string)) "attr" (Some "v") (Bus.attr m "k")
  | None -> Alcotest.fail "expected message");
  Alcotest.(check bool) "d1 drained" true (Bus.fetch b ~name:"d1" = None);
  Alcotest.(check bool) "d2 still queued" true (Bus.fetch b ~name:"d2" <> None)

let test_bus_drop_counter () =
  let b = Bus.create () in
  Bus.publish b { Bus.topic = "nobody"; subject = 0; payload = [] };
  Alcotest.(check int) "dropped" 1 (Bus.dropped b);
  Alcotest.(check int) "published" 1 (Bus.published b)

let test_bus_fifo () =
  let b = Bus.create () in
  Bus.subscribe b ~topic:"t" ~name:"d";
  for i = 1 to 3 do
    Bus.publish b { Bus.topic = "t"; subject = i; payload = [] }
  done;
  let order = List.init 3 (fun _ -> (Option.get (Bus.fetch b ~name:"d")).Bus.subject) in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] order

let test_bus_requeue () =
  let b = Bus.create () in
  Bus.subscribe b ~topic:"t" ~name:"d";
  Bus.publish b { Bus.topic = "t"; subject = 1; payload = [] };
  let m = Option.get (Bus.fetch b ~name:"d") in
  Bus.requeue b ~name:"d" m;
  Alcotest.(check int) "pending again" 1 (Bus.pending b);
  Alcotest.(check int) "requeue is not a publication" 1 (Bus.published b)

(* A requeued message goes to the back of the queue, behind messages
   published while it was out being handled. *)
let test_bus_requeue_ordering () =
  let b = Bus.create () in
  Bus.subscribe b ~topic:"t" ~name:"d";
  Bus.publish b { Bus.topic = "t"; subject = 1; payload = [] };
  let m = Option.get (Bus.fetch b ~name:"d") in
  Bus.publish b { Bus.topic = "t"; subject = 2; payload = [] };
  Bus.publish b { Bus.topic = "t"; subject = 3; payload = [] };
  Bus.requeue b ~name:"d" m;
  let order = List.init 3 (fun _ -> (Option.get (Bus.fetch b ~name:"d")).Bus.subject) in
  Alcotest.(check (list int)) "requeue behind fresh publishes" [ 2; 3; 1 ] order

(* Two identical messages are two deliveries: distinct sequence ids,
   independent attempt counters. *)
let test_bus_independent_deliveries () =
  let b = Bus.create () in
  Bus.subscribe b ~topic:"t" ~name:"d";
  let m = { Bus.topic = "t"; subject = 1; payload = [] } in
  Bus.publish b m;
  Bus.publish b m;
  let d1 = Option.get (Bus.fetch_delivery b ~name:"d") in
  let d2 = Option.get (Bus.fetch_delivery b ~name:"d") in
  Alcotest.(check bool) "distinct seq" true (d1.Bus.seq <> d2.Bus.seq);
  d1.Bus.attempts <- 5;
  Alcotest.(check int) "budgets independent" 0 d2.Bus.attempts

let test_bus_backpressure () =
  let b = Bus.create ~capacity:2 () in
  Bus.subscribe b ~topic:"t" ~name:"d";
  for i = 1 to 4 do
    Bus.publish b { Bus.topic = "t"; subject = i; payload = [] }
  done;
  Alcotest.(check int) "queue at capacity" 2 (Bus.queued b ~name:"d");
  Alcotest.(check int) "overflow stalled" 2 (Bus.stalled b ~name:"d");
  Alcotest.(check int) "stall counter" 2 (Bus.stalls b);
  Alcotest.(check int) "nothing shed" 0 (Bus.shed b);
  (* draining admits stalled deliveries in order; nothing is lost *)
  let order = List.init 4 (fun _ -> (Option.get (Bus.fetch b ~name:"d")).Bus.subject) in
  Alcotest.(check (list int)) "fifo across stall" [ 1; 2; 3; 4 ] order;
  Alcotest.(check int) "all delivered" 4 (Bus.delivered_to b ~name:"d")

let test_bus_shed_oldest () =
  let b = Bus.create ~capacity:2 ~policy:Bus.Shed_oldest () in
  let shed = ref [] in
  Bus.set_overflow_handler b (Some (fun name d -> shed := (name, d.Bus.message.Bus.subject) :: !shed));
  Bus.subscribe b ~topic:"t" ~name:"d";
  for i = 1 to 4 do
    Bus.publish b { Bus.topic = "t"; subject = i; payload = [] }
  done;
  Alcotest.(check (list (pair string int))) "oldest evicted to the handler"
    [ ("d", 1); ("d", 2) ] (List.rev !shed);
  Alcotest.(check int) "shed counter" 2 (Bus.shed b);
  let order = List.init 2 (fun _ -> (Option.get (Bus.fetch b ~name:"d")).Bus.subject) in
  Alcotest.(check (list int)) "newest survive" [ 3; 4 ] order

(* {1 Circuit breaker} *)

let test_breaker_lifecycle () =
  let clk = Clock.virtual_ () in
  let sup = Supervisor.create ~clock:clk ~seed:1 () in
  Alcotest.(check bool) "starts closed" true (Supervisor.allow sup "d");
  Supervisor.failure sup "d";
  Supervisor.failure sup "d";
  Alcotest.(check bool) "below threshold stays closed" true (Supervisor.allow sup "d");
  Supervisor.failure sup "d";
  Alcotest.(check bool) "third strike opens" false (Supervisor.allow sup "d");
  let deadline = Option.get (Supervisor.waiting_until sup "d") in
  Alcotest.(check bool) "backoff in the future" true (deadline > Clock.now clk);
  Clock.advance clk (deadline -. Clock.now clk +. 0.1);
  Alcotest.(check bool) "half-open admits a probe" true (Supervisor.allow sup "d");
  Supervisor.success sup "d";
  Alcotest.(check bool) "probe success closes" true (Supervisor.allow sup "d");
  Alcotest.(check int) "failure streak reset" 0 (Supervisor.failures sup "d")

let test_breaker_reopen_backs_off_longer () =
  let clk = Clock.virtual_ () in
  let sup = Supervisor.create ~clock:clk ~seed:1 () in
  let open_and_measure () =
    for _ = 1 to 3 do Supervisor.failure sup "d" done;
    ignore (Supervisor.allow sup "d");
    let deadline = Option.get (Supervisor.waiting_until sup "d") in
    let wait = deadline -. Clock.now clk in
    Clock.advance clk (wait +. 0.1);
    ignore (Supervisor.allow sup "d") (* half-open *);
    wait
  in
  let w1 = open_and_measure () in
  (* the half-open probe fails: re-trip from half-open with doubled backoff *)
  Supervisor.failure sup "d";
  Alcotest.(check bool) "re-tripped" false (Supervisor.allow sup "d");
  let w2 = (Option.get (Supervisor.waiting_until sup "d")) -. Clock.now clk in
  Alcotest.(check bool)
    (Printf.sprintf "backoff grows (%.2f -> %.2f)" w1 w2)
    true (w2 > w1)

(* {1 Dictionary} *)

let test_dictionary () =
  let d = Dictionary.create () in
  Dictionary.register d ~name:"Lib" ~schema:"v1" ~owner:"app";
  Alcotest.(check (option string)) "initial" (Some "v1") (Dictionary.schema_of d "Lib");
  Dictionary.evolve d ~name:"Lib" ~schema:"v2" ~by:"daemon";
  Alcotest.(check (option string)) "evolved" (Some "v2") (Dictionary.schema_of d "Lib");
  Alcotest.(check (list (pair string string))) "history"
    [ ("v1", "app"); ("v2", "daemon") ]
    (Dictionary.history d "Lib");
  Alcotest.(check (list string)) "extents" [ "Lib" ] (Dictionary.extents d);
  Alcotest.check_raises "duplicate" (Invalid_argument "Dictionary.register: extent \"Lib\" already exists")
    (fun () -> Dictionary.register d ~name:"Lib" ~schema:"x" ~owner:"y")

(* {1 Store} *)

let test_store_visual_merge () =
  let s = Store.create () in
  Store.register_doc s ~doc:0 ~url:"u0";
  Store.add_visual_words s ~doc:0 [ ("a", 1.0); ("b", 2.0) ];
  Store.add_visual_words s ~doc:0 [ ("a", 0.5) ];
  Alcotest.(check (list (pair string (float 1e-9)))) "merged"
    [ ("a", 1.5); ("b", 2.0) ]
    (Store.visual_words s ~doc:0)

let test_store_evidence () =
  let s = Store.create () in
  Store.register_doc s ~doc:0 ~url:"u0";
  Store.register_doc s ~doc:1 ~url:"u1";
  Store.put_text s ~doc:0 [ ("zebra", 1.0) ];
  Store.add_visual_words s ~doc:0 [ ("g_0", 1.0) ];
  let evs = Store.evidence s in
  Alcotest.(check int) "all docs present" 2 (List.length evs);
  let ev0 = List.hd evs in
  Alcotest.(check bool) "doc0 has both" true
    (ev0.Mirror_thesaurus.Assoc.text <> [] && ev0.Mirror_thesaurus.Assoc.visual <> [])

(* {1 Media server} *)

let test_media_server () =
  let media = Media.create () in
  let img = Mirror_mm.Image.create ~width:4 ~height:4 in
  Media.put media ~url:"http://x/1" img;
  Media.put media ~url:"http://x/0" img;
  Alcotest.(check int) "count" 2 (Media.count media);
  Alcotest.(check (list string)) "urls sorted" [ "http://x/0"; "http://x/1" ] (Media.urls media);
  Alcotest.(check bool) "get" true (Media.get media "http://x/1" <> None);
  Alcotest.(check bool) "missing" true (Media.get media "http://x/2" = None);
  (* rebinding replaces *)
  Media.put media ~url:"http://x/1" img;
  Alcotest.(check int) "rebind keeps count" 2 (Media.count media)

let test_dictionary_unknown_evolve () =
  let d = Dictionary.create () in
  Alcotest.check_raises "unknown extent" Not_found (fun () ->
      Dictionary.evolve d ~name:"Nope" ~schema:"x" ~by:"y")

(* A daemon that re-publishes to its own topic would livelock; the
   orchestrator's round guard must stop it. *)
let test_orchestrator_livelock_guard () =
  let chatter =
    Daemon.make ~name:"chatter" ~topics:[ "noise" ] (fun _ m ->
        [ { Bus.topic = "noise"; subject = m.Bus.subject; payload = [] } ])
  in
  let orch = Orchestrator.create ~daemons:[ chatter ] () in
  Bus.publish (Orchestrator.ctx orch).Daemon.bus { Bus.topic = "noise"; subject = 0; payload = [] };
  let report = Orchestrator.run ~max_rounds:5 orch in
  Alcotest.(check int) "stopped at the guard" 5 report.Orchestrator.rounds;
  Alcotest.(check bool) "honest about not quiescing" false report.Orchestrator.quiescent;
  Alcotest.(check bool) "backlog reported" true (report.Orchestrator.pending > 0)

(* {1 Full pipeline (figure 1)} *)

let build_pipeline ?(n = 6) ?daemons () =
  let orch = Orchestrator.create ?daemons () in
  let g = Prng.create 42 in
  let scenes = Synth.corpus g ~n ~width:32 ~height:32 ~annotated_fraction:0.8 () in
  Array.iteri
    (fun i s ->
      let url = Printf.sprintf "http://img.example/%d.png" i in
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Orchestrator.ingest_image orch ~doc:i ~url ?annotation s.Synth.image)
    scenes;
  Orchestrator.complete_collection orch;
  (orch, scenes)

let test_pipeline_quiesces () =
  let orch, _ = build_pipeline () in
  let report = Orchestrator.run orch in
  Alcotest.(check bool) "finished" true (report.Orchestrator.rounds < 1000);
  Alcotest.(check int) "nothing dead-lettered" 0 (List.length report.Orchestrator.dead_letters);
  Alcotest.(check int) "bus drained" 0 (Bus.pending (Orchestrator.ctx orch).Daemon.bus)

let test_pipeline_products () =
  let orch, scenes = build_pipeline () in
  ignore (Orchestrator.run orch);
  let store = (Orchestrator.ctx orch).Daemon.store in
  (* every document segmented and feature-extracted in all six spaces *)
  Array.iteri
    (fun doc _ ->
      Alcotest.(check bool) (Printf.sprintf "segments doc %d" doc) true
        (Store.segments store ~doc <> None);
      List.iter
        (fun space ->
          Alcotest.(check bool)
            (Printf.sprintf "features %s doc %d" space doc)
            true
            (Store.features store ~doc ~space <> None))
        [ "rgb"; "hsv"; "gabor"; "glcm"; "mrf"; "fractal" ];
      Alcotest.(check bool) (Printf.sprintf "visual words doc %d" doc) true
        (Store.visual_words store ~doc <> []))
    scenes;
  (* all six spaces clustered *)
  Alcotest.(check (list string)) "clustered spaces"
    [ "fractal"; "gabor"; "glcm"; "hsv"; "mrf"; "rgb" ]
    (Store.clustered_spaces store);
  (* thesaurus built *)
  Alcotest.(check bool) "thesaurus" true (Store.thesaurus store <> None)

let test_pipeline_schema_evolution () =
  let orch, _ = build_pipeline () in
  ignore (Orchestrator.run orch);
  let dict = (Orchestrator.ctx orch).Daemon.dict in
  let history = Dictionary.history dict "ImageLibrary" in
  Alcotest.(check int) "two schema versions" 2 (List.length history);
  Alcotest.(check string) "evolved by clusterer" "autoclass" (snd (List.nth history 1))

let test_pipeline_annotations_indexed () =
  let orch, scenes = build_pipeline () in
  ignore (Orchestrator.run orch);
  let store = (Orchestrator.ctx orch).Daemon.store in
  Array.iteri
    (fun doc s ->
      match s.Synth.caption with
      | Some _ ->
        Alcotest.(check bool) (Printf.sprintf "text doc %d" doc) true
          (Store.text store ~doc <> None)
      | None ->
        Alcotest.(check bool) (Printf.sprintf "no text doc %d" doc) true
          (Store.text store ~doc = None))
    scenes

let test_pipeline_flaky_daemon_retries () =
  let g = Prng.create 7 in
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if d.Daemon.name = "segmenter" then Faults.flaky g ~rate:0.4 d else d)
      (Standard.all ())
  in
  let orch, _ = build_pipeline ~daemons () in
  let report = Orchestrator.run ~max_retries:10 orch in
  let seg = List.find (fun s -> s.Orchestrator.name = "segmenter") report.Orchestrator.stats in
  Alcotest.(check bool) "some failures injected" true (seg.Orchestrator.failures > 0);
  Alcotest.(check int) "all images still segmented" 6 seg.Orchestrator.handled;
  Alcotest.(check int) "no dead letters with retries" 0
    (List.length report.Orchestrator.dead_letters)

let test_pipeline_broken_daemon_dead_letters () =
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if d.Daemon.name = "annotation-indexer" then Faults.broken d else d)
      (Standard.all ())
  in
  let orch, scenes = build_pipeline ~daemons () in
  let report = Orchestrator.run ~max_retries:1 orch in
  let annotated =
    Array.to_list scenes |> List.filter (fun s -> s.Synth.caption <> None) |> List.length
  in
  Alcotest.(check int) "every annotation dead-lettered" annotated
    (List.length report.Orchestrator.dead_letters);
  List.iter
    (fun (e : Deadletter.entry) ->
      Alcotest.(check string) "right daemon" "annotation-indexer" e.Deadletter.daemon)
    report.Orchestrator.dead_letters;
  (* the rest of the pipeline still completed, in declared degraded mode *)
  let store = (Orchestrator.ctx orch).Daemon.store in
  Alcotest.(check bool) "clustering still ran" true (Store.clustered_spaces store <> []);
  Alcotest.(check bool) "run quiesced despite the outage" true report.Orchestrator.quiescent;
  Alcotest.(check (list string)) "degraded daemon named" [ "annotation-indexer" ]
    report.Orchestrator.degraded;
  (* degraded-mode economics: the breaker sheds the downed daemon's
     backlog instead of burning max_retries attempts per message *)
  let ai =
    List.find (fun s -> s.Orchestrator.name = "annotation-indexer") report.Orchestrator.stats
  in
  Alcotest.(check bool)
    (Printf.sprintf "breaker capped attempts (%d)" ai.Orchestrator.failures)
    true
    (ai.Orchestrator.failures < 2 * annotated)

(* Acceptance: a degraded run is cheap even with a generous retry
   budget — the breaker opens after a few strikes and the backlog
   expires instead of being retried max_retries times each. *)
let test_degraded_run_is_cheap () =
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if d.Daemon.name = "annotation-indexer" then Faults.broken d else d)
      (Standard.all ())
  in
  let orch, scenes = build_pipeline ~daemons () in
  let max_retries = 50 in
  let report = Orchestrator.run ~max_retries orch in
  let annotated =
    Array.to_list scenes |> List.filter (fun s -> s.Synth.caption <> None) |> List.length
  in
  let ai =
    List.find (fun s -> s.Orchestrator.name = "annotation-indexer") report.Orchestrator.stats
  in
  Alcotest.(check bool) "completed degraded" true report.Orchestrator.quiescent;
  Alcotest.(check bool)
    (Printf.sprintf "attempts far below the retry budget (%d << %d)" ai.Orchestrator.failures
       (max_retries * annotated))
    true
    (ai.Orchestrator.failures * 5 < max_retries * annotated);
  (* the shed backlog is accounted for: expired into the dead-letter
     queue, not silently dropped *)
  Alcotest.(check int) "backlog dead-lettered" annotated
    (List.length report.Orchestrator.dead_letters);
  Alcotest.(check bool) "expiries recorded with cause" true
    (List.exists
       (fun (e : Deadletter.entry) ->
         match e.Deadletter.cause with Deadletter.Expired _ -> true | _ -> false)
       report.Orchestrator.dead_letters)

(* Acceptance: heal the daemon, redeliver, and the store converges to
   the failure-free outcome — including the thesaurus, which refreshes
   on the late annotations. *)
let test_redeliver_after_heal_converges () =
  (* failure-free reference *)
  let ref_orch, _ = build_pipeline () in
  ignore (Orchestrator.run ref_orch);
  let ref_store = (Orchestrator.ctx ref_orch).Daemon.store in
  (* same corpus with the annotation indexer down *)
  let heal = ref ignore in
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if d.Daemon.name = "annotation-indexer" then begin
          let d', h = Faults.breakable d in
          heal := h;
          d'
        end
        else d)
      (Standard.all ())
  in
  let orch, scenes = build_pipeline ~daemons () in
  let report = Orchestrator.run orch in
  Alcotest.(check bool) "first run is degraded" true (report.Orchestrator.degraded <> []);
  Alcotest.(check bool) "dead letters accumulated" true
    (Orchestrator.dead_letters orch <> []);
  (* the party comes back up *)
  !heal true;
  let redelivered = Orchestrator.redeliver orch in
  Alcotest.(check bool) "redelivery replays the backlog" true (redelivered > 0);
  let report2 = Orchestrator.run orch in
  Alcotest.(check bool) "healed run quiesces" true report2.Orchestrator.quiescent;
  Alcotest.(check (list string)) "no longer degraded" [] report2.Orchestrator.degraded;
  Alcotest.(check int) "dead-letter queue drained" 0
    (List.length (Orchestrator.dead_letters orch));
  (* store converged to the failure-free outcome *)
  let store = (Orchestrator.ctx orch).Daemon.store in
  Array.iteri
    (fun doc s ->
      let expect = s.Synth.caption <> None in
      Alcotest.(check bool) (Printf.sprintf "text doc %d converged" doc) expect
        (Store.text store ~doc <> None);
      Alcotest.(check bool) (Printf.sprintf "text doc %d identical" doc) true
        (Store.text store ~doc = Store.text ref_store ~doc))
    scenes;
  Alcotest.(check bool) "thesaurus rebuilt over the late annotations" true
    (Store.thesaurus store = Store.thesaurus ref_store)

(* [redeliver ~probe:true] half-opens the target breakers instead of
   force-closing them: the first replayed delivery is a probe.  If the
   party is actually healed the probe succeeds, the breaker closes and
   the backlog drains exactly as under a forced redelivery. *)
let test_redeliver_probe_healed_converges () =
  let heal = ref ignore in
  let daemons =
    List.map
      (fun (d : Daemon.t) ->
        if d.Daemon.name = "annotation-indexer" then begin
          let d', h = Faults.breakable d in
          heal := h;
          d'
        end
        else d)
      (Standard.all ())
  in
  let orch, _ = build_pipeline ~daemons () in
  ignore (Orchestrator.run orch);
  Alcotest.(check bool) "dead letters accumulated" true
    (Orchestrator.dead_letters orch <> []);
  !heal true;
  let redelivered = Orchestrator.redeliver ~probe:true orch in
  Alcotest.(check bool) "backlog replayed" true (redelivered > 0);
  (* probing leaves the breaker half-open, not closed *)
  Alcotest.(check bool) "breaker only half-opened" true
    (Supervisor.state (Orchestrator.supervisor orch) "annotation-indexer"
    = Supervisor.Half_open);
  let report = Orchestrator.run orch in
  Alcotest.(check bool) "probe succeeded, run quiesces" true
    report.Orchestrator.quiescent;
  Alcotest.(check (list string)) "no longer degraded" []
    report.Orchestrator.degraded;
  Alcotest.(check int) "dead-letter queue drained" 0
    (List.length (Orchestrator.dead_letters orch))

(* ... whereas if the party is still down, the failed probe re-trips
   the breaker immediately, shielding the rest of the backlog from a
   pointless retry storm; a forced redelivery against the same broken
   party burns retry budget on every letter. *)
let test_redeliver_probe_still_broken_retrips () =
  let build () =
    let daemons =
      List.map
        (fun (d : Daemon.t) ->
          if d.Daemon.name = "annotation-indexer" then
            fst (Faults.breakable d)
          else d)
        (Standard.all ())
    in
    let orch, _ = build_pipeline ~daemons () in
    ignore (Orchestrator.run orch);
    let dead0 = List.length (Orchestrator.dead_letters orch) in
    Alcotest.(check bool) "dead letters accumulated" true (dead0 > 0);
    let failures0 =
      List.fold_left
        (fun acc (s : Orchestrator.daemon_stats) ->
          if s.Orchestrator.name = "annotation-indexer" then
            acc + s.Orchestrator.failures
          else acc)
        0
        (Orchestrator.run ~max_rounds:0 orch).Orchestrator.stats
    in
    (orch, dead0, failures0)
  in
  (* probe mode: the breaker starts half-open and the failed probe
     re-trips it *)
  let orch, dead0, failures0 = build () in
  ignore (Orchestrator.redeliver ~probe:true orch);
  Alcotest.(check bool) "half-open before the probe" true
    (Supervisor.state (Orchestrator.supervisor orch) "annotation-indexer"
    = Supervisor.Half_open);
  let report = Orchestrator.run orch in
  Alcotest.(check bool) "still degraded" true
    (List.mem "annotation-indexer" report.Orchestrator.degraded);
  let probe_failures =
    List.fold_left
      (fun acc (s : Orchestrator.daemon_stats) ->
        if s.Orchestrator.name = "annotation-indexer" then
          acc + s.Orchestrator.failures
        else acc)
      0 report.Orchestrator.stats
    - failures0
  in
  (* force mode on an identical pipeline burns strictly more attempts *)
  let orch2, dead0', failures0' = build () in
  Alcotest.(check int) "identical backlogs" dead0 dead0';
  ignore (Orchestrator.redeliver orch2);
  Alcotest.(check bool) "forced redelivery closes the breaker" true
    (Supervisor.state (Orchestrator.supervisor orch2) "annotation-indexer"
    = Supervisor.Closed);
  let report2 = Orchestrator.run orch2 in
  let forced_failures =
    List.fold_left
      (fun acc (s : Orchestrator.daemon_stats) ->
        if s.Orchestrator.name = "annotation-indexer" then
          acc + s.Orchestrator.failures
        else acc)
      0 report2.Orchestrator.stats
    - failures0'
  in
  Alcotest.(check bool) "probing shields the backlog" true
    (probe_failures < forced_failures)

(* Under a fixed flaky seed with no retry budget, dead letters arrive
   in delivery order, each with a cause, and nothing is lost: every
   delivery is either handled or dead-lettered. *)
let test_flaky_dead_letter_ordering () =
  let g = Prng.create 11 in
  let sink =
    Faults.flaky g ~rate:0.5 (Daemon.make ~name:"sink" ~topics:[ "t" ] (fun _ _ -> []))
  in
  let orch = Orchestrator.create ~daemons:[ sink ] () in
  let bus = (Orchestrator.ctx orch).Daemon.bus in
  for i = 0 to 19 do
    Bus.publish bus { Bus.topic = "t"; subject = i; payload = [] }
  done;
  let report = Orchestrator.run ~max_retries:0 orch in
  let dead = report.Orchestrator.dead_letters in
  Alcotest.(check bool) "seed injects some failures" true (dead <> []);
  let sink_stats = List.find (fun s -> s.Orchestrator.name = "sink") report.Orchestrator.stats in
  Alcotest.(check int) "handled + dead = delivered" 20
    (sink_stats.Orchestrator.handled + List.length dead);
  (* oldest-first: both the record timestamps and the delivery seqs
     are nondecreasing down the queue *)
  let rec monotone = function
    | (a : Deadletter.entry) :: (b : Deadletter.entry) :: tl ->
      a.Deadletter.at <= b.Deadletter.at
      && a.Deadletter.delivery.Bus.seq < b.Deadletter.delivery.Bus.seq
      && monotone (b :: tl)
    | _ -> true
  in
  Alcotest.(check bool) "dead letters ordered oldest-first" true (monotone dead);
  (* every record carries a cause: exhausted budget or expiry behind
     the tripped breaker — never an uncaused overflow *)
  List.iter
    (fun (e : Deadletter.entry) ->
      match e.Deadletter.cause with
      | Deadletter.Failed _ | Deadletter.Expired _ -> ()
      | Deadletter.Overflow -> Alcotest.fail "unexpected overflow cause")
    dead

(* Identical messages published twice must carry independent retry
   budgets: both deliveries are retried to exhaustion and both are
   dead-lettered (a shared budget would dead-letter only one). *)
let test_duplicate_message_budgets () =
  let failing =
    Daemon.make ~name:"sink" ~topics:[ "t" ] (fun _ _ -> failwith "nope")
  in
  let orch = Orchestrator.create ~daemons:[ failing ] () in
  let bus = (Orchestrator.ctx orch).Daemon.bus in
  let m = { Bus.topic = "t"; subject = 7; payload = [] } in
  Bus.publish bus m;
  Bus.publish bus m;
  let report = Orchestrator.run ~max_retries:1 orch in
  Alcotest.(check int) "both duplicates dead-lettered" 2
    (List.length report.Orchestrator.dead_letters);
  List.iter
    (fun (e : Deadletter.entry) ->
      Alcotest.(check int) "full budget spent per delivery" 2 e.Deadletter.delivery.Bus.attempts;
      match e.Deadletter.cause with
      | Deadletter.Failed reason ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool) "cause carries the exception text" true (contains reason "nope")
      | c -> Alcotest.fail ("expected Failed, got " ^ Deadletter.cause_to_string c))
    report.Orchestrator.dead_letters

let test_missing_media_dead_letters () =
  let orch = Orchestrator.create () in
  let ctx = Orchestrator.ctx orch in
  (* announce a document whose footage the media server never received *)
  Store.register_doc ctx.Daemon.store ~doc:0 ~url:"http://gone";
  Bus.publish ctx.Daemon.bus
    { Bus.topic = "image.new"; subject = 0; payload = [ ("url", "http://gone") ] };
  let report = Orchestrator.run ~max_retries:1 orch in
  Alcotest.(check bool) "segmenter dead-letters the message" true
    (List.exists
       (fun (e : Deadletter.entry) -> e.Deadletter.daemon = "segmenter")
       report.Orchestrator.dead_letters)

let test_query_formulation_round_trip () =
  let orch, _ = build_pipeline () in
  ignore (Orchestrator.run orch);
  (* interactive use: the client asks over the bus, the daemon answers *)
  Orchestrator.formulate orch "stripes";
  ignore (Orchestrator.run orch);
  match Orchestrator.formulated orch with
  | Some ((_ :: _) as concepts) ->
    List.iter
      (fun (c, w) ->
        Alcotest.(check bool) ("visual word: " ^ c) true
          (Mirror_mm.Vocabmap.parse_term c <> None);
        Alcotest.(check bool) "positive belief" true (w > 0.0))
      concepts
  | Some [] -> Alcotest.fail "no concepts returned"
  | None -> Alcotest.fail "no reply delivered"

(* Both drivers settle through the one delivery core, so both record
   the dead-letter counters. *)
let test_metrics_parity () =
  let module Metrics = Mirror_util.Metrics in
  let module Fabric = Mirror_fabric.Fabric in
  let failing () = Daemon.make ~name:"sink" ~topics:[ "t" ] (fun _ _ -> failwith "down") in
  let publish (ctx : Daemon.ctx) =
    for i = 0 to 2 do
      Bus.publish ctx.Daemon.bus { Bus.topic = "t"; subject = i; payload = [] }
    done
  in
  let check driver ~dead ~redeliver =
    Alcotest.(check int) (driver ^ ": three dead letters") 3 dead;
    Alcotest.(check int) (driver ^ ": deadletter.count") 3 (Metrics.counter "deadletter.count");
    Alcotest.(check int) (driver ^ ": redelivered") 3 (redeliver ());
    Alcotest.(check int) (driver ^ ": deadletter.redelivered") 3
      (Metrics.counter "deadletter.redelivered")
  in
  Fun.protect ~finally:Metrics.reset @@ fun () ->
  Metrics.with_enabled @@ fun () ->
  Metrics.reset ();
  let orch = Orchestrator.create ~daemons:[ failing () ] () in
  publish (Orchestrator.ctx orch);
  ignore (Orchestrator.run orch);
  check "in-process"
    ~dead:(List.length (Orchestrator.dead_letters orch))
    ~redeliver:(fun () -> Orchestrator.redeliver orch);
  if Sys.unix then begin
    Metrics.reset ();
    let config =
      {
        Fabric.default_config with
        ttl = 2.0;
        breaker =
          { Supervisor.failure_threshold = 3; base_backoff = 0.004; max_backoff = 0.05; jitter = 0.2 };
      }
    in
    let fab = Fabric.create ~daemons:[ failing () ] ~config () in
    Fun.protect ~finally:(fun () -> Fabric.shutdown fab) @@ fun () ->
    publish (Fabric.ctx fab);
    ignore (Fabric.run fab);
    check "fabric"
      ~dead:(List.length (Fabric.dead_letters fab))
      ~redeliver:(fun () -> Fabric.redeliver fab)
  end

let test_pipeline_stats_shape () =
  let orch, _ = build_pipeline () in
  let report = Orchestrator.run orch in
  Alcotest.(check int) "one stats row per daemon" 11 (List.length report.Orchestrator.stats);
  let seg = List.find (fun s -> s.Orchestrator.name = "segmenter") report.Orchestrator.stats in
  Alcotest.(check int) "segmenter saw all images" 6 seg.Orchestrator.handled;
  let cl = List.find (fun s -> s.Orchestrator.name = "autoclass") report.Orchestrator.stats in
  Alcotest.(check int) "clusterer ran once" 1 cl.Orchestrator.handled;
  (* one clustering.done per space + contrep.ready *)
  Alcotest.(check int) "clusterer produced 7 messages" 7 cl.Orchestrator.produced

let () =
  Alcotest.run "mirror_daemon"
    [
      ( "bus",
        [
          Alcotest.test_case "publish/subscribe" `Quick test_bus_pubsub;
          Alcotest.test_case "drop counter" `Quick test_bus_drop_counter;
          Alcotest.test_case "fifo order" `Quick test_bus_fifo;
          Alcotest.test_case "requeue" `Quick test_bus_requeue;
          Alcotest.test_case "requeue ordering" `Quick test_bus_requeue_ordering;
          Alcotest.test_case "independent deliveries" `Quick test_bus_independent_deliveries;
          Alcotest.test_case "backpressure" `Quick test_bus_backpressure;
          Alcotest.test_case "shed oldest" `Quick test_bus_shed_oldest;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "reopen backs off longer" `Quick test_breaker_reopen_backs_off_longer;
        ] );
      ("dictionary", [ Alcotest.test_case "register/evolve/history" `Quick test_dictionary ]);
      ( "store",
        [
          Alcotest.test_case "visual word merge" `Quick test_store_visual_merge;
          Alcotest.test_case "evidence" `Quick test_store_evidence;
        ] );
      ( "media",
        [
          Alcotest.test_case "put/get/urls" `Quick test_media_server;
          Alcotest.test_case "evolve unknown extent" `Quick test_dictionary_unknown_evolve;
          Alcotest.test_case "livelock guard" `Quick test_orchestrator_livelock_guard;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "quiesces" `Quick test_pipeline_quiesces;
          Alcotest.test_case "products complete" `Quick test_pipeline_products;
          Alcotest.test_case "schema evolution" `Quick test_pipeline_schema_evolution;
          Alcotest.test_case "annotations indexed" `Quick test_pipeline_annotations_indexed;
          Alcotest.test_case "flaky daemon retries" `Quick test_pipeline_flaky_daemon_retries;
          Alcotest.test_case "broken daemon dead-letters" `Quick test_pipeline_broken_daemon_dead_letters;
          Alcotest.test_case "degraded run is cheap" `Quick test_degraded_run_is_cheap;
          Alcotest.test_case "flaky dead-letter ordering" `Quick test_flaky_dead_letter_ordering;
          Alcotest.test_case "redeliver after heal converges" `Quick test_redeliver_after_heal_converges;
          Alcotest.test_case "probe redelivery converges when healed" `Quick
            test_redeliver_probe_healed_converges;
          Alcotest.test_case "probe redelivery re-trips when still broken" `Quick
            test_redeliver_probe_still_broken_retrips;
          Alcotest.test_case "duplicate message budgets" `Quick test_duplicate_message_budgets;
          Alcotest.test_case "stats shape" `Quick test_pipeline_stats_shape;
          Alcotest.test_case "dead-letter metrics from both drivers" `Quick test_metrics_parity;
          Alcotest.test_case "missing media dead-letters" `Quick test_missing_media_dead_letters;
          Alcotest.test_case "interactive query formulation" `Quick test_query_formulation_round_trip;
        ] );
    ]
