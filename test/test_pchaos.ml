(* Kill-based chaos suite for the multi-process daemon fabric.

   Where test_chaos.ml exercises the in-process supervision loop with
   simulated faults, this suite runs the same pipeline across real
   forked worker processes and injects real failures: SIGKILLed
   workers mid-run, handler exceptions crossing the pipe protocol, and
   orchestrator (parent) self-crashes at armed fabric crash points,
   recovered through the durable delivery journal.

   The invariants are the same three as the in-process suite —
   accounting (nothing vanishes), honesty (never "quiescent" with a
   backlog), convergence (after healing and redelivery the store
   equals the failure-free store) — plus a fourth: after an
   orchestrator crash, the recovered pending/dead-letter state is
   exactly the journaled one (no delivery lost or duplicated).

   The whole suite is POSIX-only (fork/pipes/signals); on other
   platforms it reduces to a skip.  The in-runtest slice runs a
   subset of the seeds; set MIRROR_PCHAOS_FULL=1 for all 500. *)

module Prng = Mirror_util.Prng
module Synth = Mirror_mm.Synth
module Bus = Mirror_daemon.Bus
module Daemon = Mirror_daemon.Daemon
module Media = Mirror_daemon.Media
module Store = Mirror_daemon.Store
module Faults = Mirror_daemon.Faults
module Supervisor = Mirror_daemon.Supervisor
module Deadletter = Mirror_daemon.Deadletter
module Fabric = Mirror_fabric.Fabric
module Dlog = Mirror_fabric.Dlog

let posix = Sys.unix

let schedules =
  match Sys.getenv_opt "MIRROR_PCHAOS_FULL" with Some _ -> 500 | None -> 50

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())

let with_temp_dir f =
  let dir = Filename.temp_file "mirror-pchaos" ".db" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Small real-time windows: a killed worker's breaker reopens in
   milliseconds and a stranded backlog expires in a couple of seconds,
   so a full schedule stays fast without ever sleeping in the test. *)
let fast_config ?(procs = 2) () =
  {
    Fabric.default_config with
    procs;
    ttl = 2.0;
    breaker =
      {
        Supervisor.failure_threshold = 3;
        base_backoff = 0.004;
        max_backoff = 0.05;
        jitter = 0.2;
      };
    max_retries = 2;
  }

let scenes =
  Synth.corpus (Prng.create 97) ~n:2 ~width:16 ~height:16 ~annotated_fraction:0.8 ()

let url_of i = Printf.sprintf "pchaos://%d" i

let ingest fab =
  Array.iteri
    (fun i (s : Synth.scene) ->
      let annotation = Option.map (String.concat " ") s.Synth.caption in
      Fabric.ingest_image fab ~doc:i ~url:(url_of i) ?annotation s.Synth.image)
    scenes;
  Fabric.complete_collection fab

(* The media server is a separate party in the architecture — footage
   is not part of the metadata journal.  After an orchestrator crash
   the harness plays that party and re-serves the footage. *)
let reingest_media fab =
  let media = (Fabric.ctx fab).Daemon.media in
  Array.iteri
    (fun i (s : Synth.scene) -> Media.put media ~url:(url_of i) s.Synth.image)
    scenes

let digest fab =
  let store = (Fabric.ctx fab).Daemon.store in
  let per_doc =
    List.map
      (fun doc ->
        ( doc,
          Option.map List.length (Store.segments store ~doc),
          Store.text store ~doc,
          List.sort compare (Store.visual_words store ~doc) ))
      (Store.docs store)
  in
  (per_doc, Store.clustered_spaces store, Store.thesaurus store)

let baseline =
  lazy
    (let fab = Fabric.create ~config:(fast_config ()) () in
     ingest fab;
     let report = Fabric.run fab in
     Fabric.shutdown fab;
     assert report.Fabric.quiescent;
     digest fab)

(* Invariant (a): per daemon, deliveries in = handled + dead + live
   pending (queued or in flight). *)
let check_accounting ~seed fab (stats : Fabric.stats list) =
  let bus = (Fabric.ctx fab).Daemon.bus in
  let live_pending, _ = Fabric.state_keys fab in
  List.iter
    (fun (s : Fabric.stats) ->
      let name = s.Fabric.name in
      let delivered = Bus.delivered_to bus ~name in
      let dead =
        List.length
          (List.filter
             (fun (e : Deadletter.entry) -> e.Deadletter.daemon = name)
             (Fabric.dead_letters fab))
      in
      let pending =
        List.length (List.filter (fun (n, _) -> n = name) live_pending)
      in
      if delivered <> s.Fabric.handled + dead + pending then
        Alcotest.failf
          "schedule %d: %s loses deliveries: %d in <> %d handled + %d dead + %d pending"
          seed name delivered s.Fabric.handled dead pending)
    stats

let check_honesty ~seed (report : Fabric.report) =
  if report.Fabric.quiescent && report.Fabric.pending > 0 then
    Alcotest.failf "schedule %d: claims quiescence with %d pending" seed
      report.Fabric.pending;
  if (not report.Fabric.quiescent) && report.Fabric.pending = 0 then
    Alcotest.failf "schedule %d: claims a backlog it does not have" seed

(* Heal and drain: redeliver dead letters (probing on even seeds,
   force-closing on odd) and re-run until clean. *)
let recover_to_convergence ~seed fab =
  let rec go n last =
    if
      n > 12
      || ((last : Fabric.report).Fabric.quiescent && Fabric.dead_letters fab = [])
    then last
    else begin
      ignore (Fabric.redeliver ~probe:(seed mod 2 = 0) fab);
      go (n + 1) (Fabric.run fab)
    end
  in
  let final = go 0 (Fabric.run fab) in
  if not final.Fabric.quiescent then
    Alcotest.failf "schedule %d: never quiesced after healing" seed;
  if Fabric.dead_letters fab <> [] then
    Alcotest.failf "schedule %d: dead letters survived redelivery" seed;
  final

(* {1 Baseline behaviour} *)

let test_null_schedule () =
  if posix then begin
    let fab = Fabric.create ~config:(fast_config ~procs:3 ()) () in
    ingest fab;
    let report = Fabric.run fab in
    check_honesty ~seed:(-1) report;
    Alcotest.(check bool) "quiescent" true report.Fabric.quiescent;
    Alcotest.(check int) "no deaths" 0 (Fabric.deaths fab);
    Alcotest.(check int) "no dead letters" 0 (List.length report.Fabric.dead_letters);
    check_accounting ~seed:(-1) fab report.Fabric.stats;
    Alcotest.(check bool) "digest matches baseline" true
      (digest fab = Lazy.force baseline);
    Fabric.shutdown fab
  end

(* The fabric and the in-process orchestrator must agree on the final
   store: process isolation is an execution strategy, not a semantic
   change. *)
let test_agrees_with_orchestrator () =
  if posix then begin
    let module Orchestrator = Mirror_daemon.Orchestrator in
    let orch = Orchestrator.create () in
    Array.iteri
      (fun i (s : Synth.scene) ->
        let annotation = Option.map (String.concat " ") s.Synth.caption in
        Orchestrator.ingest_image orch ~doc:i ~url:(url_of i) ?annotation
          s.Synth.image)
      scenes;
    Orchestrator.complete_collection orch;
    let report = Orchestrator.run orch in
    assert report.Orchestrator.quiescent;
    let store = (Orchestrator.ctx orch).Daemon.store in
    let orch_digest =
      ( List.map
          (fun doc ->
            ( doc,
              Option.map List.length (Store.segments store ~doc),
              Store.text store ~doc,
              List.sort compare (Store.visual_words store ~doc) ))
          (Store.docs store),
        Store.clustered_spaces store,
        Store.thesaurus store )
    in
    Alcotest.(check bool) "fabric = orchestrator" true
      (orch_digest = Lazy.force baseline)
  end

(* {1 A terminator that arrives together with EOF}

   A worker can write its [Done] and die before the parent reads it,
   so the frame and the EOF arrive in one read burst.  The delivery
   did finish: it must settle as handled, not be retried as a failure
   of the dead process. *)
let test_done_before_death_settles () =
  if posix then
    with_temp_dir @@ fun dir ->
    Sys.mkdir dir 0o700;
    let marker = Filename.concat dir "slow-returned" in
    let slow =
      Daemon.make ~name:"slow" ~topics:[ "t" ] (fun _ _ ->
          Unix.sleepf 0.3;
          close_out (open_out marker);
          [])
    in
    let fast = Daemon.make ~name:"fast" ~topics:[ "t" ] (fun _ _ -> []) in
    (* slot 0 hosts [slow], slot 1 [fast] *)
    let fab = Fabric.create ~daemons:[ slow; fast ] ~config:(fast_config ~procs:2 ()) () in
    Bus.publish (Fabric.ctx fab).Daemon.bus { Bus.topic = "t"; subject = 0; payload = [] };
    (* [fast]'s reply ends turn 1 while [slow] is still handling; at the
       next turn wait until [slow]'s handler has returned and its
       [Done] is in the pipe, then kill the process before the parent
       reads it. *)
    let killed = ref false in
    Fabric.set_tick_hook fab
      (Some
         (fun turn ->
           if turn >= 2 && (not !killed) && Fabric.pending_deliveries fab > 0 then begin
             let deadline = Unix.gettimeofday () +. 5.0 in
             while (not (Sys.file_exists marker)) && Unix.gettimeofday () < deadline do
               Unix.sleepf 0.005
             done;
             Unix.sleepf 0.1;
             killed := Sys.file_exists marker && Fabric.kill_worker fab 0;
             (* let the kernel close the dead process's pipe end, so the
                parent's next read sees the frame and EOF together *)
             Unix.sleepf 0.1
           end));
    let report = Fabric.run fab in
    Fabric.set_tick_hook fab None;
    Fabric.shutdown fab;
    Alcotest.(check bool) "the slow worker was killed" true !killed;
    Alcotest.(check int) "its death was observed" 1 (Fabric.deaths fab);
    let s = List.find (fun (s : Fabric.stats) -> s.Fabric.name = "slow") report.Fabric.stats in
    Alcotest.(check int) "delivery handled once" 1 s.Fabric.handled;
    Alcotest.(check int) "not counted as a failure" 0 s.Fabric.failures;
    Alcotest.(check int) "no dead letters" 0 (List.length (Fabric.dead_letters fab))

(* {1 Kill schedules: SIGKILL real worker processes mid-pipeline} *)

let run_kill_schedule seed =
  let g = Prng.create (0xF0B + (seed * 7919)) in
  let procs = 2 + Prng.int g 2 in
  let fab = Fabric.create ~config:(fast_config ~procs ()) ~seed () in
  ingest fab;
  (* 1–3 SIGKILLs at early turns, while the pipeline is busy. *)
  let kills =
    List.init (1 + Prng.int g 3) (fun _ -> (2 + Prng.int g 12, Prng.int g procs))
  in
  Fabric.set_tick_hook fab
    (Some
       (fun turn ->
         List.iter
           (fun (at, slot) ->
             if turn = at then ignore (Fabric.kill_worker fab slot))
           kills));
  let report = Fabric.run fab in
  Fabric.set_tick_hook fab None;
  check_honesty ~seed report;
  check_accounting ~seed fab report.Fabric.stats;
  let final = recover_to_convergence ~seed fab in
  check_accounting ~seed fab final.Fabric.stats;
  if digest fab <> Lazy.force baseline then
    Alcotest.failf "schedule %d: store did not converge to the failure-free state"
      seed;
  Fabric.shutdown fab

let test_kill_schedules () =
  if posix then
    for seed = 0 to schedules - 1 do
      run_kill_schedule seed
    done

(* {1 Durable fabric: journal round trip} *)

let test_durable_round_trip () =
  if posix then
    with_temp_dir @@ fun dir ->
    Faults.reset_faults ();
    let fab, _ = ok (Fabric.open_durable ~config:(fast_config ()) ~dir ()) in
    ingest fab;
    let report = Fabric.run fab in
    assert report.Fabric.quiescent;
    let d = digest fab in
    Fabric.shutdown fab;
    let fab2, _ = ok (Fabric.open_durable ~config:(fast_config ()) ~dir ()) in
    let pending, dead = Fabric.state_keys fab2 in
    Alcotest.(check bool) "no pending after clean shutdown" true (pending = []);
    Alcotest.(check bool) "no dead letters after clean shutdown" true (dead = []);
    Alcotest.(check bool) "store survives the round trip" true (digest fab2 = d);
    Fabric.shutdown fab2

(* {1 Orchestrator crash schedules}

   The parent process itself dies at an armed fabric crash point
   (journal append, settlement commit, checkpoint protocol step);
   recovery from the journal must land on a state that still converges
   to the failure-free store — a lost delivery would leave the
   pipeline incomplete, a duplicated one would double-apply the
   tf-additive visual-word ops and corrupt the digest. *)

let crash_points =
  [|
    "fabric.route";
    "fabric.done";
    "fabric.settled";
    "fabric.checkpoint.snapshot";
    "fabric.checkpoint.rename";
    "fabric.checkpoint.meta";
    "fabric.checkpoint.commit";
    "fabric.checkpoint.gc";
  |]

let run_crash_schedule seed =
  with_temp_dir @@ fun dir ->
  Faults.reset_faults ();
  let g = Prng.create (0xCAFE + (seed * 31)) in
  let config = fast_config ~procs:2 () in
  let checkpoint_every = 4 + Prng.int g 8 in
  let fab, _ =
    ok (Fabric.open_durable ~config ~seed ~checkpoint_every ~dir ())
  in
  ingest fab;
  let point = crash_points.(Prng.int g (Array.length crash_points)) in
  Faults.arm_crash point ~after:(Prng.int g 25);
  let crashed =
    match Fabric.run fab with
    | _ -> false
    | exception Faults.Crash _ -> true
  in
  Faults.reset_faults ();
  if not crashed then begin
    (* the armed point never fired this schedule — still a clean run *)
    if digest fab <> Lazy.force baseline then
      Alcotest.failf "schedule %d: clean run diverged" seed;
    Fabric.shutdown fab
  end
  else begin
    (* [run] killed the workers and abandoned the journal before
       re-raising; the directory is now exactly a crashed instance. *)
    let fab2, _ = ok (Fabric.open_durable ~config ~seed ~dir ()) in
    reingest_media fab2;
    (match Fabric.dlog fab2 with
    | Some dl ->
      if Fabric.state_keys fab2 <> Dlog.state_keys dl then
        Alcotest.failf "schedule %d: recovered live state diverges from journal"
          seed
    | None -> assert false);
    let final = recover_to_convergence ~seed fab2 in
    check_honesty ~seed final;
    if digest fab2 <> Lazy.force baseline then
      Alcotest.failf
        "schedule %d: post-crash recovery did not converge (point %s)" seed
        point;
    Fabric.shutdown fab2
  end

let test_crash_schedules () =
  if posix then
    for seed = 0 to (schedules / 5) - 1 do
      run_crash_schedule seed
    done

(* {1 Crash mid-redelivery: the exactness acceptance test}

   Five deliveries dead-letter against a down daemon; the daemon
   heals; the orchestrator crashes after journaling the third
   [Fab_redeliver].  Recovery must show exactly three letters pending
   again and two still dead — the union untouched — and draining must
   handle every subject exactly once (the tf-additive visual-word
   write would expose a duplicate). *)

let echo_daemon () =
  Daemon.make ~name:"echo" ~topics:[ "echo.in" ] (fun ctx msg ->
      Store.add_visual_words ctx.Daemon.store ~doc:msg.Bus.subject
        [ ("echoed", 1.0) ];
      [])

let test_crash_mid_redelivery () =
  if posix then
    with_temp_dir @@ fun dir ->
    Faults.reset_faults ();
    let config = fast_config ~procs:2 () in
    let daemon, _heal = Faults.breakable (echo_daemon ()) in
    let fab, _ = ok (Fabric.open_durable ~daemons:[ daemon ] ~config ~dir ()) in
    let ctx = Fabric.ctx fab in
    for i = 0 to 4 do
      Store.register_doc ctx.Daemon.store ~doc:i
        ~url:(Printf.sprintf "echo://%d" i);
      Bus.publish ctx.Daemon.bus { Bus.topic = "echo.in"; subject = i; payload = [] }
    done;
    let report = Fabric.run fab in
    assert report.Fabric.quiescent;
    let _, dead0 = Fabric.state_keys fab in
    Alcotest.(check int) "all five dead-lettered" 5 (List.length dead0);
    Faults.arm_crash "fabric.redeliver" ~after:2;
    (match Fabric.redeliver fab with
    | _ -> Alcotest.fail "redelivery should have crashed"
    | exception Faults.Crash _ -> ());
    Faults.reset_faults ();
    (* the instance dies here: kill its workers, leave the journal as-is *)
    List.iter
      (fun (id, pid, _) ->
        if pid <> None then ignore (Fabric.kill_worker fab id))
      (Fabric.workers fab);
    (match Fabric.dlog fab with Some dl -> Dlog.abandon dl | None -> assert false);
    (* recover with a healed incarnation of the daemon *)
    let daemon2, heal2 = Faults.breakable (echo_daemon ()) in
    let fab2, _ =
      ok (Fabric.open_durable ~daemons:[ daemon2 ] ~config ~dir ())
    in
    heal2 true;
    let pending', dead' = Fabric.state_keys fab2 in
    Alcotest.(check int) "exactly three letters replayed to pending" 3
      (List.length pending');
    Alcotest.(check int) "exactly two letters still dead" 2 (List.length dead');
    let keys =
      List.sort compare
        (pending' @ List.map (fun (n, s, _) -> (n, s)) dead')
    in
    let keys0 = List.sort compare (List.map (fun (n, s, _) -> (n, s)) dead0) in
    Alcotest.(check bool) "no letter lost or duplicated" true (keys = keys0);
    (match Fabric.dlog fab2 with
    | Some dl ->
      Alcotest.(check bool) "live state equals journal state" true
        (Fabric.state_keys fab2 = Dlog.state_keys dl)
    | None -> assert false);
    (* drain the replayed three, then redeliver and drain the rest *)
    let r1 = Fabric.run fab2 in
    assert r1.Fabric.quiescent;
    ignore (Fabric.redeliver fab2);
    let r2 = Fabric.run fab2 in
    assert r2.Fabric.quiescent;
    let pending'', dead'' = Fabric.state_keys fab2 in
    Alcotest.(check bool) "all drained" true (pending'' = [] && dead'' = []);
    let store = (Fabric.ctx fab2).Daemon.store in
    for i = 0 to 4 do
      Alcotest.(check bool)
        (Printf.sprintf "doc %d handled exactly once" i)
        true
        (Store.visual_words store ~doc:i = [ ("echoed", 1.0) ])
    done;
    Fabric.shutdown fab2

(* {1 Idle waits}

   A broken daemon under the default breaker (4 s backoff) leaves its
   backlog to the 2 s TTL.  The fabric sleeps until that deadline: the
   run takes 30-60 reply and deadline wake-ups, where polling every
   20 ms would spend at least 100 turns on the wait alone. *)

let max_break_turns = 100

let test_break_waits_for_deadlines () =
  if posix then begin
    let daemons =
      List.map
        (fun (d : Daemon.t) ->
          if d.Daemon.name = "annotation-indexer" then fst (Faults.breakable d) else d)
        (Mirror_daemon.Standard.all ())
    in
    let config = { (fast_config ()) with Fabric.breaker = Supervisor.default_config } in
    let fab = Fabric.create ~daemons ~config () in
    Fun.protect ~finally:(fun () -> Fabric.shutdown fab) @@ fun () ->
    ingest fab;
    let report = Fabric.run fab in
    Alcotest.(check bool) "quiescent" true report.Fabric.quiescent;
    Alcotest.(check bool) "the broken daemon's backlog was dead-lettered" true
      (List.exists
         (fun (e : Deadletter.entry) -> e.Deadletter.daemon = "annotation-indexer")
         (Fabric.dead_letters fab));
    if report.Fabric.rounds > max_break_turns then
      Alcotest.failf "the run took %d turns (bound %d): the idle loop polls"
        report.Fabric.rounds max_break_turns
  end

let () =
  Alcotest.run "mirror_pchaos"
    [
      ( "pchaos",
        [
          Alcotest.test_case "null schedule" `Quick test_null_schedule;
          Alcotest.test_case "fabric agrees with orchestrator" `Quick
            test_agrees_with_orchestrator;
          Alcotest.test_case "done before death settles" `Quick
            test_done_before_death_settles;
          Alcotest.test_case "kill schedules (slice)" `Quick test_kill_schedules;
          Alcotest.test_case "durable round trip" `Quick test_durable_round_trip;
          Alcotest.test_case "orchestrator crash schedules" `Quick
            test_crash_schedules;
          Alcotest.test_case "crash mid-redelivery is exact" `Quick
            test_crash_mid_redelivery;
          Alcotest.test_case "a --break run wakes on deadlines" `Quick
            test_break_waits_for_deadlines;
        ] );
    ]
