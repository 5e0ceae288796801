(* The repository benchmark: one named workload, fixed seeded work,
   every answer checked, every metric printed by name and unit.

     perfbench.exe --workload serve-mix|scan-large|ingest --seed N
                   --seconds S --trace 0|1 --workdir DIR [--walfs FS]
     perfbench.exe inputs --workload W --seed N --seconds S
     perfbench.exe selftest

   The amount of work is a fixed function of the workload and
   [--seconds] (a request or build count, never a deadline), so a
   slow host takes longer instead of doing less.  With [--trace 0] the
   last stdout line carries the end-to-end metrics, with [--trace 1]
   the per-layer ones; both are printed as readable lines first.  See
   README.md for the workloads, metrics and the layer each one
   watches. *)

module Prng = Mirror_util.Prng
module Trace = Mirror_util.Trace
module Mirror = Mirror_core.Mirror
module Value = Mirror_core.Value
module Parser = Mirror_core.Parser
module Normalize = Mirror_core.Normalize
module Naive = Mirror_core.Naive
module Eval = Mirror_core.Eval
module Storage = Mirror_core.Storage
module Durable = Mirror_store.Durable
module Serve = Mirror_serve.Serve
module Qcache = Mirror_serve.Qcache
module Parkernel = Mirror_bat.Parkernel
module Orchestrator = Mirror_daemon.Orchestrator

let now = Unix.gettimeofday

(* {1 Outcome accounting} *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : metric list;  (* reversed *)
  mutable layer : metric list;  (* reversed *)
}

let outcome () = { attempted = 0; failed = 0; e2e = []; layer = [] }

(* One unit of attempted work: a request, a build or a correctness
   check.  A failure is reported on stderr and counted. *)
let account o ok what =
  o.attempted <- o.attempted + 1;
  if not ok then begin
    o.failed <- o.failed + 1;
    Printf.eprintf "FAILED: %s\n%!" what
  end

let e2e o name value unit_ = o.e2e <- { name; value; unit_ } :: o.e2e
let layer o name value unit_ = o.layer <- { name; value; unit_ } :: o.layer

(* {1 Percentiles} *)

(* Nearest-rank percentile of an ascending array. *)
let rank n p = max 1 (int_of_float (Float.ceil ((p /. 100. *. Float.of_int n) -. 1e-9)))
let percentile sorted p = sorted.(rank (Array.length sorted) p - 1)

(* A percentile is supported when at least ten samples lie beyond it. *)
let supported n p = n > 0 && n - rank n p >= 10
let ladder = [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

let highest_supported n =
  List.fold_left (fun acc p -> if supported n p then Some p else acc) None ladder

let sorted_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of xs) 50.

(* Print a latency sample's p50, p95 and highest supported percentile
   with the sample count; returns (p50, p95) in ms. *)
let latency_report label xs =
  let a = sorted_of xs in
  let n = Array.length a in
  if n = 0 then begin
    Printf.printf "%s: no samples\n" label;
    (0., 0.)
  end
  else begin
    let ms p = 1000. *. percentile a p in
    let top =
      match highest_supported n with
      | Some p -> Printf.sprintf "p%g=%.3f ms" p (ms p)
      | None -> "none supported"
    in
    Printf.printf "%s: n=%d p50=%.3f ms p95=%.3f ms%s; highest supported: %s\n" label n (ms 50.)
      (ms 95.)
      (if supported n 95. then "" else " (p95 UNSUPPORTED)")
      top;
    (ms 50., ms 95.)
  end

(* {1 Runtime probes} *)

let peak_heap_mb () =
  Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

type gc_mark = { minor : float; majors : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; majors = s.Gc.major_collections }

let gc_since m =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words -. m.minor, s.Gc.major_collections - m.majors)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let ok_or_die what = function
  | Ok v -> v
  | Error e ->
    Printf.eprintf "perfbench: %s: %s\n%!" what e;
    exit 2

(* Time [reps] set-ups, keeping only the last; returns it and the
   median set-up time. *)
let repeated_setup reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    (match !last with Some (_, release) -> release () | None -> ());
    last := None;
    Gc.compact ();
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  match !last with Some (v, _) -> (v, median !times) | None -> invalid_arg "repeated_setup"

(* {1 The serve loop shared by serve-mix and scan-large}

   Two closed-loop sessions in lockstep rounds: each round every
   session submits its next request, then the handle is stepped to
   quiescence — what the socket front end does per input burst — and
   each reply is timestamped at the step that produced it.  Only the
   rounds are timed; checks run between them. *)

type served = { req : Gen.request; reply : Serve.reply }

type pass = {
  read_lat : float list;  (* seconds *)
  write_lat : float list;
  requests : int;
  timed : float;  (* seconds inside rounds *)
  round_s : float array;  (* each round's duration *)
  minor_words : float;
  major_collections : int;
  submitted : string list;  (* texts, in submission order *)
}

let step_kind replies =
  List.fold_left
    (fun k (_, (r : Serve.reply)) ->
      match r with
      | Ok (Serve.Executed _) -> "step.commit"
      | Ok (Serve.Value { cached = true; _ }) when k = "step.enqueue" -> "step.hit"
      | Ok (Serve.Value { cached = false; _ }) when k = "step.enqueue" -> "step.miss"
      | _ -> k)
    "step.enqueue" replies

let serve_pass ?spans srv sessions (streams : Gen.request array array) ~after_round =
  let ns = Array.length sessions in
  let rounds = Array.length streams.(0) in
  let read_lat = ref [] and write_lat = ref [] and submitted = ref [] in
  let requests = ref 0 and timed = ref 0. in
  let round_s = Array.make rounds 0. in
  let submit_at = Array.make ns 0. in
  let gc0 = gc_mark () in
  Option.iter (fun sp -> Spans.enter sp "pass") spans;
  for r = 0 to rounds - 1 do
    let served = ref [] in
    let t_round = now () in
    Option.iter (fun sp -> Spans.enter sp "round") spans;
    Array.iteri
      (fun i s ->
        let req = streams.(i).(r) in
        let t = now () in
        let res =
          match req with
          | Gen.Read q -> Serve.submit srv s (Serve.Query q)
          | Gen.Write (src, _) -> Serve.submit srv s (Serve.Exec src)
        in
        submit_at.(i) <- t;
        (match res with
        | Ok rid ->
          Option.iter
            (fun sp -> ignore (Spans.add sp ~rid "serve.submit" ~start:t ~stop:(now ()) : int))
            spans
        | Error e -> served := { req; reply = Error e } :: !served);
        incr requests;
        submitted := Gen.request_text req :: !submitted)
      sessions;
    let rec pump () =
      let t0 = now () in
      if Serve.step srv then begin
        let t1 = now () in
        let replies = ref [] in
        Array.iteri
          (fun i s ->
            List.iter
              (fun (rid, reply) ->
                replies := (rid, reply) :: !replies;
                let lat = t1 -. submit_at.(i) in
                (match streams.(i).(r) with
                | Gen.Read _ -> read_lat := lat :: !read_lat
                | Gen.Write _ -> write_lat := lat :: !write_lat);
                (match spans with
                | Some sp ->
                  let parent =
                    Spans.add sp ~rid ~parent:Spans.no_span "serve.request" ~start:submit_at.(i)
                      ~stop:t1
                  in
                  ignore
                    (Spans.add sp ~rid ~parent "serve.queue_wait" ~start:submit_at.(i)
                       ~stop:(Float.max submit_at.(i) t0)
                      : int)
                | None -> ());
                served := { req = streams.(i).(r); reply } :: !served)
              (Serve.replies s))
          sessions;
        Option.iter
          (fun sp ->
            ignore (Spans.add sp (step_kind !replies) ~start:t0 ~stop:t1 : int))
          spans;
        pump ()
      end
    in
    pump ();
    Option.iter Spans.leave spans;
    round_s.(r) <- now () -. t_round;
    timed := !timed +. round_s.(r);
    after_round (List.rev !served)
  done;
  Option.iter Spans.leave spans;
  let minor_words, major_collections = gc_since gc0 in
  {
    read_lat = !read_lat;
    write_lat = !write_lat;
    requests = !requests;
    timed = !timed;
    round_s;
    minor_words;
    major_collections;
    submitted = List.rev !submitted;
  }

(* Request texts in submission order: round by round, session by
   session. *)
let submission_order (streams : Gen.request array array) =
  List.concat
    (List.init (Array.length streams.(0)) (fun r ->
         List.init (Array.length streams) (fun i -> Gen.request_text streams.(i).(r))))

(* Throughput as the median over consecutive segments of [segment]
   rounds of each segment's requests per second: a host stall of a
   second or two moves a few segments, not the figure. *)
let segment_throughput round_s ~sessions ~segment =
  let n = Array.length round_s / segment in
  median
    (List.init n (fun k ->
         let t = ref 0. in
         for r = k * segment to ((k + 1) * segment) - 1 do
           t := !t +. round_s.(r)
         done;
         Float.of_int (segment * sessions) /. !t))

let open_sessions srv n =
  Array.init n (fun _ ->
      match Serve.open_session srv with
      | Ok s -> s
      | Error e -> ok_or_die "open session" (Error (Serve.error_to_string e)))

(* Account each reply of a round: the request succeeded and, through
   [check], its answer is right. *)
let account_replies o ~check served =
  List.iter
    (fun { req; reply } ->
      match reply with
      | Ok outcome -> check o req outcome
      | Error e ->
        account o false
          (Printf.sprintf "%s -> %s" (Gen.request_text req) (Serve.error_to_string e)))
    served

(* {1 The layer pass: front end, planning and kernel of each query} *)

type layer_acc = {
  mutable queries : int;
  mutable nodes : int;
  mutable evaluated : int;
  mutable memo_hits : int;
  phases : (string, float) Hashtbl.t;  (* Eval phase / operator -> self seconds *)
  mutable execute_total : float;  (* inclusive seconds of the "execute" spans *)
}

(* Each query text is parsed, keyed, then run through [Eval.query
   ~trace]; the trace's phase spans and the per-operator spans beneath
   ["execute"] give the planning and kernel layers' self times. *)
let layer_pass o spans st texts =
  let acc =
    {
      queries = 0;
      nodes = 0;
      evaluated = 0;
      memo_hits = 0;
      phases = Hashtbl.create 64;
      execute_total = 0.;
    }
  in
  Spans.enter spans "layers";
  List.iteri
    (fun rid text ->
      Spans.with_span spans ~rid "query" (fun () ->
          match
            Spans.with_span spans ~rid "parser.parse_expr" (fun () -> Parser.parse_expr text)
          with
          | Error e -> account o false ("parse " ^ text ^ ": " ^ e)
          | Ok expr -> (
            ignore (Spans.with_span spans ~rid "normalize.key" (fun () -> Normalize.key expr));
            let tr = Trace.create () in
            match
              Spans.with_span spans ~rid "eval.query" (fun () -> Eval.query ~trace:tr st expr)
            with
            | Error e -> account o false ("layer pass " ^ text ^ ": " ^ e)
            | Ok r ->
              acc.queries <- acc.queries + 1;
              acc.nodes <- acc.nodes + r.Eval.plan_nodes;
              acc.evaluated <- acc.evaluated + r.Eval.evaluated;
              acc.memo_hits <- acc.memo_hits + r.Eval.memo_hits;
              List.iter
                (fun root ->
                  Trace.fold
                    (fun () (s : Trace.span) ->
                      let prev = Option.value ~default:0. (Hashtbl.find_opt acc.phases s.Trace.name) in
                      Hashtbl.replace acc.phases s.Trace.name (prev +. Trace.self_seconds s);
                      if s.Trace.name = "execute" then
                        acc.execute_total <- acc.execute_total +. s.Trace.dur)
                    () root)
                (Trace.roots tr))))
    texts;
  Spans.leave spans;
  acc

let kernel_ops =
  [
    ("join", "join");
    ("semijoin", "semijoin");
    ("calc2", "calc2");
    ("calc_const", "calc_const");
    ("select_cmp", "select_cmp");
    ("select_bool", "select_bool");
    ("group_aggr", "group_aggr");
    ("aggr_all", "aggr_all");
    ("project", "project");
    ("unique_head", "unique_head");
    ("foreign.contrep_getbl", "foreign:contrep_getbl");
  ]

let report_layers o spans (acc : layer_acc option) =
  let tbl = Spans.aggregate spans in
  let q = match acc with Some a -> Float.of_int (max 1 a.queries) | None -> 1. in
  let phase name =
    match acc with
    | Some a -> 1e6 *. Option.value ~default:0. (Hashtbl.find_opt a.phases name) /. q
    | None -> 0.
  in
  let count f = match acc with Some a -> Float.of_int (f a) /. q | None -> 0. in
  layer o "parser.parse_us" (Spans.mean_self_us tbl "parser.parse_expr") "us";
  layer o "normalize.key_us" (Spans.mean_self_us tbl "normalize.key") "us";
  layer o "typecheck.infer_us" (phase "typecheck") "us";
  layer o "optimize.rewrite_us" (phase "optimize") "us";
  layer o "flatten.compile_us" (phase "flatten.compile") "us";
  layer o "milopt.rewrite_us" (phase "milopt") "us";
  layer o "boundcheck.analyze_us" (phase "boundcheck") "us";
  layer o "plan.nodes_per_query" (count (fun a -> a.nodes)) "count";
  layer o "mil.execute_us"
    (match acc with Some a -> 1e6 *. a.execute_total /. q | None -> 0.)
    "us";
  layer o "eval.reify_us" (phase "execute") "us";
  layer o "mil.evaluated_per_query" (count (fun a -> a.evaluated)) "count";
  layer o "mil.memo_hit_ratio"
    (match acc with
    | Some a when a.evaluated + a.memo_hits > 0 ->
      Float.of_int a.memo_hits /. Float.of_int (a.evaluated + a.memo_hits)
    | _ -> 0.)
    "ratio";
  List.iter
    (fun (metric, span) -> layer o ("mil.op." ^ metric ^ "_us") (phase span) "us")
    kernel_ops

(* Kernel speed-up at two domains over the same sample of queries,
   each timed at one domain and then at two. *)
let speedup_2dom o st texts =
  let time_all () =
    List.fold_left
      (fun acc text ->
        match Parser.parse_expr text with
        | Error _ -> acc
        | Ok e ->
          let t0 = now () in
          (match Eval.query st e with
          | Ok _ -> ()
          | Error err -> account o false ("2-domain sample " ^ text ^ ": " ^ err));
          acc +. (now () -. t0))
      0. texts
  in
  let t1 = time_all () in
  Parkernel.set_domains 2;
  let t2 = Fun.protect ~finally:(fun () -> Parkernel.set_domains 1) time_all in
  if t2 > 0. then t1 /. t2 else 0.

(* {1 Configuration of a run} *)

type config = {
  workload : string;
  seed : int;
  seconds : int;
  traced : bool;
  workdir : string;
  walfs : string;
}

(* Independent generator streams per purpose, all from the seed. *)
let gens seed =
  let g = Prng.create seed in
  let data = Prng.split g in
  let streams = Prng.split g in
  (data, streams)

(* {1 serve-mix} *)

let sm_docs = 200
let sm_preload = 2000
let sm_pool = 64
let sm_sessions = 2
let sm_setup_reps = 15

(* Fresh-store passes of the stream per run. *)
let sm_passes = 2

(* Rounds per second of [--seconds]; each round is one request per
   session.  A floor keeps p95 supported at any length. *)
let sm_rounds seconds = max 200 (470 * seconds)

(* Rounds per throughput segment. *)
let sm_segment = 100

let sm_inputs seed seconds =
  let _, gs = gens seed in
  let pool = Gen.serve_pool gs ~size:sm_pool in
  let blocks = sm_rounds seconds / 10 in
  let streams =
    Array.init sm_sessions (fun _ -> Gen.serve_stream gs ~pool ~docs:sm_docs ~blocks)
  in
  (pool, streams)

let sm_preload_rows seed =
  let gd, _ = gens seed in
  let docs = Gen.doc_rows gd ~n:sm_docs in
  let fb = List.init sm_preload (fun _ -> Gen.feedback gd ~docs:sm_docs) in
  (docs, fb)

type sm_state = { dur : Durable.t; srv : Serve.t; sessions : Serve.session array; dir : string }

let sm_setup cfg k () =
  let dir = Filename.concat cfg.workdir (Printf.sprintf "store-%d" k) in
  rm_rf dir;
  let docs, fb = sm_preload_rows cfg.seed in
  let dur, _ = ok_or_die "open durable store" (Durable.open_ ~dir ()) in
  let m = Durable.mirror dur in
  ignore (ok_or_die "define" (Mirror.exec_program m (Gen.docs_schema ^ Gen.feedback_schema)));
  ignore (ok_or_die "load Docs" (Mirror.load m ~name:"Docs" docs));
  ignore (ok_or_die "load Feedback" (Mirror.load m ~name:"Feedback" (List.map Gen.feedback_value fb)));
  ok_or_die "checkpoint" (Durable.checkpoint dur);
  let srv = Serve.local ~durable:dur m in
  let st = { dur; srv; sessions = open_sessions srv sm_sessions; dir } in
  ( st,
    fun () ->
      Durable.abandon dur;
      rm_rf dir )

type sm_result = {
  p : pass;
  acked : Gen.feedback list;
  user_bytes : int;
  wal_bytes : int;
  appends : int;
  fsyncs : int;
  reopen_ms : float;
  stats : Serve.stats;
}

let value_of_reply = function Serve.Value { value; _ } -> Some value | _ -> None

(* Run one timed serve-mix pass on a fresh set-up, then check it: every
   request succeeded, every pool text on the final version equals the
   naive evaluator, and the store, closed and reopened through
   recovery, certifies and holds exactly the preload plus every
   acknowledged insert. *)
let sm_pass o ?spans (st : sm_state) ~pool ~streams ~preload =
  let acked = ref [] and user_bytes = ref 0 in
  let check o (req : Gen.request) (outcome : Serve.outcome) =
    match (req, outcome) with
    | Gen.Write (src, f), Serve.Executed _ ->
      acked := f :: !acked;
      user_bytes := !user_bytes + String.length src;
      account o true ""
    | Gen.Read _, Serve.Value _ -> account o true ""
    | _ -> account o false ("unexpected reply to " ^ Gen.request_text req)
  in
  let w0 = Durable.wal_stats st.dur in
  Gc.compact ();
  let p = serve_pass ?spans st.srv st.sessions streams ~after_round:(account_replies o ~check) in
  let w1 = Durable.wal_stats st.dur in
  let wal_bytes = (Durable.status st.dur).Durable.log_bytes in
  let stats = Serve.stats st.srv in
  (* the final version answers every pool text like the naive evaluator *)
  let m = Durable.mirror st.dur in
  Array.iter
    (fun text ->
      let s = st.sessions.(0) in
      ignore (Serve.submit st.srv s (Serve.Query text));
      Serve.drain st.srv;
      let got =
        match Serve.replies s with
        | [ (_, Ok outcome) ] -> value_of_reply outcome
        | _ -> None
      in
      let want =
        match Parser.parse_expr text with
        | Ok e -> Some (Naive.eval (Mirror.storage m) e)
        | Error _ -> None
      in
      account o
        (match (got, want) with Some a, Some b -> Value.equal a b | _ -> false)
        ("final-version answer differs from naive: " ^ text))
    pool;
  (* close, reopen through recovery, certify, count the rows *)
  Durable.close st.dur;
  let t0 = now () in
  let reopened = Durable.open_ ~dir:st.dir () in
  let reopen_ms = 1000. *. (now () -. t0) in
  (match reopened with
  | Error e -> account o false ("reopen: " ^ e)
  | Ok (d, _) ->
    account o (Result.is_ok (Durable.certify d)) "recovered store failed certification";
    let rows =
      Option.value ~default:[] (Storage.extent_rows (Durable.storage d) "Feedback")
    in
    let want = List.map Gen.feedback_value (preload @ !acked) in
    let sort = List.sort Value.compare in
    account o
      (List.equal Value.equal (sort rows) (sort want))
      (Printf.sprintf "recovered Feedback holds %d rows, expected %d" (List.length rows)
         (List.length want));
    Durable.close d);
  rm_rf st.dir;
  {
    p;
    acked = !acked;
    user_bytes = !user_bytes;
    wal_bytes;
    appends = w1.Mirror_store.Wal.appends - w0.Mirror_store.Wal.appends;
    fsyncs = w1.Mirror_store.Wal.fsyncs - w0.Mirror_store.Wal.fsyncs;
    reopen_ms;
    stats;
  }

(* {1 scan-large} *)

let sl_docs = 20_000
let sl_sessions = 2
let sl_setup_reps = 3
(* Whole blocks of rounds; 13 blocks are the fewest that give p95 its
   ten samples. *)
let sl_blocks seconds = max 13 (13 * seconds / 10)

(* Rounds per throughput segment: one block. *)
let sl_segment = Gen.scan_block
let sl_rounds seconds = Gen.scan_block * sl_blocks seconds

let sl_inputs seed seconds =
  let _, gs = gens seed in
  Gen.scan_streams gs ~sessions:sl_sessions ~blocks:(sl_blocks seconds)

type sl_state = { mir : Mirror.t; ssrv : Serve.t; ssessions : Serve.session array }

let sl_setup cfg () =
  let gd, _ = gens cfg.seed in
  let m = Mirror.create () in
  ignore (ok_or_die "define" (Mirror.exec_program m Gen.docs_schema));
  ignore (ok_or_die "load Docs" (Mirror.load m ~name:"Docs" (Gen.doc_rows gd ~n:sl_docs)));
  let srv = Serve.local m in
  ({ mir = m; ssrv = srv; ssessions = open_sessions srv sl_sessions }, fun () -> ())

(* A digest of an answer that equal answers share: set elements are
   put in [Value.compare] order first, since [Value.equal] compares
   sets as sorted multisets. *)
let rec canonical = function
  | Value.VSet xs -> Value.VSet (List.sort Value.compare (List.map canonical xs))
  | Value.Tup fs -> Value.Tup (List.map (fun (k, v) -> (k, canonical v)) fs)
  | Value.Xv x -> Value.Xv { x with items = List.map canonical x.items }
  | Value.Atom _ as a -> a

let answer_digest v = Digest.string (Marshal.to_string (canonical v) [ Marshal.No_sharing ])

(* The naive evaluator's answer to every text of the streams, as
   digests; computed once, before any timed pass. *)
let naive_reference storage streams =
  let t0 = now () in
  let reference = Hashtbl.create 512 in
  List.iter
    (fun text ->
      match Parser.parse_expr text with
      | Ok e -> Hashtbl.replace reference text (answer_digest (Naive.eval storage e))
      | Error _ -> ())
    (submission_order streams);
  Printf.printf "naive reference: %d answers in %.3f s\n%!" (Hashtbl.length reference) (now () -. t0);
  reference

(* One timed scan-large pass; between rounds every answer is checked
   against the naive reference. *)
let sl_pass o ?spans (st : sl_state) ~streams ~reference =
  let check o (req : Gen.request) (outcome : Serve.outcome) =
    let text = Gen.request_text req in
    match (value_of_reply outcome, Hashtbl.find_opt reference text) with
    | Some v, Some d ->
      account o (Digest.equal d (answer_digest v)) ("answer differs from naive: " ^ text)
    | _ -> account o false ("unexpected reply to " ^ text)
  in
  Gc.compact ();
  serve_pass ?spans st.ssrv st.ssessions streams ~after_round:(account_replies o ~check)

(* {1 ingest} *)

let in_images = 16
let in_searches = 64
let in_setup_reps = 9
let in_builds seconds = max 7 (8 * seconds / 5)

let in_inputs seed seconds =
  let _, gs = gens seed in
  Array.init (in_builds seconds) (fun _ ->
      let scenes = Gen.scenes gs ~n:in_images in
      let searches = Array.init in_searches (fun _ -> Gen.search_text gs) in
      (scenes, searches))

type in_pass = {
  build_s : float;
  build_rates : float list;  (* images per second of each build *)
  search_lat : float list;
  images : int;
  daemon_cpu : (string, float) Hashtbl.t;
  failures : int;
  rounds : int;
  load_ms : float list;
  iminor : float;
  imajors : int;
  libraries : Mirror.t list;
  searched : string list;
}

let in_pass o ?spans inputs =
  let span ?rid name f = match spans with Some sp -> Spans.with_span sp ?rid name f | None -> f () in
  let daemon_cpu = Hashtbl.create 16 in
  let build_s = ref 0. and lat = ref [] and images = ref 0 and rates = ref [] in
  let failures = ref 0 and rounds = ref 0 and load_ms = ref [] and libs = ref [] in
  let built = ref 0 in
  let searched = ref [] in
  Gc.compact ();
  let gc0 = gc_mark () in
  Array.iter
    (fun ((scenes : Mirror_mm.Synth.scene array), searches) ->
      let m = Mirror.create () in
      let t0 = now () in
      let res = span "mirror.build_image_library" (fun () -> Mirror.build_image_library m ~scenes ()) in
      let dt = now () -. t0 in
      build_s := !build_s +. dt;
      (match res with
      | Error e -> account o false ("build: " ^ e)
      | Ok r ->
        let n = Array.length scenes in
        images := !images + n;
        rates := (Float.of_int n /. dt) :: !rates;
        rounds := !rounds + r.Orchestrator.rounds;
        let cpu = ref 0. in
        List.iter
          (fun (s : Orchestrator.daemon_stats) ->
            cpu := !cpu +. s.Orchestrator.cpu_seconds;
            failures := !failures + s.Orchestrator.failures;
            let prev = Option.value ~default:0. (Hashtbl.find_opt daemon_cpu s.Orchestrator.name) in
            Hashtbl.replace daemon_cpu s.Orchestrator.name (prev +. s.Orchestrator.cpu_seconds))
          r.Orchestrator.stats;
        load_ms := (1000. *. (dt -. !cpu)) :: !load_ms;
        account o
          (r.Orchestrator.dead_letters = [] && r.Orchestrator.degraded = [] && r.Orchestrator.quiescent)
          (Printf.sprintf "build left %d dead letters, %d degraded daemons"
             (List.length r.Orchestrator.dead_letters)
             (List.length r.Orchestrator.degraded));
        account o (Mirror.library_size m = n)
          (Printf.sprintf "library holds %d images, expected %d" (Mirror.library_size m) n));
      (* the build's garbage is collected before the searches are timed *)
      Gc.compact ();
      Array.iteri
        (fun i text ->
          let t0 = now () in
          let res =
            span ~rid:((!built * in_searches) + i) "mirror.search" (fun () ->
                Mirror.search m ~mode:Mirror.Dual text)
          in
          lat := (now () -. t0) :: !lat;
          searched := text :: !searched;
          match res with
          | Ok (_ :: _) -> account o true ""
          | Ok [] -> account o false ("empty ranking for " ^ text)
          | Error e -> account o false ("search " ^ text ^ ": " ^ e))
        searches;
      incr built;
      (* the traced run keeps the libraries for its retrieval layer pass *)
      if spans <> None then libs := m :: !libs)
    inputs;
  let iminor, imajors = gc_since gc0 in
  {
    build_s = !build_s;
    build_rates = !rates;
    search_lat = !lat;
    images = !images;
    daemon_cpu;
    failures = !failures;
    rounds = !rounds;
    load_ms = !load_ms;
    iminor;
    imajors;
    libraries = List.rev !libs;
    searched = List.rev !searched;
  }

(* The standard daemons, in the names the orchestrator reports. *)
let daemon_names =
  List.map
    (fun (d : Mirror_daemon.Daemon.t) -> d.Mirror_daemon.Daemon.name)
    (Mirror_daemon.Standard.all ())

(* Metric names allow letters, digits, '_', '.' and '-': the daemons'
   names ("feature:gabor", "annotation-indexer") map to "feature_gabor",
   "annotation_indexer". *)
let metric_name_of_daemon name = String.map (function ':' | '-' -> '_' | c -> c) name

(* {1 Running a workload} *)

let host_line cfg =
  let d = Durable.default_config in
  Printf.printf
    "host: nproc=%d ocaml=%s wal_fs=%s domains=%d flush=fsync every %d appends, %s, one \
     Durable.sync per group commit\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version cfg.walfs (Parkernel.domains ()) d.Durable.wal.Mirror_store.Wal.fsync_batch
    (if d.Durable.checkpoint_every = 0 then "manual checkpoints"
     else Printf.sprintf "checkpoint every %d records" d.Durable.checkpoint_every)

(* The traced run repeats the untraced pass around a traced one, so
   tracing overhead is measured against untraced passes on both
   sides. *)
let overhead_ratio ~before ~traced ~after = traced /. ((before +. after) /. 2.)

let serve_layer_metrics o spans (stats : Serve.stats option) ~write:(write_p50, write_p95) =
  let tbl = Spans.aggregate spans in
  let stat f = match stats with Some s -> f s | None -> 0 in
  let cache = Option.map (fun s -> s.Serve.cache) stats in
  let mean_ms name =
    match Hashtbl.find_opt tbl name with
    | Some a when a.Spans.calls > 0 -> 1000. *. a.Spans.total /. Float.of_int a.Spans.calls
    | _ -> 0.
  in
  let cstat f = match cache with Some c -> f c | None -> 0 in
  let lookups = cstat (fun c -> c.Qcache.hits + c.Qcache.misses) in
  layer o "serve.queue_wait_ms" (mean_ms "serve.queue_wait") "ms";
  layer o "serve.step_hit_us" (Spans.mean_self_us tbl "step.hit") "us";
  layer o "serve.step_miss_us" (Spans.mean_self_us tbl "step.miss") "us";
  layer o "serve.step_commit_ms" (Spans.mean_self_us tbl "step.commit" /. 1000.) "ms";
  layer o "serve.write_p50_ms" write_p50 "ms";
  layer o "serve.write_p95_ms" write_p95 "ms";
  layer o "serve.refused" (Float.of_int (stat (fun s -> s.Serve.refused))) "count";
  let hit_rate = match cache with Some c -> Qcache.hit_rate c | None -> 0. in
  Printf.printf "qcache.hit_rate %.4f of %d lookups\n" hit_rate lookups;
  layer o "qcache.hit_rate" hit_rate "ratio";
  layer o "qcache.evictions" (Float.of_int (cstat (fun c -> c.Qcache.evictions))) "count";
  let batches = stat (fun s -> s.Serve.batches) in
  layer o "serve.writes_per_batch"
    (if batches > 0 then Float.of_int (stat (fun s -> s.Serve.writes)) /. Float.of_int batches
     else 0.)
    "ratio";
  layer o "version.published" (Float.of_int (stat (fun s -> s.Serve.versions_published))) "count";
  layer o "version.collected" (Float.of_int (stat (fun s -> s.Serve.versions_collected))) "count"

let store_layer_metrics o (r : sm_result option) =
  let per_write f =
    match r with
    | Some r when r.acked <> [] -> f r /. Float.of_int (List.length r.acked)
    | _ -> 0.
  in
  layer o "wal.bytes_per_user_byte"
    (match r with
    | Some r when r.user_bytes > 0 -> Float.of_int r.wal_bytes /. Float.of_int r.user_bytes
    | _ -> 0.)
    "ratio";
  layer o "wal.appends_per_write" (per_write (fun r -> Float.of_int r.appends)) "ratio";
  layer o "wal.fsyncs_per_write" (per_write (fun r -> Float.of_int r.fsyncs)) "ratio";
  layer o "durable.reopen_ms" (match r with Some r -> r.reopen_ms | None -> 0.) "ms"

let media_layer_metrics o (r : in_pass option) =
  List.iter
    (fun name ->
      layer o
        (Printf.sprintf "daemon.%s.ms_per_image" (metric_name_of_daemon name))
        (match r with
        | Some r when r.images > 0 ->
          let cpu = Option.value ~default:0. (Hashtbl.find_opt r.daemon_cpu name) in
          1000. *. cpu /. Float.of_int r.images
        | _ -> 0.)
        "ms")
    daemon_names;
  layer o "daemon.failures" (match r with Some r -> Float.of_int r.failures | None -> 0.) "count";
  layer o "orchestrator.rounds" (match r with Some r -> Float.of_int r.rounds | None -> 0.) "count";
  layer o "mirror.library_load_ms" (match r with Some r -> median r.load_ms | None -> 0.) "ms"

let runtime_layer_metrics o ~ops ~minor ~majors ~ratio =
  layer o "gc.minor_words_per_op" (if ops > 0 then minor /. Float.of_int ops else 0.) "words";
  layer o "gc.major_collections" (Float.of_int majors) "count";
  layer o "trace.overhead_ratio" ratio "ratio"

let retrieval_layer_metrics o spans =
  let tbl = Spans.aggregate spans in
  layer o "thesaurus.lookup_us" (Spans.mean_self_us tbl "mirror.thesaurus_lookup") "us";
  layer o "mirror.rank_by_terms_us" (Spans.mean_self_us tbl "mirror.rank_by_terms") "us"

let print_inputs_digest texts =
  Printf.printf "inputs_digest: %s (%d request texts)\n" (Gen.digest_texts texts) (List.length texts)

let run_serve_mix o cfg =
  let pool, streams = sm_inputs cfg.seed cfg.seconds in
  let _, preload = sm_preload_rows cfg.seed in
  Printf.printf
    "serve-mix: %d Docs, %d preloaded Feedback rows, %d pool texts, %d passes of %d sessions x \
     %d rounds, 10%% inserts, durable store with Durable.default_config, Serve.default_config\n"
    sm_docs sm_preload sm_pool sm_passes sm_sessions (Array.length streams.(0));
  let k = ref 0 in
  let setup reps =
    incr k;
    repeated_setup reps (sm_setup cfg !k)
  in
  let pass ?spans reps =
    let st, setup_s = setup reps in
    (sm_pass o ?spans st ~pool ~streams ~preload, setup_s)
  in
  (* each pass starts from a fresh store, so the log of one pass stays
     the size one pass writes; only the first set-up is repeated *)
  let first, setup_s = pass sm_setup_reps in
  let passes = first :: List.init (sm_passes - 1) (fun _ -> fst (pass 1)) in
  let cat f = List.concat_map f passes in
  let requests = List.fold_left (fun acc r -> acc + r.p.requests) 0 passes in
  let timed = List.fold_left (fun acc r -> acc +. r.p.timed) 0. passes in
  let read_lat = cat (fun r -> r.p.read_lat) and write_lat = cat (fun r -> r.p.write_lat) in
  print_inputs_digest first.p.submitted;
  Printf.printf "requests: %d (%d reads, %d inserts) in %.3f s (%.3f/s over the whole run)\n"
    requests (List.length read_lat) (List.length write_lat) timed
    (Float.of_int requests /. timed);
  let read_p50, read_p95 = latency_report "read latency" read_lat in
  let write_p50, write_p95 = latency_report "write latency" write_lat in
  e2e o "throughput_ops_s"
    (segment_throughput
       (Array.concat (List.map (fun r -> r.p.round_s) passes))
       ~sessions:sm_sessions ~segment:sm_segment)
    "1/s";
  e2e o "read_p50_ms" read_p50 "ms";
  e2e o "read_p95_ms" read_p95 "ms";
  e2e o "setup_s" setup_s "s";
  e2e o "peak_heap_mb" (peak_heap_mb ()) "MB";
  Printf.printf "write_p50_ms %.4f ms\nwrite_p95_ms %.4f ms\n" write_p50 write_p95;
  if cfg.traced then begin
    let spans = Spans.create () in
    let traced, _ = pass ~spans 1 in
    let after, _ = pass 1 in
    let before = List.nth passes (sm_passes - 1) in
    (* the layer pass runs the pool on a freshly loaded store *)
    let st4, release = sm_setup cfg 0 () in
    let storage = Durable.storage st4.dur in
    let acc = layer_pass o spans storage (Array.to_list pool) in
    let speedup = speedup_2dom o storage (Array.to_list pool) in
    release ();
    report_layers o spans (Some acc);
    layer o "parkernel.speedup_2dom" speedup "x";
    serve_layer_metrics o spans (Some traced.stats) ~write:(write_p50, write_p95);
    store_layer_metrics o (Some first);
    media_layer_metrics o None;
    retrieval_layer_metrics o spans;
    runtime_layer_metrics o ~ops:first.p.requests ~minor:first.p.minor_words
      ~majors:first.p.major_collections
      ~ratio:(overhead_ratio ~before:before.p.timed ~traced:traced.p.timed ~after:after.p.timed);
    Some spans
  end
  else None

let run_scan_large o cfg =
  let streams = sl_inputs cfg.seed cfg.seconds in
  Printf.printf
    "scan-large: %d Docs in memory, %d sessions x %d rounds, every text distinct (5 templates \
     in fixed 8-round blocks), Serve.default_config without a store\n"
    sl_docs sl_sessions (Array.length streams.(0));
  let setup () = repeated_setup sl_setup_reps (sl_setup cfg) in
  let st, setup_s = setup () in
  let reference = naive_reference (Mirror.storage st.mir) streams in
  let p = sl_pass o st ~streams ~reference in
  print_inputs_digest p.submitted;
  Printf.printf "requests: %d in %.3f s (%.3f/s over the whole pass)\n" p.requests p.timed
    (Float.of_int p.requests /. p.timed);
  let read_p50, read_p95 = latency_report "read latency" p.read_lat in
  e2e o "throughput_ops_s"
    (segment_throughput p.round_s ~sessions:sl_sessions ~segment:sl_segment)
    "1/s";
  e2e o "read_p50_ms" read_p50 "ms";
  e2e o "read_p95_ms" read_p95 "ms";
  e2e o "setup_s" setup_s "s";
  e2e o "peak_heap_mb" (peak_heap_mb ()) "MB";
  if cfg.traced then begin
    let spans = Spans.create () in
    let st2, _ = setup () in
    let traced = sl_pass o ~spans st2 ~streams ~reference in
    let tstats = Serve.stats st2.ssrv in
    let st3, _ = setup () in
    let after = sl_pass o st3 ~streams ~reference in
    (* a balanced sample: the first ten blocks of the stream *)
    let first_blocks k l = List.filteri (fun i _ -> i < k * Gen.scan_block * sl_sessions) l in
    let texts = first_blocks 5 (submission_order streams) in
    let storage = Mirror.storage st3.mir in
    let acc = layer_pass o spans storage texts in
    let speedup = speedup_2dom o storage (first_blocks 1 texts) in
    report_layers o spans (Some acc);
    layer o "parkernel.speedup_2dom" speedup "x";
    serve_layer_metrics o spans (Some tstats) ~write:(0., 0.);
    store_layer_metrics o None;
    media_layer_metrics o None;
    retrieval_layer_metrics o spans;
    runtime_layer_metrics o ~ops:p.requests ~minor:p.minor_words ~majors:p.major_collections
      ~ratio:(overhead_ratio ~before:p.timed ~traced:traced.timed ~after:after.timed);
    Some spans
  end
  else None

let run_ingest o cfg =
  let inputs_of () = in_inputs cfg.seed cfg.seconds in
  let builds = in_builds cfg.seconds in
  Printf.printf
    "ingest: %d builds x %d synthetic %dx%d scenes through Mirror.build_image_library, %d \
     Dual-mode searches per library\n"
    builds in_images Gen.scene_side Gen.scene_side in_searches;
  let setup () = repeated_setup in_setup_reps (fun () -> (inputs_of (), fun () -> ())) in
  let inputs, setup_s = setup () in
  let r = in_pass o inputs in
  print_inputs_digest r.searched;
  Printf.printf "images: %d in %.3f build-seconds; searches: %d\n" r.images r.build_s
    (List.length r.search_lat);
  let read_p50, read_p95 = latency_report "search latency" r.search_lat in
  e2e o "throughput_ops_s" (median r.build_rates) "1/s";
  e2e o "read_p50_ms" read_p50 "ms";
  e2e o "read_p95_ms" read_p95 "ms";
  e2e o "setup_s" setup_s "s";
  e2e o "peak_heap_mb" (peak_heap_mb ()) "MB";
  if cfg.traced then begin
    let spans = Spans.create () in
    let inputs2, _ = setup () in
    let traced = Spans.with_span spans "pass" (fun () -> in_pass o ~spans inputs2) in
    let inputs3, _ = setup () in
    let after = in_pass o inputs3 in
    (* retrieval layers, per search of the traced pass's libraries *)
    Spans.with_span spans "layers" (fun () ->
        List.iteri
          (fun b m ->
            let _, searches = inputs2.(b) in
            Array.iteri
              (fun i text ->
                let rid = (b * in_searches) + i in
                ignore
                  (Spans.with_span spans ~rid "mirror.thesaurus_lookup" (fun () ->
                       Mirror.thesaurus_lookup m text));
                let terms = Mirror_ir.Tokenize.terms text in
                match
                  Spans.with_span spans ~rid "mirror.rank_by_terms" (fun () ->
                      Mirror.rank_by_terms m ~field:"annotation" terms)
                with
                | Ok _ -> ()
                | Error e -> account o false ("rank_by_terms " ^ text ^ ": " ^ e))
              searches)
          traced.libraries);
    report_layers o spans None;
    layer o "parkernel.speedup_2dom" 0. "x";
    serve_layer_metrics o spans None ~write:(0., 0.);
    store_layer_metrics o None;
    media_layer_metrics o (Some r);
    retrieval_layer_metrics o spans;
    runtime_layer_metrics o ~ops:r.images ~minor:r.iminor ~majors:r.imajors
      ~ratio:(overhead_ratio ~before:r.build_s ~traced:traced.build_s ~after:after.build_s);
    Some spans
  end
  else None

(* {1 Output} *)

let json_metric m =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_

let print_result o ~traced =
  let metrics = List.rev (if traced then o.layer else o.e2e) in
  List.iter
    (fun m -> Printf.printf "%-40s %14.6f %s\n" m.name m.value m.unit_)
    (List.rev o.e2e @ List.rev o.layer);
  Printf.printf "correct: %b, attempted: %d, failed: %d\n" (o.failed = 0) o.attempted o.failed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " (List.map json_metric metrics))

(* {1 Self-test} *)

(* The percentile rule and the generators' determinism, checked
   without running a workload. *)
let selftest () =
  let fails = ref 0 in
  let expect ok what =
    if not ok then begin
      incr fails;
      Printf.printf "selftest FAILED: %s\n" what
    end
  in
  expect (supported 200 95.) "p95 is supported by 200 samples (10 beyond rank 190)";
  expect (not (supported 199 95.)) "p95 is not supported by 199 samples";
  expect (supported 20 50.) "p50 is supported by 20 samples";
  expect (not (supported 19 50.)) "p50 is not supported by 19 samples";
  expect (highest_supported 1000 = Some 99.) "1000 samples support p99 but not p99.9";
  expect (highest_supported 10_000 = Some 99.9) "10000 samples support p99.9";
  expect (highest_supported 5 = None) "5 samples support nothing";
  let sorted = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  expect (percentile sorted 50. = 50. && percentile sorted 95. = 95.) "nearest-rank percentile";
  let texts streams =
    List.concat_map (fun s -> Array.to_list (Array.map Gen.request_text s)) (Array.to_list streams)
  in
  let sm seed = let pool, st = sm_inputs seed 1 in Gen.digest_texts (Array.to_list pool @ texts st) in
  let sl seed = Gen.digest_texts (texts (sl_inputs seed 1)) in
  let docs seed =
    let d, f = sm_preload_rows seed in
    Gen.digest_texts (List.map Value.to_string (d @ List.map Gen.feedback_value f))
  in
  let scenes seed =
    let inputs = in_inputs seed 1 in
    Gen.digest_texts
      (Array.to_list
         (Array.map
            (fun ((sc : Mirror_mm.Synth.scene array), se) ->
              String.concat "|"
                (Array.to_list se
                @ Array.to_list
                    (Array.map
                       (fun (s : Mirror_mm.Synth.scene) ->
                         Digest.to_hex (Digest.string (Marshal.to_string s.Mirror_mm.Synth.image [])))
                       sc)))
            inputs))
  in
  List.iter
    (fun (what, f) ->
      expect (f 7 = f 7) (what ^ ": the same seed gives the same inputs");
      expect (f 7 <> f 8) (what ^ ": another seed gives other inputs"))
    [
      ("serve-mix streams", sm);
      ("scan-large streams", sl);
      ("preload rows", docs);
      ("scenes", scenes);
    ];
  let distinct = List.sort_uniq String.compare (texts (sl_inputs 7 1)) in
  expect (List.length distinct = 2 * sl_rounds 1) "scan-large texts are all distinct";
  if !fails = 0 then print_endline "selftest: ok";
  exit (if !fails = 0 then 0 else 1)

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload serve-mix|scan-large|ingest --seed N --seconds S --trace \
     0|1 --workdir DIR [--walfs FS]\n\
    \       perfbench.exe inputs --workload W --seed N --seconds S\n\
    \       perfbench.exe selftest";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, args =
    match args with
    | ("selftest" | "inputs") as m :: rest -> (m, rest)
    | rest -> ("run", rest)
  in
  if mode = "selftest" then selftest ();
  let tbl = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let cfg =
    {
      workload = get "workload";
      seed = int "seed";
      seconds = max 1 (int "seconds");
      traced = (if mode = "run" then int "trace" = 1 else false);
      workdir = (if mode = "run" then get "workdir" else ".");
      walfs = Option.value ~default:"unknown" (Hashtbl.find_opt tbl "walfs");
    }
  in
  if mode = "inputs" then begin
    (match cfg.workload with
    | "serve-mix" -> print_inputs_digest (submission_order (snd (sm_inputs cfg.seed cfg.seconds)))
    | "scan-large" -> print_inputs_digest (submission_order (sl_inputs cfg.seed cfg.seconds))
    | "ingest" ->
      print_inputs_digest
        (List.concat_map
           (fun (_, s) -> Array.to_list s)
           (Array.to_list (in_inputs cfg.seed cfg.seconds)))
    | _ -> usage ());
    exit 0
  end;
  let run =
    match cfg.workload with
    | "serve-mix" -> run_serve_mix
    | "scan-large" -> run_scan_large
    | "ingest" -> run_ingest
    | _ -> usage ()
  in
  (try Unix.mkdir cfg.workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  host_line cfg;
  Printf.printf "workload=%s seed=%d seconds=%d trace=%d\n%!" cfg.workload cfg.seed cfg.seconds
    (if cfg.traced then 1 else 0);
  let o = outcome () in
  let spans = run o cfg in
  (match spans with
  | Some sp ->
    let name = Printf.sprintf "trace-%s-seed%d.json" cfg.workload cfg.seed in
    let path = Filename.concat cfg.workdir name in
    Spans.write_json sp path;
    Printf.printf "spans: %d written to %s\n" sp.Spans.n path
  | None -> ());
  print_result o ~traced:cfg.traced
