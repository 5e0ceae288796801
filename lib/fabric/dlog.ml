module Wal = Mirror_store.Wal
module Record = Mirror_store.Record
module Fsx = Mirror_util.Fsx
module Crc32 = Mirror_util.Crc32
module Stringx = Mirror_util.Stringx
module Faults = Mirror_daemon.Faults

let ( let* ) = Result.bind

type dead = { route : Record.fab_route; cause : Record.fab_cause; at : float }

(* The journal's materialized view, separable from the writer so
   recovery can replay into it before any log writer exists. *)
type state = {
  pending : (string * int, Record.fab_route) Hashtbl.t;
  dead_tbl : (string * int, dead) Hashtbl.t;
  mutable store_hist : (string * string) list;  (* newest first *)
}

let fresh_state () =
  { pending = Hashtbl.create 64; dead_tbl = Hashtbl.create 16; store_hist = [] }

type t = {
  dir : string;
  config : Wal.config;
  checkpoint_every : int;
  st : state;
  mutable wal : Wal.t;
  mutable since : int;  (* appends since the last checkpoint *)
  mutable batch : Record.t list option;  (* Some acc (reversed) inside {!atomically} *)
  mutable closed : bool;
}

type recovery = { replayed : int; wal_end : Wal.replay_end }

(* Larger fsync batching than the database WAL: the crash model the
   fabric recovers from is orchestrator-process death, and every
   append still reaches the OS synchronously; {!sync} gives the caller
   a group-commit point per event-loop turn. *)
let default_config = { Wal.segment_bytes = 1 lsl 20; fsync_batch = 256 }

(* {1 Layout} — mirrors [Durable]'s recipe: a CHECKPOINT meta file
   with a %crc footer as the commit point, a snapshot file named by
   the LSN it covers, and a wal/ directory of segments for the
   suffix. *)

let meta_file dir = Filename.concat dir "CHECKPOINT"
let wal_dir dir = Filename.concat dir "wal"
let snap_name lsn = Printf.sprintf "snap.%d" lsn

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let meta_body ~snap ~lsn = Printf.sprintf "snap %s\nlsn %d\n" snap lsn

let write_meta dir ~snap ~lsn =
  let body = meta_body ~snap ~lsn in
  let tmp = meta_file dir ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc body;
      Printf.fprintf oc "%%crc %s\n" (Crc32.to_hex (Crc32.string body));
      Fsx.fsync_out oc);
  tmp

let read_meta dir =
  match read_file (meta_file dir) with
  | exception Sys_error e -> Error e
  | src ->
    let rec split_footer body = function
      | [] | [ "" ] -> Error "fabric CHECKPOINT is missing its %crc footer"
      | line :: rest
        when Stringx.starts_with ~prefix:"%crc " line && (rest = [] || rest = [ "" ]) -> (
        let body = String.concat "" (List.rev_map (fun l -> l ^ "\n") body) in
        match Crc32.of_hex (String.trim (String.sub line 5 (String.length line - 5))) with
        | None -> Error "fabric CHECKPOINT has a malformed %crc footer"
        | Some expect ->
          if Crc32.string body <> expect then Error "fabric CHECKPOINT checksum mismatch"
          else Ok body)
      | line :: rest -> split_footer (line :: body) rest
    in
    let* body = split_footer [] (String.split_on_char '\n' src) in
    let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
    let field key =
      let prefix = key ^ " " in
      match List.find_opt (Stringx.starts_with ~prefix) lines with
      | Some l ->
        Ok (String.sub l (String.length prefix) (String.length l - String.length prefix))
      | None -> Error ("fabric CHECKPOINT is missing field " ^ key)
    in
    let* snap = field "snap" in
    let* lsn = field "lsn" in
    (match int_of_string_opt lsn with
    | Some lsn -> Ok (snap, lsn)
    | None -> Error "fabric CHECKPOINT has a non-numeric lsn")

(* {1 State transitions}

   One function interprets a record against the pending/dead maps —
   shared by the live event path and replay, which is what makes
   "recovery reconstructs the state exactly" structural rather than
   hoped-for.  Inconsistent transitions (a dead letter for an unknown
   delivery) mean a corrupt or foreign journal: fail loudly. *)

let rec apply st r =
  match r with
  | Record.Fab_atomic rs ->
    List.fold_left
      (fun acc r ->
        let* () = acc in
        apply st r)
      (Ok ()) rs
  | Record.Fab_route fr ->
    Hashtbl.replace st.pending (fr.Record.daemon, fr.Record.seq) fr;
    Ok ()
  | Record.Fab_done { daemon; seq } ->
    Hashtbl.remove st.pending (daemon, seq);
    Ok ()
  | Record.Fab_dead { daemon; seq; cause; at } -> (
    match Hashtbl.find_opt st.pending (daemon, seq) with
    | Some route ->
      Hashtbl.remove st.pending (daemon, seq);
      Hashtbl.replace st.dead_tbl (daemon, seq) { route; cause; at };
      Ok ()
    | None -> Error (Printf.sprintf "dead letter for unknown delivery #%d @ %s" seq daemon))
  | Record.Fab_redeliver { daemon; seq } -> (
    match Hashtbl.find_opt st.dead_tbl (daemon, seq) with
    | Some d ->
      Hashtbl.remove st.dead_tbl (daemon, seq);
      Hashtbl.replace st.pending (daemon, seq) { d.route with Record.attempts = 0 };
      Ok ()
    | None -> Error (Printf.sprintf "redeliver of unknown dead letter #%d @ %s" seq daemon))
  | Record.Store_op { tag; payload } ->
    st.store_hist <- (tag, payload) :: st.store_hist;
    Ok ()
  | Record.Define _ | Record.Replace _ | Record.Feedback _ ->
    Error "database record in the fabric journal"

(* {1 Checkpointing} *)

let snapshot_records st =
  let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare in
  let store =
    List.rev_map (fun (tag, payload) -> Record.Store_op { tag; payload }) st.store_hist
  in
  let pending =
    List.map (fun k -> Record.Fab_route (Hashtbl.find st.pending k)) (sorted_keys st.pending)
  in
  let dead =
    List.concat_map
      (fun k ->
        let d = Hashtbl.find st.dead_tbl k in
        let daemon, seq = k in
        [
          Record.Fab_route d.route;
          Record.Fab_dead { daemon; seq; cause = d.cause; at = d.at };
        ])
      (sorted_keys st.dead_tbl)
  in
  store @ pending @ dead

(* The commit protocol, step for step the one DESIGN §8a proves out:
   fsynced snapshot, rename, fsynced meta rename (the commit point),
   then GC and a fresh log segment.  Crash points bracket each step so
   the chaos suite can kill the orchestrator inside the protocol. *)
let commit_checkpoint ~dir ~config ~st ~lsn ~old_wal =
  Faults.crash_hit "fabric.checkpoint.begin";
  let snap = snap_name lsn in
  let snap_path = Filename.concat dir snap in
  let tmp = snap_path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun r -> output_bytes oc (Wal.frame (Record.encode r))) (snapshot_records st);
      Fsx.fsync_out oc);
  Faults.crash_hit "fabric.checkpoint.snapshot";
  if Sys.file_exists snap_path then Sys.remove snap_path;
  Sys.rename tmp snap_path;
  Fsx.fsync_dir dir;
  Faults.crash_hit "fabric.checkpoint.rename";
  let meta_tmp = write_meta dir ~snap ~lsn in
  Faults.crash_hit "fabric.checkpoint.meta";
  Sys.rename meta_tmp (meta_file dir);
  Fsx.fsync_dir dir;
  Faults.crash_hit "fabric.checkpoint.commit";
  (match old_wal with
  | Some w -> ( try Wal.close w with Sys_error _ -> ())
  | None -> ());
  Array.iter
    (fun f ->
      if Stringx.starts_with ~prefix:"snap." f && f <> snap then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  List.iter
    (fun (_, path) -> try Sys.remove path with Sys_error _ -> ())
    (Wal.segments ~dir:(wal_dir dir));
  Faults.crash_hit "fabric.checkpoint.gc";
  Wal.create ~config ~dir:(wal_dir dir) ~start_lsn:(lsn + 1) ()

let checkpoint t =
  if t.closed then Error "fabric journal is closed"
  else
    match
      commit_checkpoint ~dir:t.dir ~config:t.config ~st:t.st
        ~lsn:(Wal.next_lsn t.wal - 1) ~old_wal:(Some t.wal)
    with
    | wal ->
      t.wal <- wal;
      t.since <- 0;
      Ok ()
    | exception Sys_error e -> Error e

(* {1 Events} *)

let append t r =
  (match apply t.st r with
  | Ok () -> ()
  | Error e -> invalid_arg ("Dlog: inconsistent event: " ^ e));
  match t.batch with
  | Some acc -> t.batch <- Some (r :: acc)
  | None ->
    let (_ : int) = Wal.append t.wal (Record.encode r) in
    t.since <- t.since + 1;
    if t.checkpoint_every > 0 && t.since >= t.checkpoint_every then
      match checkpoint t with Ok () -> () | Error _ -> ()

(* Run [f] with appends buffered, then commit everything it journaled
   as a single [Fab_atomic] WAL frame: the whole group survives a
   crash or none of it does.  The in-memory view is updated eagerly
   (the caller needs to read its own writes); if [f] raises, the
   journal on disk is untouched and the instance must be treated as
   dead ({!abandon}) — exactly the crash the batching protects, since
   recovery then replays a history without the half-finished group. *)
let atomically t f =
  match t.batch with
  | Some _ -> f ()  (* nested groups flatten into the outer one *)
  | None ->
    t.batch <- Some [];
    let v = f () in
    let acc = match t.batch with Some acc -> List.rev acc | None -> [] in
    t.batch <- None;
    (match acc with
    | [] -> ()
    | [ r ] ->
      let (_ : int) = Wal.append t.wal (Record.encode r) in
      t.since <- t.since + 1
    | rs ->
      let (_ : int) = Wal.append t.wal (Record.encode (Record.Fab_atomic rs)) in
      t.since <- t.since + 1);
    if t.checkpoint_every > 0 && t.since >= t.checkpoint_every then
      (match checkpoint t with Ok () -> () | Error _ -> ());
    v

let store_op t ~tag ~payload = append t (Record.Store_op { tag; payload })

let route t fr =
  append t (Record.Fab_route fr);
  Faults.crash_hit "fabric.route"

let done_ t ~daemon ~seq =
  append t (Record.Fab_done { daemon; seq });
  Faults.crash_hit "fabric.done"

let dead t ~daemon ~seq ~cause ~at =
  append t (Record.Fab_dead { daemon; seq; cause; at });
  Faults.crash_hit "fabric.dead"

let redeliver t ~daemon ~seq =
  append t (Record.Fab_redeliver { daemon; seq });
  Faults.crash_hit "fabric.redeliver"

let sync t = Wal.sync t.wal

(* {1 Open / close} *)

let load_snapshot st path =
  match read_file path with
  | exception Sys_error e -> Error ("fabric snapshot: " ^ e)
  | src ->
    let* frames = Result.map_error (fun e -> "fabric snapshot: " ^ e) (Wal.parse_frames src) in
    List.fold_left
      (fun acc payload ->
        let* () = acc in
        let* r = Result.map_error (fun e -> "fabric snapshot: " ^ e) (Record.decode payload) in
        Result.map_error (fun e -> "fabric snapshot: " ^ e) (apply st r))
      (Ok ()) frames

(* Replay CHECKPOINT + snapshot + log suffix into a fresh state.  A
   torn tail on the last segment is the normal shape of a crash
   mid-append and is dropped; anything else is corruption. *)
let recover_state ~dir =
  let st = fresh_state () in
  let* from_lsn =
    if Sys.file_exists (meta_file dir) then
      let* snap, lsn = read_meta dir in
      let* () = load_snapshot st (Filename.concat dir snap) in
      Ok (lsn + 1)
    else Ok 1
  in
  let apply_err = ref None in
  let replayed = ref 0 in
  let* next_lsn, wal_end =
    Wal.replay ~dir:(wal_dir dir) ~from_lsn ~f:(fun lsn payload ->
        if !apply_err = None then
          match Record.decode payload with
          | Error e -> apply_err := Some (Printf.sprintf "record %d: %s" lsn e)
          | Ok r -> (
            incr replayed;
            match apply st r with
            | Ok () -> ()
            | Error e -> apply_err := Some (Printf.sprintf "record %d: %s" lsn e)))
  in
  let* () = match !apply_err with Some e -> Error e | None -> Ok () in
  let* () =
    match wal_end with
    | Wal.Corrupt msg -> Error ("fabric journal corruption: " ^ msg)
    | Wal.Clean | Wal.Torn _ -> Ok ()
  in
  Ok (st, next_lsn, { replayed = !replayed; wal_end })

let open_ ?(config = default_config) ?(checkpoint_every = 0) ~dir () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let* st, next_lsn, recovery = recover_state ~dir in
  (* Re-checkpoint to a clean prefix: any torn tail is discarded for
     good and the next crash replays from here. *)
  match commit_checkpoint ~dir ~config ~st ~lsn:(next_lsn - 1) ~old_wal:None with
  | exception Sys_error e -> Error ("fabric checkpoint: " ^ e)
  | wal ->
    Ok
      ( { dir; config; checkpoint_every; st; wal; since = 0; batch = None; closed = false },
        recovery )

let close t =
  if not t.closed then begin
    (match checkpoint t with Ok () -> () | Error _ -> ());
    (try Wal.close t.wal with Sys_error _ -> ());
    t.closed <- true
  end

let abandon t =
  if not t.closed then begin
    (try Wal.close t.wal with Sys_error _ -> ());
    t.closed <- true
  end

(* {1 Introspection} *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let pending t = List.map snd (sorted_bindings t.st.pending)

let dead_letters t =
  List.map (fun (_, d) -> (d.route, d.cause, d.at)) (sorted_bindings t.st.dead_tbl)

let store_history t = List.rev t.st.store_hist

let cause_tag = function
  | Record.Failed _ -> "failed"
  | Record.Expired _ -> "expired"
  | Record.Overflow -> "overflow"

let state_keys t =
  ( List.map fst (sorted_bindings t.st.pending),
    List.map
      (fun ((daemon, seq), d) -> (daemon, seq, cause_tag d.cause))
      (sorted_bindings t.st.dead_tbl) )

let inspect ~dir =
  let* st, _next_lsn, _recovery = recover_state ~dir in
  Ok
    ( List.map snd (sorted_bindings st.pending),
      List.map (fun (_, d) -> (d.route, d.cause, d.at)) (sorted_bindings st.dead_tbl) )
