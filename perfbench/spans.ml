(* In-memory spans for the traced run.

   The benchmark records spans from outside the program, around its
   calls into the program's public functions: each span has a name, a
   start and an end (seconds), its parent span and the id of the
   request it serves.  Spans stay in memory until the run ends and are
   then written out as JSON.  A span's self time is its duration minus
   the durations of its children, which are nested inside it and
   disjoint. *)

type span = { name : string; start : float; stop : float; parent : int; rid : int }

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable open_ : (int * string * float * int) list;  (* index, name, start, rid *)
}

let no_span = -1
let dummy = { name = ""; start = 0.; stop = 0.; parent = no_span; rid = -1 }
let create () = { spans = Array.make 1024 dummy; n = 0; open_ = [] }

(* The span a new span nests under: the innermost open one. *)
let current t = match t.open_ with (i, _, _, _) :: _ -> i | [] -> no_span

let reserve t =
  if t.n = Array.length t.spans then begin
    let bigger = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 bigger 0 t.n;
    t.spans <- bigger
  end;
  let i = t.n in
  t.n <- i + 1;
  i

(* Open a span; its slot is reserved now so children can name it as
   their parent, and filled when it closes. *)
let enter t ?(rid = -1) name =
  let i = reserve t in
  t.open_ <- (i, name, Unix.gettimeofday (), rid) :: t.open_

let leave t =
  match t.open_ with
  | (i, name, start, rid) :: rest ->
    t.open_ <- rest;
    t.spans.(i) <- { name; start; stop = Unix.gettimeofday (); parent = current t; rid }
  | [] -> invalid_arg "Spans.leave: no open span"

let with_span t ?rid name f =
  enter t ?rid name;
  Fun.protect ~finally:(fun () -> leave t) f

(* A span measured by the caller, placed under [parent] (default the
   innermost open span); returns its index. *)
let add t ?(rid = -1) ?parent name ~start ~stop =
  let i = reserve t in
  let parent = match parent with Some p -> p | None -> current t in
  t.spans.(i) <- { name; start; stop; parent; rid };
  i

type agg = { calls : int; total : float; self : float }

(* Per-name count, inclusive and self seconds over every closed span. *)
let aggregate t =
  let child_time = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent <> no_span then
      child_time.(s.parent) <- child_time.(s.parent) +. (s.stop -. s.start)
  done;
  let tbl = Hashtbl.create 64 in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    let dur = s.stop -. s.start in
    let a =
      Option.value ~default:{ calls = 0; total = 0.; self = 0. } (Hashtbl.find_opt tbl s.name)
    in
    Hashtbl.replace tbl s.name
      { calls = a.calls + 1; total = a.total +. dur; self = a.self +. dur -. child_time.(i) }
  done;
  tbl

(* Mean self time per call, in microseconds; 0 when the span never ran. *)
let mean_self_us tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a when a.calls > 0 -> 1e6 *. a.self /. Float.of_int a.calls
  | _ -> 0.

let write_json t path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.spans.(0).start else 0. in
  output_string oc "{\"spans\": [\n";
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "%s{\"id\": %d, \"name\": %S, \"start_us\": %.1f, \"end_us\": %.1f, \"parent\": %d, \
       \"rid\": %d}"
      (if i = 0 then "" else ",\n")
      i s.name
      (1e6 *. (s.start -. t0))
      (1e6 *. (s.stop -. t0))
      s.parent s.rid
  done;
  output_string oc "\n]}\n";
  close_out oc
