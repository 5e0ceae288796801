(* Seeded input generators.

   Every input a workload hands the program — extent rows, request
   texts, write statements, scenes, search strings — is derived here
   from the run's seed, so the same seed gives the same data and the
   same request streams.  The workloads consume nothing else. *)

module Prng = Mirror_util.Prng
module Value = Mirror_core.Value
module Synth = Mirror_mm.Synth

(* {1 Docs: the paper-shaped text collection} *)

let vocab_size = 150
let word_weights = Array.init vocab_size (fun i -> 1.0 /. Float.of_int (i + 1))
let word g = Printf.sprintf "w%d" (Prng.sample_weighted g word_weights)

(* Uniform rather than Zipf-drawn, so query terms in templates are not
   all the few head words. *)
let any_word g = Printf.sprintf "w%d" (Prng.int g vocab_size)

let docs_schema =
  "define Docs as SET< TUPLE< Atomic<URL>: source, Atomic<int>: year, CONTREP<Text>: \
   annotation > >;"

let doc_rows g ~n =
  List.init n (fun i ->
      let words = List.init (10 + Prng.int g 20) (fun _ -> word g) in
      Value.Tup
        [
          ("source", Value.str (Printf.sprintf "img://%d" i));
          ("year", Value.int (1990 + Prng.int g 12));
          ("annotation", Value.contrep (Mirror_ir.Tokenize.bag_of_words words));
        ])

(* {1 Feedback: the rows serve-mix preloads and inserts} *)

let feedback_schema =
  "define Feedback as SET< TUPLE< Atomic<int>: doc, Atomic<int>: user, Atomic<int>: score > >;"

type feedback = { doc : int; user : int; score : int }

let users = 40
let feedback g ~docs = { doc = Prng.int g docs; user = Prng.int g users; score = 1 + Prng.int g 5 }

let feedback_value f =
  Value.Tup [ ("doc", Value.int f.doc); ("user", Value.int f.user); ("score", Value.int f.score) ]

let feedback_insert f =
  Printf.sprintf "insert into Feedback tuple(doc: %d, user: %d, score: %d);" f.doc f.user
    f.score

(* {1 Request streams} *)

type request = Read of string | Write of string * feedback

let request_text = function Read s -> s | Write (s, _) -> s

(* [draw_distinct seen g make] calls [make g] until it yields a text
   not in [seen], so every text a stream holds is distinct. *)
let rec draw_distinct seen g make =
  let s = make g in
  if Hashtbl.mem seen s then draw_distinct seen g make
  else begin
    Hashtbl.add seen s ();
    s
  end

(* serve-mix reads: six templates over Docs and Feedback.  The pool
   text at Zipf rank [r] always uses template [r mod 6], so the cost
   profile of the hot texts is the same for every seed; only the
   constants in the texts vary. *)
let serve_template g k =
  match k mod 6 with
  | 0 ->
    Printf.sprintf "map[sum(getBL(THIS.annotation, {'%s', '%s'}))](select[THIS.year = %d](Docs))"
      (any_word g) (any_word g) (1990 + Prng.int g 12)
  | 1 -> Printf.sprintf "sum(map[THIS.year](select[THIS.year < %d](Docs)))" (1991 + Prng.int g 11)
  | 2 -> Printf.sprintf "count(select[THIS.doc = %d](Feedback))" (Prng.int g 200)
  | 3 -> Printf.sprintf "sum(map[THIS.score](select[THIS.user = %d](Feedback)))" (Prng.int g users)
  | 4 -> Printf.sprintf "count(select[in('%s', terms(THIS.annotation))](Docs))" (any_word g)
  | _ ->
    Printf.sprintf
      "count(semijoin[THIS1.year = THIS2.score + %d](Docs, select[THIS.user = %d](Feedback)))"
      (1989 + Prng.int g 8) (Prng.int g users)

let serve_pool g ~size =
  let seen = Hashtbl.create (2 * size) in
  Array.init size (fun r -> draw_distinct seen g (fun g -> serve_template g r))

let zipf_weights n = Array.init n (fun i -> 1.0 /. Float.of_int (i + 1))

(* One session's stream: blocks of ten requests with exactly one write
   at a seeded position, nine Zipf-drawn reads from the pool. *)
let serve_stream g ~pool ~docs ~blocks =
  let w = zipf_weights (Array.length pool) in
  Array.concat
    (List.init blocks (fun _ ->
         let wpos = Prng.int g 10 in
         Array.init 10 (fun i ->
             if i = wpos then
               let f = feedback g ~docs in
               Write (feedback_insert f, f)
             else Read pool.(Prng.sample_weighted g w))))

(* scan-large reads: five templates, each request text distinct (so a
   result cache can never hit). *)
let scan_template g k =
  match k with
  | 0 ->
    Printf.sprintf "map[sum(getBL(THIS.annotation, {'%s', '%s'}))](Docs)" (any_word g)
      (any_word g)
  | 1 ->
    (* the offset keeps texts distinct; the cut-off is fixed, so the
       selectivity, and with it the cost, is the same for every text *)
    Printf.sprintf "sum(map[THIS.year + %d](select[THIS.year < 1996](Docs)))" (Prng.int g 100000)
  | 2 -> Printf.sprintf "max(map[THIS.year * %d - %d](Docs))" (2 + Prng.int g 1000) (Prng.int g 1000)
  | 3 ->
    Printf.sprintf "count(select[in('%s', terms(THIS.annotation)) and THIS.year >= %d](Docs))"
      (any_word g) (1990 + Prng.int g 12)
  | _ ->
    (* the document keeps texts distinct; its year always occurs, so
       every semijoin keeps about a twelfth of Docs *)
    Printf.sprintf
      "count(semijoin[THIS1.year = THIS2.year](Docs, select[THIS.source = 'img://%d'](Docs)))"
      (Prng.int g 20000)

(* The templates of one block of rounds, in a fixed order; in a round
   every session runs the same template.  With both sessions of a
   round queueing on one handle, the second session's latency is the
   sum of the two, so each template gives two clusters of latencies.
   Four rank rounds per block put the median in the middle of the
   first session's rank latencies, a cluster of kernel-heavy queries,
   rather than on the gap between two clusters.  The order is the same
   for every seed. *)
let scan_block_templates = [| 0; 2; 0; 1; 0; 4; 0; 3 |]
let scan_block = Array.length scan_block_templates

let scan_streams g ~sessions ~blocks =
  let seen = Hashtbl.create (blocks * scan_block * sessions) in
  let rounds =
    Array.concat
      (List.init blocks (fun _ ->
           Array.map
             (fun k ->
               Array.init sessions (fun _ -> Read (draw_distinct seen g (fun g -> scan_template g k))))
             scan_block_templates))
  in
  Array.init sessions (fun i -> Array.map (fun round -> round.(i)) rounds)

(* {1 Ingest: scenes and search strings} *)

let scene_side = 32

let scenes g ~n = Synth.corpus g ~n ~width:scene_side ~height:scene_side ()

let search_text g =
  let cls = Prng.choose g (Array.of_list Synth.all_classes) in
  let words = Array.of_list (Synth.class_words cls) in
  Printf.sprintf "%s %s" (Prng.choose g words) (Synth.palette_name (Prng.int g Synth.palette_count))

(* {1 Determinism witness} *)

(* A digest over a stream of request texts: the workloads print the
   digest of what they actually submitted, the self-test compares it
   with the digest of what this module generated. *)
let digest_texts texts = Digest.to_hex (Digest.string (String.concat "\n" texts))
