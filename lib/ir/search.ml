module Bat = Mirror_bat.Bat
module Atom = Mirror_bat.Atom
module Column = Mirror_bat.Column

type hit = { doc : int; score : float }

let belief_oracle index ~doc term =
  let sp = Index.space index in
  match Vocab.find (Space.vocab sp) term with
  | None -> Belief.default_belief
  | Some id ->
    let tf = Index.doc_tf index ~doc ~term in
    Belief.belief ~tf ~df:(Space.df sp id) ~ndocs:(Space.ndocs sp)
      ~doclen:(Space.doc_len sp doc) ~avg_doclen:(Space.avg_doc_len sp)

let run index ?limit net =
  let hits =
    List.map
      (fun doc -> { doc; score = Querynet.eval (belief_oracle index ~doc) net })
      (Index.docs index)
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare b.score a.score in
        if c <> 0 then c else Int.compare a.doc b.doc)
      hits
  in
  match limit with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let run_indexed index ?limit net =
  (* candidate generation from the inverted file: only documents that
     contain at least one query term can score differently from the
     all-defaults belief, so everything else is scored as a block *)
  let default_score = Querynet.eval (fun _ -> Belief.default_belief) net in
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun (term, _) ->
      List.iter (fun (doc, _) -> Hashtbl.replace candidates doc ()) (Index.postings index term))
    (Querynet.terms net);
  let hits =
    List.map
      (fun doc ->
        if Hashtbl.mem candidates doc then
          { doc; score = Querynet.eval (belief_oracle index ~doc) net }
        else { doc; score = default_score })
      (Index.docs index)
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare b.score a.score in
        if c <> 0 then c else Int.compare a.doc b.doc)
      hits
  in
  match limit with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

(* {1 Shared machinery for the physical belief operators}

   Per-term resolution: idf is a per-term constant; term frequencies
   come from the space's inverted index when the occurrence BATs are
   physically the indexed base representation, and from a single
   narrowed occurrence scan otherwise.  When the context oids form a
   dense window, per-context state lives in flat arrays. *)

type ctx_window = { base : int; width : int; dense : bool }

let window_of dom_heads =
  let n = Array.length dom_heads in
  let min_ctx = ref max_int and max_ctx = ref min_int in
  Array.iter
    (fun c ->
      if c < !min_ctx then min_ctx := c;
      if c > !max_ctx then max_ctx := c)
    dom_heads;
  let dense = n > 0 && !max_ctx - !min_ctx < (4 * n) + 64 in
  { base = !min_ctx; width = (if n = 0 then 0 else !max_ctx - !min_ctx + 1); dense }

let in_window w c = w.dense && c >= w.base && c - w.base < w.width

(* (idf, tf_at) per distinct term *)
let term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window =
  let voc = Space.vocab space in
  let ndocs = Space.ndocs space in
  let term_heads = Column.oid_exn (Bat.head occ_term) in
  let ctx_heads = Column.oid_exn (Bat.head occ_ctx) in
  let tf_heads = Column.oid_exn (Bat.head occ_tf) in
  let postings =
    if term_heads == ctx_heads && term_heads == tf_heads then
      Space.index space ~heads:term_heads
    else None
  in
  let slow_tf =
    lazy
      (let term_tails =
         match Bat.tail occ_term with
         | Column.S a -> a
         | _ -> invalid_arg "belief operator: term column"
       in
       let interesting = Hashtbl.create 64 in
       Array.iteri
         (fun i occ ->
           if Hashtbl.mem distinct term_tails.(i) then
             Hashtbl.replace interesting occ term_tails.(i))
         term_heads;
       let tf_tails = Column.float_exn (Bat.tail occ_tf) in
       let tf_of = Hashtbl.create (Hashtbl.length interesting) in
       Array.iteri
         (fun i occ ->
           if Hashtbl.mem interesting occ then Hashtbl.replace tf_of occ tf_tails.(i))
         tf_heads;
       let ctx_tails = Column.oid_exn (Bat.tail occ_ctx) in
       let tf_ctx_term = Hashtbl.create (Hashtbl.length interesting) in
       Array.iteri
         (fun i occ ->
           match Hashtbl.find_opt interesting occ with
           | None -> ()
           | Some term ->
             let tf = Option.value ~default:0.0 (Hashtbl.find_opt tf_of occ) in
             let key = (ctx_tails.(i), term) in
             let prev = Option.value ~default:0.0 (Hashtbl.find_opt tf_ctx_term key) in
             Hashtbl.replace tf_ctx_term key (prev +. tf))
         ctx_heads;
       tf_ctx_term)
  in
  let entries = Hashtbl.create 16 in
  Hashtbl.iter
    (fun term () ->
      let idf =
        match Vocab.find voc term with
        | None -> 0.0
        | Some id -> Belief.idf_part ~df:(Space.df space id) ~ndocs
      in
      let tf_at =
        match postings with
        | Some idx -> (
          match Hashtbl.find_opt idx term with
          | None -> fun _ -> 0.0
          | Some per_ctx ->
            if window.dense then begin
              let arr = Array.make window.width 0.0 in
              Hashtbl.iter
                (fun c tf -> if in_window window c then arr.(c - window.base) <- tf)
                per_ctx;
              fun c -> if in_window window c then arr.(c - window.base) else 0.0
            end
            else fun c -> Option.value ~default:0.0 (Hashtbl.find_opt per_ctx c))
        | None ->
          let tbl = Lazy.force slow_tf in
          fun c -> Option.value ~default:0.0 (Hashtbl.find_opt tbl (c, term))
      in
      Hashtbl.replace entries term (idf, tf_at))
    distinct;
  entries

let doclen_at ~len ~window =
  let len_heads = Column.oid_exn (Bat.head len) in
  let len_tails = Column.float_exn (Bat.tail len) in
  if window.dense then begin
    let arr = Array.make window.width 0.0 in
    Array.iteri
      (fun i c -> if in_window window c then arr.(c - window.base) <- len_tails.(i))
      len_heads;
    fun c -> if in_window window c then arr.(c - window.base) else 0.0
  end
  else begin
    let tbl = Hashtbl.create (Array.length len_heads) in
    Array.iteri (fun i c -> Hashtbl.replace tbl c len_tails.(i)) len_heads;
    fun c -> Option.value ~default:0.0 (Hashtbl.find_opt tbl c)
  end

let getbl_pairs ~space ~occ_ctx ~occ_term ~occ_tf ~len ~dom ~qlink ~qval =
  let dom_heads = Column.oid_exn (Bat.head dom) in
  let window = window_of dom_heads in
  (* distinct query terms *)
  let qval_heads = Column.oid_exn (Bat.head qval) in
  let qval_tails =
    match Bat.tail qval with Column.S a -> a | _ -> invalid_arg "getbl: query column"
  in
  let term_name_of_qelem = Hashtbl.create (Array.length qval_heads) in
  let distinct = Hashtbl.create 16 in
  Array.iteri
    (fun i qelem ->
      Hashtbl.replace term_name_of_qelem qelem qval_tails.(i);
      Hashtbl.replace distinct qval_tails.(i) ())
    qval_heads;
  let entry_of_term = term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window in
  (* per-context query entry lists, in qlink row order.  The common
     case — a compiled query literal — produces qlink and qval rows
     that are positionally aligned (same fresh oid sequence), so the
     per-qelem indirection disappears entirely. *)
  let qlink_heads = Column.oid_exn (Bat.head qlink) in
  let qlink_tails = Column.oid_exn (Bat.tail qlink) in
  let aligned =
    Array.length qlink_heads = Array.length qval_heads
    && (qlink_heads == qval_heads
       ||
       let ok = ref true in
       let i = ref 0 in
       while !ok && !i < Array.length qlink_heads do
         if qlink_heads.(!i) <> qval_heads.(!i) then ok := false;
         incr i
       done;
       !ok)
  in
  let entry_at =
    if aligned then fun i -> Hashtbl.find_opt entry_of_term qval_tails.(i)
    else begin
      let entry_of_qelem = Hashtbl.create (Hashtbl.length term_name_of_qelem) in
      Hashtbl.iter
        (fun qelem term ->
          Hashtbl.replace entry_of_qelem qelem (Hashtbl.find entry_of_term term))
        term_name_of_qelem;
      fun i -> Hashtbl.find_opt entry_of_qelem qlink_heads.(i)
    end
  in
  let queries_dense = if window.dense then Array.make window.width [] else [||] in
  let queries_tbl = Hashtbl.create (if window.dense then 1 else 64) in
  for i = Array.length qlink_heads - 1 downto 0 do
    match entry_at i with
    | None -> ()
    | Some entry ->
      let c = qlink_tails.(i) in
      if in_window window c then
        queries_dense.(c - window.base) <- entry :: queries_dense.(c - window.base)
      else if not window.dense then
        Hashtbl.replace queries_tbl c
          (entry :: Option.value ~default:[] (Hashtbl.find_opt queries_tbl c))
  done;
  let query_at c =
    if window.dense then (if in_window window c then queries_dense.(c - window.base) else [])
    else Option.value ~default:[] (Hashtbl.find_opt queries_tbl c)
  in
  let len_at = doclen_at ~len ~window in
  let avg = Space.avg_doc_len space in
  (* scoring is a pure map over contexts: every table the closures
     above consult is fully built (the slow-tf lazy is forced inside
     [term_entries]) and read-only from here on, so when the executor
     runs this operator under a domain pool the context scan morsels
     across domains, each range building private columns that are
     concatenated in morsel order — bitwise the sequential output *)
  let score_range lo hi =
    let ctxb = Column.Builder.create Atom.TOid in
    let belb = Column.Builder.create Atom.TFlt in
    for k = lo to hi - 1 do
      let c = dom_heads.(k) in
      let doclen = len_at c in
      List.iter
        (fun (idf, tf_at) ->
          let tf_part = Belief.tf_part ~tf:(tf_at c) ~doclen ~avg_doclen:avg in
          let b = Belief.default_belief +. (Belief.belief_weight *. tf_part *. idf) in
          Column.Builder.add_oid ctxb c;
          Column.Builder.add_float belb b)
        (query_at c)
    done;
    ( Column.oid_exn (Column.Builder.finish ctxb),
      Column.float_exn (Column.Builder.finish belb) )
  in
  let n = Array.length dom_heads in
  match Mirror_bat.Parkernel.current () with
  | Some pool ->
    let parts = Array.to_list ((Mirror_bat.Parkernel.scheduler pool).Bat.map n score_range) in
    Bat.make
      (Column.O (Array.concat (List.map fst parts)))
      (Column.F (Array.concat (List.map snd parts)))
  | None ->
    let ctxs, bels = score_range 0 n in
    Bat.make (Column.O ctxs) (Column.F bels)

let getblnet_pairs ~space ~net ~occ_ctx ~occ_term ~occ_tf ~len ~dom =
  let dom_heads = Column.oid_exn (Bat.head dom) in
  let window = window_of dom_heads in
  let distinct = Hashtbl.create 16 in
  List.iter (fun (term, _) -> Hashtbl.replace distinct term ()) (Querynet.terms net);
  let entry_of_term = term_entries ~space ~distinct ~occ_ctx ~occ_term ~occ_tf ~window in
  let len_at = doclen_at ~len ~window in
  let avg = Space.avg_doc_len space in
  let ctxb = Column.Builder.create Atom.TOid in
  let belb = Column.Builder.create Atom.TFlt in
  Array.iter
    (fun c ->
      let doclen = len_at c in
      let oracle term =
        match Hashtbl.find_opt entry_of_term term with
        | None -> Belief.default_belief
        | Some (idf, tf_at) ->
          let tf_part = Belief.tf_part ~tf:(tf_at c) ~doclen ~avg_doclen:avg in
          Belief.default_belief +. (Belief.belief_weight *. tf_part *. idf)
      in
      Column.Builder.add_oid ctxb c;
      Column.Builder.add_float belb (Querynet.eval oracle net))
    dom_heads;
  Bat.make (Column.Builder.finish ctxb) (Column.Builder.finish belb)
