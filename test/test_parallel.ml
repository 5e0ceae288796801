(* The parallel-kernel correctness battery.

   The morsel scheduler's contract is that parallel execution is
   invisible: for any plan the Effcheck verdict licenses, running under
   a domain pool of any size with any morsel size produces a result
   [Bat.equal] (order- and bit-sensitive) to the sequential kernel's.
   This suite attacks that contract from four sides:

   - differential fuzzing: seeded random MIL plans (the shared
     {!Milgen} generator) executed sequentially and under pools of 1, 2
     and 4 domains with randomized morsel sizes — 120 plans per domain
     count in the default test run, 500 when MIRROR_PARALLEL_FULL is
     set (the @bench-smoke alias);
   - the unsafe-operator ladder: a deliberately misbehaving foreign
     operator (undeclared in-place write) must be flagged by Effcheck,
     refused by the scheduler (its dispatch sees no current pool), and
     caught by the runtime effect sanitizer when its declaration lies;
   - merge-order units: every [Bat] operator that keeps a parallel
     path, run under a scheduler at every domain count and
     pathological morsel size, must equal its one-range run (float
     min/max with NaN and signed zeros included); the kernels without
     one (dense and merge joins, float sum/avg/prod folds, grouped
     aggregates) must never reach the pool; and the mixed int/float
     Calc2 regression;
   - morsel edge cases: empty input, single row, morsel size larger
     than the BAT. *)

module Prng = Mirror_util.Prng
module Trace = Mirror_util.Trace
module Atom = Mirror_bat.Atom
module Bat = Mirror_bat.Bat
module Column = Mirror_bat.Column
module Catalog = Mirror_bat.Catalog
module Mil = Mirror_bat.Mil
module Effcheck = Mirror_bat.Effcheck
module Parkernel = Mirror_bat.Parkernel

let full = Sys.getenv_opt "MIRROR_PARALLEL_FULL" <> None
let plans_to_generate = if full then 500 else 120
let domain_counts = [ 1; 2; 4 ]
let morsel_sizes = [| 1; 3; 16; 64; 1000 |]

let failf plan fmt =
  Printf.ksprintf
    (fun msg -> Alcotest.failf "%s\nplan:\n%s" msg (Mil.to_string plan))
    fmt

(* {1 Differential fuzz: parallel == sequential, bit for bit} *)

let test_differential () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let eenv = Effcheck.env () in
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  let g = Prng.create 20260809 in
  let pool = ref (Milgen.seed_pool catalog Milgen.fixture_names) in
  let par_execs = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () ->
      for _ = 1 to plans_to_generate do
        let plan, hty, tty = Milgen.generate g !pool in
        let expected = Mil.exec (Mil.session catalog) plan in
        let safe = (Effcheck.analyze eenv [ plan ]).Effcheck.safe in
        if not (safe plan) then
          failf plan "Effcheck refused a kernel-only plan as parallel-unsafe";
        List.iter
          (fun (d, p) ->
            Parkernel.set_morsel_size (Prng.choose g morsel_sizes);
            let s = Mil.session ~par:{ Mil.pool = p; safe; morsel = (fun _ -> None) } catalog in
            let got = Mil.exec s plan in
            if not (Bat.equal expected got) then
              failf plan "parallel result differs at %d domains (morsel %d)" d
                (Parkernel.morsel_size ());
            par_execs := !par_execs + (Mil.stats s).Mil.par_ops)
          pools;
        if Bat.count expected <= 1000 then
          pool := { Milgen.plan; hty; tty } :: !pool
      done;
      Alcotest.(check bool)
        (Printf.sprintf "the pools actually ran operators in parallel (%d par ops)"
           !par_execs)
        true (!par_execs > 0))

(* {1 The unsafe-operator ladder}

   A test-only foreign operator that mutates its input column in place
   and returns the very same BAT — the two sins (undeclared write,
   undeclared aliasing) the effect layer exists to catch. *)

let clobber_name = "test.clobber"

let clobber_dispatch saw_pool ~name ~args ~meta:_ =
  match (name, args) with
  | n, [ b ] when n = clobber_name ->
    saw_pool := Parkernel.current () <> None;
    (match Bat.tail b with
    | Column.I a when Array.length a > 0 -> a.(0) <- a.(0) + 1
    | _ -> ());
    b
  | _ -> Alcotest.failf "unexpected foreign %s" name

let test_effcheck_flags_unsafe () =
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  let v = Effcheck.analyze (Effcheck.env ()) [ plan ] in
  Alcotest.(check bool) "undeclared foreign raises a hazard" true (v.Effcheck.hazards <> []);
  Alcotest.(check bool) "verdict refuses the node" false (v.Effcheck.safe plan);
  (* the taint spreads over the whole partition: the argument scan the
     clobber can reach is refused too *)
  Alcotest.(check bool) "argument node shares the unsafe partition" false
    (v.Effcheck.safe (Mil.Get "ints"))

let test_scheduler_refuses_unsafe () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
      let saw_pool = ref true in
      (* undeclared: the verdict marks the node unsafe, so the executor
         must dispatch it outside the pool scope *)
      let safe = (Effcheck.analyze (Effcheck.env ()) [ plan ]).Effcheck.safe in
      let s =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog
      in
      ignore (Mil.exec s plan);
      Alcotest.(check bool) "unsafe foreign ran without a pool" false !saw_pool;
      Alcotest.(check int) "no operator went parallel" 0 (Mil.stats s).Mil.par_ops;
      (* the same operator with a (false) pure declaration is licensed:
         the scheduler exposes the pool to its dispatch *)
      let eenv =
        Effcheck.env
          ~foreign:(fun n -> if n = clobber_name then Some Effcheck.pure_foreign else None)
          ()
      in
      let safe = (Effcheck.analyze eenv [ plan ]).Effcheck.safe in
      let s2 =
        Mil.session ~foreign:(clobber_dispatch saw_pool) ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog
      in
      ignore (Mil.exec s2 plan);
      Alcotest.(check bool) "declared-pure foreign sees the pool" true !saw_pool)

let test_sanitizer_catches_forced () =
  (* force the operator through by lying: declare it pure, then let the
     runtime sanitizer compare observed behaviour against the
     declaration *)
  let catalog = Milgen.fixture () in
  let eenv =
    Effcheck.env
      ~foreign:(fun n -> if n = clobber_name then Some Effcheck.pure_foreign else None)
      ()
  in
  let saw_pool = ref false in
  let s = Mil.session ~foreign:(clobber_dispatch saw_pool) catalog in
  let san = Effcheck.sanitizer eenv s in
  let plan = Mil.Foreign { name = clobber_name; args = [ Mil.Get "ints" ]; meta = [] } in
  match Effcheck.exec san plan with
  | exception Effcheck.Violation _ -> ()
  | _ -> (
    (* aliasing slipped by (zero-length exemptions etc.): the in-place
       write must still be caught by the final fingerprint pass *)
    match Effcheck.finish san with
    | exception Effcheck.Violation _ -> ()
    | () -> Alcotest.fail "sanitizer accepted an undeclared in-place write")

(* {1 Merge-order units: every operator with a parallel path}

   Each unit runs one [Bat] operator once over all rows and again under
   a pool's scheduler; the two results must be [Bat.equal] (or raise
   the same exception).  [units n] gives, over inputs of [n] rows, the
   units of every operator that keeps a parallel path and those of the
   kernels that must stay in one range. *)

let scalar v = Bat.of_pairs Atom.TOid (Atom.type_of v) [ (Atom.Oid 0, v) ]

let units n =
  let oids k = Column.O (Array.init k (fun i -> i)) in
  let ints = Bat.make (oids n) (Column.I (Array.init n (fun i -> ((i * 31) mod 113) - 50))) in
  let flts =
    Bat.make (oids n)
      (Column.F (Array.init n (fun i -> Float.of_int (((i * 17) mod 97) - 48) /. 8.0)))
  in
  let bools = Bat.make (oids n) (Column.B (Array.init n (fun i -> i mod 3 <> 1))) in
  let m = (n / 2) + 1 in
  let right heads = Bat.make (Column.O heads) (Column.I (Array.init m (fun j -> j * 10))) in
  (* left keys: repeats, misses and out-of-range values, unsorted *)
  let keys = Bat.make (oids n) (Column.O (Array.init n (fun i -> ((i * 7) mod (m + 3)) - 1))) in
  let sorted_keys = Bat.make (oids n) (Column.O (Array.init n (fun i -> i / 2))) in
  ( [
    ("select_cmp int", fun sched -> Bat.select_cmp ?sched ints Bat.Gt (Atom.Int 0));
    ("select_cmp flt", fun sched -> Bat.select_cmp ?sched flts Bat.Le (Atom.Flt 1.5));
    ( "select_range int",
      fun sched -> Bat.select_range ?sched ints (Atom.Int (-20)) (Atom.Int 20) );
    ("select_bool", fun sched -> Bat.select_bool ?sched bools);
    ("calc1 neg int", fun sched -> Bat.calc1 ?sched Bat.Neg ints);
    ("calc1 sqrt flt", fun sched -> Bat.calc1 ?sched Bat.Sqrt flts);
    ("calc_const add int", fun sched -> Bat.calc_const ?sched Bat.Add ints (Atom.Int 5));
    ( "calc_const cmp flt",
      fun sched -> Bat.calc_const ?sched (Bat.CmpOp Bat.Ge) flts (Atom.Flt 0.0) );
    ("const_calc sub int", fun sched -> Bat.const_calc ?sched Bat.Sub (Atom.Int 5) ints);
    ("const_calc div flt", fun sched -> Bat.const_calc ?sched Bat.Div (Atom.Flt 1.0) flts);
    ("calc2 mul int", fun sched -> Bat.calc2 ?sched Bat.Mul ints ints);
    ("calc2 max flt", fun sched -> Bat.calc2 ?sched Bat.MaxOp flts flts);
    (* duplicate right heads: each probe expands in right order *)
    ( "join hash",
      fun sched -> Bat.join ?sched keys (right (Array.init m (fun j -> (m - j) mod ((m / 2) + 1))))
    );
    ( "join generic",
      fun sched ->
        Bat.join ?sched
          (Bat.make (oids n) (Column.S (Array.init n (fun i -> string_of_int (i mod 5)))))
          (Bat.make
             (Column.S (Array.init 4 (fun j -> string_of_int (3 - j))))
             (Column.I (Array.init 4 (fun j -> j)))) );
    ("aggr_all sum int", fun sched -> scalar (Bat.aggr_all ?sched Bat.Sum ints));
    ("aggr_all min int", fun sched -> scalar (Bat.aggr_all ?sched Bat.Min ints));
    ("aggr_all max int", fun sched -> scalar (Bat.aggr_all ?sched Bat.Max ints));
    ( "aggr_all prod int",
      fun sched ->
        scalar
          (Bat.aggr_all ?sched Bat.Prod
             (Bat.make (oids n) (Column.I (Array.init n (fun i -> (i mod 3) - 1))))) );
    ("aggr_all min flt", fun sched -> scalar (Bat.aggr_all ?sched Bat.Min flts));
    ("aggr_all max flt", fun sched -> scalar (Bat.aggr_all ?sched Bat.Max flts));
  ],
  (* kernels that run in one range under any schedule *)
  [
    ("join dense", fun sched -> Bat.join ?sched keys (right (Array.init m (fun j -> j))));
    ( "join merge",
      fun sched -> Bat.join ?sched sorted_keys (right (Array.init m (fun j -> 2 * j))) );
    ("aggr_all sum flt", fun sched -> scalar (Bat.aggr_all ?sched Bat.Sum flts));
    ("aggr_all avg flt", fun sched -> scalar (Bat.aggr_all ?sched Bat.Avg flts));
  ] )

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* [run] under [pool]'s scheduler equals [run None]; returns whether
   the pool was used. *)
let check_unit pool label run =
  let jobs = ref 0 in
  let expected = outcome (fun () -> run None) in
  let got =
    outcome (fun () -> run (Some (Parkernel.scheduler ~on_run:(fun _ -> incr jobs) pool)))
  in
  (match (expected, got) with
  | Ok e, Ok g when Bat.equal e g -> ()
  | Error e, Error g when e = g -> ()
  | Ok e, Ok g -> Alcotest.failf "%s: schedules differ\n  seq %a\n  par %a" label Bat.pp e Bat.pp g
  | _ -> Alcotest.failf "%s: one schedule raised, the other did not" label);
  !jobs > 0

let with_pools f =
  Parkernel.set_min_rows 0;
  let pools = List.map (fun d -> (d, Parkernel.create d)) domain_counts in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.set_morsel_size 16_384;
      List.iter (fun (_, p) -> Parkernel.shutdown p) pools)
    (fun () -> f pools)

let test_every_operator () =
  with_pools (fun pools ->
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun msz ->
              Parkernel.set_morsel_size msz;
              let par, seq = units 200 in
              let check must (op, run) =
                let label = Printf.sprintf "%s @%dd/m%d" op d msz in
                if check_unit pool label run <> must then
                  Alcotest.failf "%s: %s the pool" label
                    (if must then "never reached" else "reached")
              in
              List.iter (check true) par;
              List.iter (check false) seq)
            [ 1; 7; 1000 ])
        pools)

(* The folds that keep a parallel path merge partials across any
   partition; the ones that do not must never reach the pool, and a
   grouped aggregate runs sequentially even on a licensed 4-domain
   session. *)
let test_merge_order () =
  with_pools (fun pools ->
      let _, pool4 = List.nth pools 2 in
      Parkernel.set_morsel_size 7;
      let flts = Bat.make (Column.O (Array.init 200 (fun i -> i mod 7)))
          (Column.F (Array.init 200 (fun i -> Float.of_int (((i * 17) mod 97) - 48) /. 8.0)))
      in
      List.iter
        (fun aggr ->
          let label = "float fold " ^ Mil.aggr_name aggr in
          if check_unit pool4 label (fun sched -> scalar (Bat.aggr_all ?sched aggr flts)) then
            Alcotest.failf "%s: a non-associative fold reached the pool" label)
        [ Bat.Sum; Bat.Avg; Bat.Prod ];
      let catalog = Milgen.fixture () in
      List.iter
        (fun aggr ->
          let plan = Mil.GroupAggr (aggr, Mil.Get "ints") in
          let safe = (Effcheck.analyze (Effcheck.env ()) [ plan ]).Effcheck.safe in
          let s = Mil.session ~par:{ Mil.pool = pool4; safe; morsel = (fun _ -> None) } catalog in
          let got = Mil.exec s plan in
          Alcotest.(check bool) "group result unchanged" true
            (Bat.equal (Mil.exec (Mil.session catalog) plan) got);
          Alcotest.(check int)
            ("GroupAggr " ^ Mil.aggr_name aggr ^ " records no parallel op")
            0 (Mil.stats s).Mil.par_ops)
        [ Bat.Count; Bat.Sum; Bat.Min; Bat.Max ])

let test_float_specials () =
  with_pools (fun pools ->
      let specials =
        Bat.make
          (Column.O (Array.init 8 (fun i -> i)))
          (Column.F [| 0.0; -0.0; Float.nan; 1.5; Float.infinity; -3.25; Float.nan; 0.5 |])
      in
      let zeros = Bat.make (Column.O [| 0; 1; 2 |]) (Column.F [| -0.0; 0.0; -0.0 |]) in
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun msz ->
              Parkernel.set_morsel_size msz;
              List.iter
                (fun (b, what) ->
                  let unit op run =
                    ignore (check_unit pool (Printf.sprintf "%s %s @%dd/m%d" what op d msz) run)
                  in
                  unit "fold min" (fun sched -> scalar (Bat.aggr_all ?sched Bat.Min b));
                  unit "fold max" (fun sched -> scalar (Bat.aggr_all ?sched Bat.Max b));
                  unit "fold sum" (fun sched -> scalar (Bat.aggr_all ?sched Bat.Sum b));
                  unit "fold avg" (fun sched -> scalar (Bat.aggr_all ?sched Bat.Avg b));
                  unit "select" (fun sched -> Bat.select_cmp ?sched b Bat.Le (Atom.Flt 0.0));
                  unit "calc" (fun sched -> Bat.calc_const ?sched Bat.MinOp b (Atom.Flt 0.0)))
                [ (specials, "NaN/zero"); (zeros, "signed zeros") ])
            [ 1; 2; 7; 1000 ])
        pools;
      (* the 0.0-seeded average keeps the sign rule of its sum *)
      Alcotest.(check bool) "avg of -0.0 is +0.0" true
        (Atom.equal (Atom.Flt 0.0)
           (Bat.aggr_all Bat.Avg (Bat.make (Column.O [| 0 |]) (Column.F [| -0.0 |])))))

(* the PR 3 regression: Calc2 MinOp over an int and a float column
   promotes to float; the parallel kernel has no mixed-type fast path
   and must fall back to the sequential operator, not misclassify *)
let test_mixed_calc2 () =
  Parkernel.set_min_rows 0;
  let catalog = Catalog.create () in
  let n = 64 in
  Catalog.put catalog "i"
    (Bat.make (Column.O (Array.init n (fun i -> i))) (Column.I (Array.init n (fun i -> i - 30))));
  Catalog.put catalog "f"
    (Bat.make
       (Column.O (Array.init n (fun i -> i)))
       (Column.F (Array.init n (fun i -> Float.of_int (40 - i) /. 4.0))));
  let pool = Parkernel.create 4 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.Calc2 (Bat.MinOp, Mil.Get "i", Mil.Get "f") in
      let expected = Mil.exec (Mil.session catalog) plan in
      let safe = (Effcheck.analyze (Effcheck.env ()) [ plan ]).Effcheck.safe in
      let got = Mil.exec (Mil.session ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog) plan in
      Alcotest.(check bool) "mixed int/float Calc2 matches sequential" true
        (Bat.equal expected got))

(* {1 Morsel edge cases} *)

let test_morsel_edges () =
  with_pools (fun pools ->
      List.iter
        (fun (d, pool) ->
          List.iter
            (fun (n, msz, what) ->
              Parkernel.set_morsel_size msz;
              let par, seq = units n in
              List.iter
                (fun (op, run) ->
                  ignore (check_unit pool (Printf.sprintf "%s: %s @%dd" what op d) run))
                (par @ seq))
            [ (0, 4, "empty BAT"); (1, 4, "single row"); (10, 1000, "morsel larger than BAT") ])
        pools;
      (* empty folds keep their sequential contract under a scheduler *)
      let empty = Bat.make (Column.O [||]) (Column.I [||]) in
      let sched = Parkernel.scheduler (snd (List.hd pools)) in
      Alcotest.(check bool) "empty sum is 0" true
        (Atom.equal (Atom.Int 0) (Bat.aggr_all ~sched Bat.Sum empty));
      Alcotest.check_raises "empty min raises"
        (Invalid_argument "Bat.aggr_all: empty input for min/max/avg") (fun () ->
          ignore (Bat.aggr_all ~sched Bat.Min empty)))

(* {1 Observability: stats and trace attributes} *)

let test_stats_and_trace () =
  Parkernel.set_min_rows 0;
  let catalog = Milgen.fixture () in
  let pool = Parkernel.create 2 in
  Fun.protect
    ~finally:(fun () ->
      Parkernel.set_min_rows 2048;
      Parkernel.shutdown pool)
    (fun () ->
      let plan = Mil.SelectCmp (Mil.Get "ints", Bat.Gt, Atom.Int 5) in
      let safe = (Effcheck.analyze (Effcheck.env ()) [ plan ]).Effcheck.safe in
      let tr = Trace.create () in
      let s = Mil.session ~trace:tr ~par:{ Mil.pool; safe; morsel = (fun _ -> None) } catalog in
      ignore (Mil.exec s plan);
      let st = Mil.stats s in
      Alcotest.(check bool) "par_ops counted" true (st.Mil.par_ops > 0);
      Alcotest.(check bool) "par_morsels counted" true (st.Mil.par_morsels > 0);
      let has_par_attr = ref false in
      (match Trace.root tr with
      | None -> Alcotest.fail "no span recorded"
      | Some sp ->
        Trace.fold
          (fun () (s : Trace.span) ->
            if List.mem_assoc "par" s.Trace.attrs then has_par_attr := true)
          () sp);
      Alcotest.(check bool) "span carries the par attribute" true !has_par_attr;
      let t = Parkernel.totals pool in
      Alcotest.(check bool) "pool totals accumulated" true
        (t.Parkernel.t_jobs > 0 && t.Parkernel.t_morsels > 0))

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random plans at 1/2/4 domains, bitwise equal"
               plans_to_generate)
            `Slow test_differential;
        ] );
      ( "unsafe-operator",
        [
          Alcotest.test_case "Effcheck flags the undeclared writer" `Quick
            test_effcheck_flags_unsafe;
          Alcotest.test_case "scheduler refuses the unsafe partition" `Quick
            test_scheduler_refuses_unsafe;
          Alcotest.test_case "sanitizer catches it when forced through" `Quick
            test_sanitizer_catches_forced;
        ] );
      ( "merge-order",
        [
          Alcotest.test_case "every parallel operator matches at 1/2/4 domains" `Quick
            test_every_operator;
          Alcotest.test_case "aggregates are domain-count independent" `Quick
            test_merge_order;
          Alcotest.test_case "float NaN and signed zeros" `Quick test_float_specials;
          Alcotest.test_case "mixed int/float Calc2 falls back" `Quick test_mixed_calc2;
        ] );
      ( "morsels",
        [
          Alcotest.test_case "empty, single-row and oversized morsels" `Quick
            test_morsel_edges;
          Alcotest.test_case "stats and trace attributes" `Quick test_stats_and_trace;
        ] );
    ]
