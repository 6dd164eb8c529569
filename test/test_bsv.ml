(* Tests for the rule-based language: type checking, conflict analysis,
   the scheduler's one-rule-at-a-time soundness (via random rule programs),
   compilation, options and the IDCT designs. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

open Bsv.Lang

let test_width_check () =
  let bld = builder "w" in
  let r8 = mk_reg bld "a" 8 in
  let bad = read r8 +: cst 4 1 in
  mk_rule bld "r" ~guard:(cst 1 1) [ assign r8 bad ];
  (match mk_module bld with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected width error")

let test_guard_must_be_bool () =
  let bld = builder "w" in
  let r8 = mk_reg bld "a" 8 in
  mk_rule bld "r" ~guard:(read r8) [ assign r8 (cst 8 1) ];
  (match mk_module bld with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected guard error")

let test_conflicts () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "w1" ~guard:(cst 1 1) [ assign a (cst 8 1) ];
  mk_rule bld "w2" ~guard:(cst 1 1) [ assign a (cst 8 2) ];
  mk_rule bld "other" ~guard:(cst 1 1) [ assign b (cst 8 3) ];
  let m = mk_module bld in
  let s = Bsv.Sched.analyze m in
  check bool "write-write conflict" true s.Bsv.Sched.conflict.(0).(1);
  check bool "disjoint targets compatible" false s.Bsv.Sched.conflict.(0).(2)

let test_mutual_rw_conflict () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "ab" ~guard:(cst 1 1) [ assign a (read b) ];
  mk_rule bld "ba" ~guard:(cst 1 1) [ assign b (read a) ];
  let s = Bsv.Sched.analyze (mk_module bld) in
  check bool "swap pair conflicts" true s.Bsv.Sched.conflict.(0).(1)

let test_one_way_rw_compatible () =
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  mk_rule bld "reader" ~guard:(cst 1 1) [ assign b (read a) ];
  mk_rule bld "writer" ~guard:(cst 1 1) [ assign a (cst 8 5) ];
  let s = Bsv.Sched.analyze (mk_module bld) in
  check bool "compatible" false s.Bsv.Sched.conflict.(0).(1);
  check bool "reader precedes writer" true s.Bsv.Sched.precede.(0).(1)

let test_precedence_cycle_broken () =
  (* a->b->c->a read/write chain: pairwise fine, cyclic as a whole. *)
  let bld = builder "c" in
  let a = mk_reg bld "a" 8 in
  let b = mk_reg bld "b" 8 in
  let c = mk_reg bld "c" 8 in
  mk_rule bld "r1" ~guard:(cst 1 1) [ assign b (read a) ];
  mk_rule bld "r2" ~guard:(cst 1 1) [ assign c (read b) ];
  mk_rule bld "r3" ~guard:(cst 1 1) [ assign a (read c) ];
  let m = mk_module bld in
  let s = Bsv.Sched.analyze m in
  let any_conflict =
    s.Bsv.Sched.conflict.(0).(1) || s.Bsv.Sched.conflict.(1).(2)
    || s.Bsv.Sched.conflict.(0).(2)
  in
  check bool "cycle is broken by a conflict" true any_conflict;
  (* and whatever fires must still serialize *)
  let st = Bsv.Semantics.initial_state m in
  match Bsv.Semantics.serializable_step st s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_disjoint_guards_pruning () =
  let bld = builder "d" in
  let phase = mk_reg bld "phase" 2 in
  let x = mk_reg bld "x" 8 in
  mk_rule bld "p0" ~guard:(read phase ==: cst 2 0) [ assign x (cst 8 1) ];
  mk_rule bld "p1" ~guard:(read phase ==: cst 2 1) [ assign x (cst 8 2) ];
  let m = mk_module bld in
  let lazy_sched =
    Bsv.Sched.analyze ~options:{ Bsv.Options.default with Bsv.Options.effort = 0 } m
  in
  let smart = Bsv.Sched.analyze ~options:Bsv.Options.default m in
  check bool "effort 0 sees a conflict" true lazy_sched.Bsv.Sched.conflict.(0).(1);
  check bool "effort 2 discharges it" false smart.Bsv.Sched.conflict.(0).(1)

(* ---------------- shared expression DAGs ---------------- *)

(* x_{i+1} = x_i + x_i: 41 distinct nodes, 2^40 nodes as a tree.  Every
   walk from validation to the netlist must visit the DAG, not the tree. *)
let test_deep_shared_dag () =
  let bld = builder "dag" in
  let x = mk_input bld "x" 48 in
  let r = mk_reg bld "r" 48 in
  let rec double e n = if n = 0 then e else double (e +: e) (n - 1) in
  mk_rule bld "grow" ~guard:(cst 1 1) [ assign r (double x 40) ];
  mk_output bld "o" (read r);
  let m = mk_module bld in
  let sched = Bsv.Sched.analyze m in
  check (Alcotest.list int) "reads nothing" [] (read_set sched.Bsv.Sched.rules.(0));
  let sim = Hw.Sim.create (Bsv.Compile.compile m) in
  let v = 0x1234_5678_9ABC in
  Hw.Sim.set sim "x" v;
  Hw.Sim.step sim;
  check int "x * 2^40 mod 2^48" ((v lsl 40) land ((1 lsl 48) - 1))
    (Hw.Sim.get sim "o")

(* ---------------- random rule programs ---------------- *)

let random_module seed =
  let rng = Random.State.make [| seed |] in
  let bld = builder (Printf.sprintf "rand%d" seed) in
  let regs = Array.init 4 (fun i -> mk_reg bld ~init:i (Printf.sprintf "r%d" i) 8) in
  let rand_expr () =
    let r () = read regs.(Random.State.int rng 4) in
    match Random.State.int rng 4 with
    | 0 -> r ()
    | 1 -> binop Hw.Netlist.Add (r ()) (r ())
    | 2 -> binop Hw.Netlist.Xor (r ()) (cst 8 (Random.State.int rng 256))
    | _ -> mux (binop (Hw.Netlist.Lt Hw.Netlist.Unsigned) (r ()) (r ())) (r ()) (cst 8 7)
  in
  let rand_guard () =
    match Random.State.int rng 3 with
    | 0 -> cst 1 1
    | 1 ->
        binop (Hw.Netlist.Lt Hw.Netlist.Unsigned)
          (read regs.(Random.State.int rng 4))
          (cst 8 (64 + Random.State.int rng 128))
    | _ -> slice (read regs.(Random.State.int rng 4)) 1 0 ==: cst 2 (Random.State.int rng 4)
  in
  for k = 0 to 3 + Random.State.int rng 3 do
    let n_act = 1 + Random.State.int rng 2 in
    (* distinct targets within one rule: a rule is an atomic action *)
    let first = Random.State.int rng 4 in
    let targets =
      if n_act = 1 then [ first ]
      else [ first; (first + 1 + Random.State.int rng 3) mod 4 ]
    in
    let actions = List.map (fun t -> assign regs.(t) (rand_expr ())) targets in
    mk_rule bld (Printf.sprintf "rule%d" k) ~guard:(rand_guard ()) actions
  done;
  Array.iteri (fun i r -> mk_output bld (Printf.sprintf "o%d" i) (read r)) regs;
  mk_module bld

let serializability_prop =
  QCheck.Test.make ~name:"every compiled cycle is serializable" ~count:120
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let sched = Bsv.Sched.analyze m in
      let rec go st n =
        n = 0
        ||
        match Bsv.Semantics.serializable_step st sched with
        | Ok st' -> go st' (n - 1)
        | Error _ -> false
      in
      go (Bsv.Semantics.initial_state m) 20)

let compiled_matches_semantics_prop =
  QCheck.Test.make ~name:"netlist matches parallel semantics" ~count:60
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let circuit, sched = Bsv.Compile.compile_with_schedule m in
      let sim = Hw.Sim.create circuit in
      let rec go st n =
        n = 0
        ||
        let ok =
          List.for_all
            (fun (name, v) ->
              Hw.Sim.get sim name = Hw.Bits.to_int v)
            (Bsv.Semantics.outputs st m)
        in
        ok
        &&
        (Hw.Sim.step sim;
         go (Bsv.Semantics.step_parallel st sched) (n - 1))
      in
      go (Bsv.Semantics.initial_state m) 25)

let options_equivalent_prop =
  QCheck.Test.make ~name:"mux style does not change behaviour" ~count:40
    QCheck.(int_range 0 100000)
    (fun seed ->
      let m = random_module seed in
      let c1 =
        Bsv.Compile.compile
          ~options:{ Bsv.Options.default with Bsv.Options.mux_style = Bsv.Options.Priority }
          m
      in
      let c2 =
        Bsv.Compile.compile
          ~options:{ Bsv.Options.default with Bsv.Options.mux_style = Bsv.Options.One_hot }
          m
      in
      let s1 = Hw.Sim.create c1 and s2 = Hw.Sim.create c2 in
      let ok = ref true in
      for _ = 1 to 25 do
        List.iter
          (fun (name, _) ->
            if Hw.Sim.get s1 name <> Hw.Sim.get s2 name then ok := false)
          c1.Hw.Netlist.outputs;
        Hw.Sim.step s1;
        Hw.Sim.step s2
      done;
      !ok)

(* ---------------- IDCT designs ---------------- *)

let mats n =
  let rng = Axis.Block.Rand.create ~seed:31 () in
  List.init n (fun _ ->
      Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255))

let test_idct_designs () =
  List.iter
    (fun (name, m, expect_lat, expect_per) ->
      let c = Bsv.Idct_bsv.circuit m in
      let inputs = mats 4 in
      let r = Axis.Driver.run c inputs in
      check bool (name ^ " bit-true") true
        (List.for_all2 Axis.Block.equal r.Axis.Driver.outputs
           (List.map Idct.Chenwang.idct inputs));
      check int (name ^ " latency") expect_lat r.Axis.Driver.latency;
      check int (name ^ " periodicity (the BSC bubble)") expect_per
        r.Axis.Driver.periodicity)
    [
      ("initial", Bsv.Idct_bsv.initial_design (), 18, 9);
      ("optimized", Bsv.Idct_bsv.optimized_design (), 26, 9);
    ]

let test_option_sweep_negligible () =
  (* The paper's finding: the 24-option grid barely moves the results. *)
  let m = Bsv.Idct_bsv.optimized_design () in
  let areas =
    List.map
      (fun o -> (Hw.Synth.run (Bsv.Idct_bsv.circuit ~options:o m)).Hw.Synth.area)
      Bsv.Options.all
  in
  let mn = List.fold_left min max_int areas in
  let mx = List.fold_left max 0 areas in
  check bool "area varies by less than 10%" true
    (float_of_int (mx - mn) /. float_of_int mn < 0.10)

(* ---------------- the schedule against the list-based analysis ---------------- *)

(* The conflict analysis as it was before rules carried their read and
   write sets: the sets walked afresh per schedule, intersected with
   [List.exists]/[List.mem].  [Sched.analyze] must give the same matrices
   for every option. *)
let old_analyze (options : Bsv.Options.t) (m : modul) =
  let read_set (ru : rule) =
    let rids = ref [] in
    let visit =
      memo (fun visit e ->
          match e.node with
          | Read r -> rids := r.rid :: !rids
          | Const _ | In _ -> ()
          | Unop (_, a) | Slice (a, _, _) | Uext (a, _) | Sext (a, _) -> visit a
          | Binop (_, a, b) -> visit a; visit b
          | Mux (s, a, b) -> visit s; visit a; visit b)
    in
    visit ru.guard;
    List.iter (fun a -> visit a.value; Option.iter visit a.when_) ru.actions;
    List.sort_uniq compare !rids
  in
  let write_set (ru : rule) =
    List.sort_uniq compare (List.map (fun a -> a.target.rid) ru.actions)
  in
  let intersects a b = List.exists (fun x -> List.mem x b) a in
  let rec guard_facts e =
    match e.node with
    | Binop (Hw.Netlist.And, a, b) -> guard_facts a @ guard_facts b
    | Binop (Hw.Netlist.Eq, { node = Read r; _ }, { node = Const k; _ })
    | Binop (Hw.Netlist.Eq, { node = Const k; _ }, { node = Read r; _ }) ->
        [ (r.rid, k) ]
    | _ -> []
  in
  let disjoint (r1 : rule) (r2 : rule) =
    List.exists
      (fun (rid, k1) ->
        List.exists
          (fun (rid', k2) -> rid = rid' && not (Hw.Bits.equal k1 k2))
          (guard_facts r2.guard))
      (guard_facts r1.guard)
  in
  let rules =
    Array.of_list
      (match options.urgency with
      | Bsv.Options.Declared -> m.rules
      | Bsv.Options.Reversed -> List.rev m.rules)
  in
  let n = Array.length rules in
  let reads = Array.map read_set rules and writes = Array.map write_set rules in
  let conflict = Array.make_matrix n n false in
  let precede = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (options.effort >= 2 && disjoint rules.(i) rules.(j)) then begin
        let ww = intersects writes.(i) writes.(j) in
        let i_reads_j = intersects reads.(i) writes.(j) in
        let j_reads_i = intersects reads.(j) writes.(i) in
        if ww || (i_reads_j && j_reads_i) then begin
          conflict.(i).(j) <- true;
          conflict.(j).(i) <- true
        end
        else begin
          if i_reads_j then precede.(i).(j) <- true;
          if j_reads_i then precede.(j).(i) <- true
        end
      end
    done
  done;
  if options.effort >= 1 then begin
    let rec refine () =
      let color = Array.make n 0 and cycle_edge = ref None in
      let rec dfs u =
        color.(u) <- 1;
        for v = 0 to n - 1 do
          if !cycle_edge = None && precede.(u).(v) && not conflict.(u).(v) then
            if color.(v) = 1 then cycle_edge := Some (u, v)
            else if color.(v) = 0 then dfs v
        done;
        color.(u) <- 2
      in
      for u = 0 to n - 1 do
        if color.(u) = 0 && !cycle_edge = None then dfs u
      done;
      match !cycle_edge with
      | Some (a, b) ->
          conflict.(a).(b) <- true;
          conflict.(b).(a) <- true;
          precede.(a).(b) <- false;
          precede.(b).(a) <- false;
          refine ()
      | None -> ()
    in
    refine ()
  end;
  (conflict, precede)

let test_sched_matches_list_analysis () =
  let matrix = Alcotest.(array (array bool)) in
  List.iter
    (fun (what, m) ->
      List.iter
        (fun o ->
          let s = Bsv.Sched.analyze ~options:o m and conflict, precede = old_analyze o m in
          let name = what ^ " " ^ Bsv.Options.describe o in
          check matrix (name ^ " conflict") conflict s.Bsv.Sched.conflict;
          check matrix (name ^ " precede") precede s.Bsv.Sched.precede)
        Bsv.Options.all)
    (("initial", Bsv.Idct_bsv.initial_design ())
    :: ("optimized", Bsv.Idct_bsv.optimized_design ())
    :: List.init 40 (fun seed -> (Printf.sprintf "random %d" seed, random_module seed)))

let () =
  Alcotest.run "bsv"
    [
      ( "lang",
        [
          Alcotest.test_case "width check" `Quick test_width_check;
          Alcotest.test_case "guard must be bool" `Quick test_guard_must_be_bool;
          Alcotest.test_case "deep shared DAG compiles in linear time" `Quick
            test_deep_shared_dag;
        ] );
      ( "sched",
        [
          Alcotest.test_case "write-write conflicts" `Quick test_conflicts;
          Alcotest.test_case "mutual read-write" `Quick test_mutual_rw_conflict;
          Alcotest.test_case "one-way read-write" `Quick test_one_way_rw_compatible;
          Alcotest.test_case "precedence cycle broken" `Quick test_precedence_cycle_broken;
          Alcotest.test_case "guard disjointness" `Quick test_disjoint_guards_pruning;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [ serializability_prop; compiled_matches_semantics_prop; options_equivalent_prop ] );
      ( "idct",
        [
          Alcotest.test_case "designs bit-true with paper timing" `Slow test_idct_designs;
          Alcotest.test_case "options negligible (paper IV-B)" `Slow test_option_sweep_negligible;
        ] );
      ( "sched-sets",
        [
          Alcotest.test_case "analyze matches the list-based analysis" `Quick
            test_sched_matches_list_analysis;
        ] );
    ]
