(* The kernel registration table (DESIGN.md §15).

   Invariants pinned here:
   - kernel identities are sound: spec_names unique, CLI aliases
     disjoint, per-kernel tool inventories duplicate-free;
   - every registered extension design is bit-true against its kernel's
     golden reference (the same compliance procedure [hlsvhc comply]
     runs, at a small block count);
   - measurement cache keys are prefixed by the kernel's spec_name, so
     per-kernel store entries can never collide;
   - a warm persistent store serves a non-IDCT kernel with zero flow
     executions (proved by arming a crash fault that would abort any
     real execution);
   - trace spans carry the kernel-qualified design identity, so
     mixed-kernel traces stay attributable. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let non_idct =
  List.filter (fun k -> Core.Kernel.name k <> "idct") Core.Kernel.all

(* ---------------- identity invariants ---------------- *)

let test_registry_invariants () =
  let names = List.map Core.Kernel.name Core.Kernel.all in
  check int "spec_names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* an alias resolves to exactly one kernel *)
  let aliases =
    List.concat_map (fun k -> k.Core.Kernel.aliases) Core.Kernel.all
  in
  check int "aliases disjoint across kernels"
    (List.length aliases)
    (List.length (List.sort_uniq compare aliases));
  List.iter
    (fun k ->
      let tools = Core.Kernel.tools k in
      check int
        (Core.Kernel.name k ^ " inventory tools unique")
        (List.length tools)
        (List.length (List.sort_uniq compare tools)))
    Core.Kernel.all;
  (* every alias parses back to its own kernel; lookups are
     case-insensitive *)
  List.iter
    (fun k ->
      List.iter
        (fun a ->
          match Core.Kernel.parse_kernel (String.uppercase_ascii a) with
          | Some k' ->
              check string ("alias " ^ a) (Core.Kernel.name k)
                (Core.Kernel.name k')
          | None -> Alcotest.failf "alias %s does not parse" a)
        k.Core.Kernel.aliases)
    Core.Kernel.all;
  check bool "unknown kernel rejected" true
    (Core.Kernel.parse_kernel "nonesuch" = None)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_unknown_msg () =
  let msg = Core.Kernel.unknown_kernel_msg "nonesuch" in
  List.iter
    (fun k ->
      let alias = List.hd k.Core.Kernel.aliases in
      check bool ("diagnostic lists " ^ alias) true (contains ~needle:alias msg))
    Core.Kernel.all;
  check bool "diagnostic quotes the bad name" true
    (contains ~needle:"nonesuch" msg)

(* ---------------- functional correctness ---------------- *)

(* Every registered extension design must be bit-true against its
   kernel's reference — the same [spec.comply] procedure the comply
   artifact runs, at a test-sized block count. *)
let test_designs_bit_true () =
  List.iter
    (fun k ->
      let spec = Core.Kernel.spec k in
      List.iter
        (fun d ->
          check bool
            (Printf.sprintf "%s %s bit-true" (Core.Kernel.name k)
               (Core.Flow.span_key d))
            true
            (Core.Evaluate.check_compliance ~blocks:3 ~spec d))
        (Core.Kernel.all_designs k))
    non_idct

(* ---------------- cache-key discipline ---------------- *)

let test_store_keys_disjoint () =
  let keys k =
    let spec = Core.Kernel.spec k in
    List.map
      (fun d -> Core.Evaluate.measure_key ~matrices:2 ~spec d)
      (Core.Kernel.all_designs k)
  in
  List.iter
    (fun k ->
      let prefix = Core.Kernel.name k ^ "/" in
      let plen = String.length prefix in
      List.iter
        (fun key ->
          check bool (key ^ " carries kernel prefix") true
            (String.length key > plen && String.sub key 0 plen = prefix))
        (keys k))
    Core.Kernel.all;
  let rec pairs = function
    | [] -> []
    | k :: rest -> List.map (fun k' -> (k, k')) rest @ pairs rest
  in
  List.iter
    (fun (a, b) ->
      let ka = keys a and kb = keys b in
      List.iter
        (fun key ->
          check bool
            (Printf.sprintf "%s key not in %s" (Core.Kernel.name a)
               (Core.Kernel.name b))
            false (List.mem key kb))
        ka)
    (pairs Core.Kernel.all)

(* ---------------- warm store, zero executions ---------------- *)

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* A warm store must serve a non-IDCT kernel without running the flow at
   all: arm a crash fault that would abort any execution, then re-read
   every point.  Bit-identical results prove pure cache traffic. *)
let test_warm_store_zero_executions () =
  let fir = Option.get (Core.Kernel.find "fir8") in
  let spec = Core.Kernel.spec fir in
  let designs = Core.Kernel.all_designs fir in
  let dir = fresh_dir "hlsvhc_kernel_store" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  Core.Faultinject.disarm ();
  let _t = Result.get_ok (Store.attach dir) in
  Fun.protect
    ~finally:(fun () ->
      Core.Faultinject.disarm ();
      Store.detach ();
      Core.Evaluate.clear_measure_cache ())
    (fun () ->
      let cold =
        List.map (Core.Evaluate.measure ~matrices:2 ~spec) designs
      in
      (* drop the in-process memo so the second run must go to disk *)
      Core.Evaluate.clear_measure_cache ();
      (match Core.Faultinject.parse "crash@elaborate:*" with
      | Ok f -> Core.Faultinject.arm f
      | Error e -> Alcotest.failf "fault spec: %s" e);
      let warm =
        List.map (Core.Evaluate.measure ~matrices:2 ~spec) designs
      in
      Core.Faultinject.disarm ();
      List.iter2
        (fun c w ->
          check bool "warm hit bit-identical, no flow execution" true (c = w))
        cold warm)

(* ---------------- kernel-qualified trace spans ---------------- *)

let test_trace_spans_name_kernel () =
  let fir = Option.get (Core.Kernel.find "fir8") in
  let spec = Core.Kernel.spec fir in
  let d = List.hd (Core.Kernel.all_designs fir) in
  Core.Evaluate.clear_measure_cache ();
  Core.Trace.set_enabled true;
  ignore (Core.Evaluate.measure ~matrices:2 ~spec d);
  Core.Trace.set_enabled false;
  let spans = Core.Trace.drain () in
  let expected = Core.Flow.span_design spec d in
  check bool "span_design is kernel-qualified" true
    (contains ~needle:(spec.Core.Flow.spec_name ^ ":") expected);
  check bool "stage spans carry the kernel-qualified design" true
    (List.exists (fun s -> s.Core.Trace.design = expected) spans);
  Core.Evaluate.clear_measure_cache ()

(* ---------------- back ends built once per key ---------------- *)

let netlist d =
  match d.Core.Design.impl with
  | Core.Design.Stream c -> Core.Design.force c
  | Core.Design.Pcie _ -> Alcotest.fail "not a stream design"

(* [points] pairs each key with the shared netlist and the unshared
   reference: each shared netlist emits the reference's Verilog, equal
   keys share one node array, memories and ports, and different keys
   were built apart.  Returns the number of distinct keys (builds). *)
let check_shared what points =
  let firsts = Hashtbl.create 16 in
  List.iter
    (fun (key, (shared : Hw.Netlist.t), reference) ->
      check string (what ^ " emits the unshared Verilog")
        (Hw.Verilog.emit reference) (Hw.Verilog.emit shared);
      match Hashtbl.find_opt firsts key with
      | None ->
          Hashtbl.iter
            (fun _ (c : Hw.Netlist.t) ->
              check bool (what ^ ": another key, another build") false
                (c.Hw.Netlist.nodes == shared.Hw.Netlist.nodes))
            firsts;
          Hashtbl.add firsts key shared
      | Some (c : Hw.Netlist.t) ->
          check bool (what ^ ": equal keys share the nodes") true
            (c.Hw.Netlist.nodes == shared.Hw.Netlist.nodes
            && c.Hw.Netlist.mems == shared.Hw.Netlist.mems
            && c.Hw.Netlist.inputs == shared.Hw.Netlist.inputs
            && c.Hw.Netlist.outputs == shared.Hw.Netlist.outputs))
    points;
  Hashtbl.length firsts

let bsv_points compile build options =
  let m = build () in
  List.map
    (fun options ->
      ( Bsv.Compile.key ~options m (Bsv.Sched.analyze ~options m),
        compile options,
        Bsv.Compile.compile ~options m ))
    options

(* Every option setting on both IDCT rule modules, through the same
   compilers the BSC cells use; the cells return the compilers' values. *)
let test_bsv_once_per_key () =
  let grid = Bsv.Options.default :: Bsv.Options.all in
  let initial =
    check_shared "BSC/initial"
      (bsv_points Core.Kernel.bsv_initial Bsv.Idct_bsv.initial_design grid)
  and optimized =
    check_shared "BSC/optimized"
      (bsv_points Core.Kernel.bsv_optimized Bsv.Idct_bsv.optimized_design
         grid)
  in
  check int "optimized module: 25 points, 8 builds" 8 optimized;
  check int "initial module: 25 points, 8 builds" 8 initial;
  List.iter
    (fun d ->
      let options =
        if d.Core.Design.label = "initial" || d.Core.Design.label = "optimized"
        then Bsv.Options.default
        else
          List.find
            (fun o -> d.Core.Design.config_desc = Bsv.Options.describe o)
            Bsv.Options.all
      in
      let compile =
        if d.Core.Design.label = "initial" then Core.Kernel.bsv_initial
        else Core.Kernel.bsv_optimized
      in
      check bool (d.Core.Design.label ^ ": the cell is the compiler's value")
        true
        (netlist d == compile options))
    (Core.Kernel.sweep Core.Kernel.idct Core.Design.Bsv)

(* [effort] is not keyed as such: at 0 the two writers of [x] conflict,
   at 2 their disjoint guards discharge it, so the two schedules give two
   builds.  Effort 1 schedules like 0 here, and shares its build. *)
let test_bsv_effort_keyed () =
  let open Bsv.Lang in
  let build () =
    let bld = builder "effort" in
    let phase = mk_reg bld "phase" 2 in
    let x = mk_reg bld "x" 8 in
    mk_rule bld "p0" ~guard:(read phase ==: cst 2 0) [ assign x (cst 8 1) ];
    mk_rule bld "p1" ~guard:(read phase ==: cst 2 1) [ assign x (cst 8 2) ];
    mk_output bld "x" (read x);
    mk_module bld
  in
  let effort e = { Bsv.Options.default with Bsv.Options.effort = e } in
  let compile = Core.Kernel.bsv_compiler "effort module" build in
  check int "effort 0, 1, 2: two builds" 2
    (check_shared "effort" (bsv_points compile build [ effort 0; effort 1; effort 2 ]));
  check bool "the two builds differ" true
    (Hw.Netlist.content_key (compile (effort 0))
    <> Hw.Netlist.content_key (compile (effort 2)))

let c_points tool configs plan circuit =
  List.map2
    (fun d c ->
      let plan = plan c in
      let key =
        match plan with
        | Chls.Tool.Sequential { cfg; opts; program; _ } ->
            Chls.Fsm.key
              (Chls.Tool.schedule cfg (Chls.Transform.lower opts program))
        | Chls.Tool.Pipelined _ -> d.Core.Design.label
      in
      (key, netlist d, circuit c))
    (Core.Kernel.sweep Core.Kernel.idct tool)
    configs

(* One FSM table serves both tools: a Vivado HLS rung whose schedule
   equals a Bambu point's shares that point's build. *)
let test_c_once_per_schedule () =
  check int "Bambu and Vivado HLS: 47 points, 26 builds" 26
    (check_shared "C"
       (c_points Core.Design.Bambu Chls.Tool.bambu_grid
          (fun c -> Chls.Tool.bambu_plan c)
          (fun c -> Chls.Tool.bambu_circuit c)
       @ c_points Core.Design.Vivado_hls Chls.Tool.vhls_ladder
           (fun c -> Chls.Tool.vhls_plan c)
           (fun c -> Chls.Tool.vhls_circuit c)))

(* A content key is reused by a renamed copy of a netlist, and not by a
   record that shares the node array but has other ports. *)
let test_content_key_memo () =
  let c = Bsv.Idct_bsv.circuit (Bsv.Idct_bsv.optimized_design ()) in
  let k = Hw.Netlist.content_key c in
  check string "renamed copy" k
    (Hw.Netlist.content_key { c with Hw.Netlist.circuit_name = "other" });
  let fewer = { c with Hw.Netlist.outputs = List.tl c.Hw.Netlist.outputs } in
  check bool "other ports, other key" true (Hw.Netlist.content_key fewer <> k);
  check string "the record itself again" k (Hw.Netlist.content_key c);
  check string "a copy of the memories, same content" k
    (Hw.Netlist.content_key
       { c with Hw.Netlist.mems = Array.copy c.Hw.Netlist.mems })

(* The raising view perfbench's [comply] calls: 7 passing verdicts, in
   the kernel's tool order, at more domains than a 2-core host has. *)
let test_compliance_all () =
  let k = Core.Kernel.idct in
  let designs = List.map (Core.Kernel.optimized k) (Core.Kernel.tools k) in
  let verdicts =
    Core.Evaluate.compliance_all ~jobs:3 ~blocks:500 ~spec:(Core.Kernel.spec k)
      designs
  in
  check (Alcotest.list string) "tool order"
    (List.map Core.Design.tool_name (Core.Kernel.tools k))
    (List.map (fun (d, _) -> Core.Design.tool_name d.Core.Design.tool) verdicts);
  check (Alcotest.list bool) "all pass" (List.map (fun _ -> true) designs)
    (List.map snd verdicts)

let () =
  Alcotest.run "kernel"
    [
      ( "registry",
        [
          Alcotest.test_case "identity invariants" `Quick
            test_registry_invariants;
          Alcotest.test_case "unknown-kernel diagnostic" `Quick
            test_unknown_msg;
        ] );
      ( "designs",
        [
          Alcotest.test_case "extension designs bit-true" `Slow
            test_designs_bit_true;
        ] );
      ( "store",
        [
          Alcotest.test_case "keys disjoint across kernels" `Quick
            test_store_keys_disjoint;
          Alcotest.test_case "warm store: zero flow executions" `Slow
            test_warm_store_zero_executions;
        ] );
      ( "trace",
        [
          Alcotest.test_case "spans name the kernel" `Quick
            test_trace_spans_name_kernel;
        ] );
      ( "back ends",
        [
          Alcotest.test_case "BSC builds once per key" `Quick
            test_bsv_once_per_key;
          Alcotest.test_case "effort reaches the key through the schedule"
            `Quick test_bsv_effort_keyed;
          Alcotest.test_case "one FSM per schedule" `Quick
            test_c_once_per_schedule;
          Alcotest.test_case "content key memo" `Quick test_content_key_memo;
        ] );
      ( "comply",
        [
          Alcotest.test_case "compliance_all: 7 verdicts in tool order"
            `Slow test_compliance_all;
        ] );
    ]
