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
    ]
