(* The DSE subsystem: the space model's agreement with the registry
   sweeps, Pareto-front properties over random point clouds, seeded
   search reproducibility, budget semantics, and the Fig. 1 cross-check
   over a restricted tool set. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string_list = Alcotest.(list string)

(* ---------------- the space model ---------------- *)

(* Every tool's declared axes must tile its sweep exactly, candidate for
   candidate: the space is metadata over the same generators. *)
let test_space_covers_sweep () =
  List.iter
    (fun tool ->
      let space = Dse.Space.of_tool tool in
      let cands = Dse.Space.candidates space in
      let sweep = Core.Kernel.sweep Core.Kernel.idct tool in
      check int
        (Core.Design.tool_name tool ^ " candidate count")
        (List.length sweep) (List.length cands);
      check string_list
        (Core.Design.tool_name tool ^ " enumeration order")
        (List.map (fun (d : Core.Design.t) -> d.Core.Design.label) sweep)
        (List.map
           (fun c -> c.Dse.Space.cand_design.Core.Design.label)
           cands))
    Core.Design.all_tools

let test_space_neighbors () =
  let space = Dse.Space.of_tool Core.Design.Bambu in
  let cands = Dse.Space.candidates space in
  List.iter
    (fun c ->
      let neigh = Dse.Space.neighbors space c in
      (* a 3-axis grid point has between 3 and 6 neighbors *)
      check bool "neighbor count in range" true
        (List.length neigh >= 3 && List.length neigh <= 6);
      List.iter
        (fun n ->
          check bool "neighbor stays in chart" true
            (n.Dse.Space.cand_chart = c.Dse.Space.cand_chart);
          let diff = ref 0 in
          Array.iteri
            (fun i v ->
              if v <> c.Dse.Space.cand_coords.(i) then begin
                incr diff;
                check int "step of one"
                  1
                  (abs (v - c.Dse.Space.cand_coords.(i)))
              end)
            n.Dse.Space.cand_coords;
          check int "exactly one axis moved" 1 !diff;
          (* neighborhood is symmetric *)
          check bool "symmetric" true
            (List.exists
               (fun b -> Dse.Space.key b = Dse.Space.key c)
               (Dse.Space.neighbors space n)))
        neigh)
    cands;
  (* coords_desc names every axis *)
  let c = List.hd cands in
  check bool "coords_desc mentions the preset axis" true
    (String.length (Dse.Space.coords_desc c) > 0)

(* ---------------- Pareto properties ---------------- *)

let point (i, (a, p)) =
  {
    Dse.Pareto.pt_key = Printf.sprintf "p%d" i;
    pt_area = a;
    pt_perf = float_of_int p /. 8.;
  }

let cloud_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 60)
      (pair (int_range 1 40) (int_range 1 40)))

let prop_frontier_sound =
  QCheck.Test.make ~name:"frontier sound and complete" ~count:300 cloud_gen
    (fun raw ->
      let cloud = List.mapi (fun i xy -> point (i, xy)) raw in
      let front = Dse.Pareto.frontier cloud in
      (* frontier is a subset of the cloud *)
      List.for_all (fun p -> List.mem p cloud) front
      (* mutually non-dominating *)
      && List.for_all
           (fun p ->
             List.for_all
               (fun q -> not (Dse.Pareto.dominates p q))
               front)
           front
      (* every dropped point is dominated by some frontier point *)
      && List.for_all
           (fun p ->
             List.mem p front
             || List.exists (fun q -> Dse.Pareto.dominates q p) front)
           cloud)

let prop_frontier_order_independent =
  QCheck.Test.make ~name:"frontier ignores input order" ~count:300 cloud_gen
    (fun raw ->
      let cloud = List.mapi (fun i xy -> point (i, xy)) raw in
      Dse.Pareto.frontier cloud = Dse.Pareto.frontier (List.rev cloud))

let test_pareto_ties_deterministic () =
  (* coordinate ties do not dominate each other: both survive, in key
     order *)
  let a = { Dse.Pareto.pt_key = "a"; pt_area = 10; pt_perf = 5. } in
  let b = { Dse.Pareto.pt_key = "b"; pt_area = 10; pt_perf = 5. } in
  check bool "tie does not dominate" false (Dse.Pareto.dominates a b);
  check string_list "both kept, key order" [ "a"; "b" ]
    (List.map
       (fun p -> p.Dse.Pareto.pt_key)
       (Dse.Pareto.frontier [ b; a ]));
  (* same area, better perf dominates *)
  let c = { Dse.Pareto.pt_key = "c"; pt_area = 10; pt_perf = 7. } in
  check string_list "dominated tie dropped" [ "c" ]
    (List.map (fun p -> p.Dse.Pareto.pt_key) (Dse.Pareto.frontier [ a; c ]))

let test_hypervolume_monotone () =
  let p k a perf = { Dse.Pareto.pt_key = k; pt_area = a; pt_perf = perf } in
  (* both clouds share the box corners (min area, max perf) and the
     reference corner is pinned, so adding a frontier point can only
     enlarge the dominated staircase *)
  let base = [ p "cheap" 10 2.; p "fast" 1000 100. ] in
  let better = p "good" 100 50. :: base in
  let hv = Dse.Pareto.hypervolume ~ref_area:1000 ~ref_perf:1. in
  check bool "hypervolume grows with a new frontier point" true
    (hv better > hv base);
  check (Alcotest.float 1e-9) "empty cloud" 0. (Dse.Pareto.hypervolume []);
  check (Alcotest.float 1e-9) "degenerate cloud" 0.
    (Dse.Pareto.hypervolume [ p "only" 10 5. ])

(* ---------------- deterministic RNG ---------------- *)

let test_rng_deterministic () =
  let draw seed = List.init 32 (fun _ -> Dse.Rng.int (Dse.Rng.create ~seed) 1000) in
  check (Alcotest.list int) "same seed, same stream" (draw 7) (draw 7);
  check bool "different seeds diverge" true (draw 7 <> draw 8);
  let r = Dse.Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Dse.Rng.int r 13 in
    check bool "in range" true (v >= 0 && v < 13)
  done

(* ---------------- the engine ---------------- *)

let small_tools = [ Core.Design.Verilog; Core.Design.Chisel; Core.Design.Maxj ]
let small_spaces () = List.map Dse.Space.of_tool small_tools

let eval_keys (r : Dse.Engine.result) =
  List.map
    (fun (ev : Dse.Engine.evaluated) -> Dse.Space.key ev.Dse.Engine.ev_candidate)
    r.Dse.Engine.res_evaluated

let frontier_keys (r : Dse.Engine.result) =
  List.map (fun (p : Dse.Pareto.point) -> p.Dse.Pareto.pt_key)
    r.Dse.Engine.res_frontier

let test_exhaustive_budget () =
  let r =
    Dse.Engine.run ~jobs:1 ~budget:2 ~strategy:Dse.Strategy.Exhaustive
      ~objective:Dse.Engine.Quality (small_spaces ())
  in
  check int "budget caps the prefix" 2 r.Dse.Engine.res_stats.Dse.Engine.st_evaluated;
  check string_list "sweep-order prefix"
    [ "Vivado/initial"; "Vivado/1 row + 8 col units" ]
    (eval_keys r)

let test_failed_points_recorded () =
  (* A broken point is a value in the run, never an exception: it is
     counted, kept out of the frontier, and the run is the same at any
     job count. *)
  Core.Evaluate.clear_measure_cache ();
  Core.Faultinject.arm
    {
      Core.Faultinject.fault = Crash "synthesize";
      target = "Vivado/initial";
      seed = 0;
    };
  let run jobs =
    Dse.Engine.run ~jobs ~strategy:Dse.Strategy.Exhaustive
      ~objective:Dse.Engine.Quality
      [ Dse.Space.of_tool Core.Design.Verilog ]
  in
  let a, b =
    Fun.protect
      ~finally:(fun () ->
        Core.Faultinject.disarm ();
        Core.Evaluate.clear_measure_cache ())
      (fun () -> (run 1, run 2))
  in
  check int "one failure counted" 1
    a.Dse.Engine.res_stats.Dse.Engine.st_failures;
  check int "every candidate evaluated" 3
    a.Dse.Engine.res_stats.Dse.Engine.st_evaluated;
  check bool "failed point not on the frontier" false
    (List.mem "Vivado/initial" (frontier_keys a));
  check string_list "same sequence across job counts" (eval_keys a)
    (eval_keys b);
  check string_list "same frontier across job counts" (frontier_keys a)
    (frontier_keys b)

let test_random_seeded_reproducible () =
  let run jobs =
    Dse.Engine.run ~jobs ~budget:5 ~seed:11 ~strategy:Dse.Strategy.Random
      ~objective:Dse.Engine.Quality (small_spaces ())
  in
  let a = run 1 and b = run 1 and c = run 4 in
  check string_list "same seed, same candidate sequence" (eval_keys a)
    (eval_keys b);
  check string_list "job count does not change the sequence" (eval_keys a)
    (eval_keys c);
  check string_list "same frontier" (frontier_keys a) (frontier_keys b);
  check string_list "same frontier across job counts" (frontier_keys a)
    (frontier_keys c);
  check int "budget respected" 5
    a.Dse.Engine.res_stats.Dse.Engine.st_evaluated

let test_random_distinct_candidates () =
  let r =
    Dse.Engine.run ~jobs:1 ~budget:5 ~seed:11 ~strategy:Dse.Strategy.Random
      ~objective:Dse.Engine.Quality (small_spaces ())
  in
  let keys = eval_keys r in
  check int "five distinct candidates" 5
    (List.length (List.sort_uniq compare keys));
  check int "stats agree" 5 r.Dse.Engine.res_stats.Dse.Engine.st_evaluated

let test_hillclimb_seeded_reproducible () =
  let spaces = [ Dse.Space.of_tool Core.Design.Dslx ] in
  let run () =
    Dse.Engine.run ~jobs:2 ~budget:8 ~seed:5 ~strategy:Dse.Strategy.Hillclimb
      ~objective:Dse.Engine.Throughput spaces
  in
  let a = run () and b = run () in
  check string_list "same walk" (eval_keys a) (eval_keys b);
  check string_list "same frontier" (frontier_keys a) (frontier_keys b);
  check bool "budget respected" true
    (a.Dse.Engine.res_stats.Dse.Engine.st_evaluated <= 8)

(* The memo counts what a search revisits: a cold exhaustive pass over
   Verilog and Vivado HLS (3 + 5 candidates) measures every point, and
   the budgeted strategies that follow read every point back. *)
let test_cache_hits () =
  let spaces =
    List.map Dse.Space.of_tool [ Core.Design.Verilog; Core.Design.Vivado_hls ]
  in
  let stats strategy ?budget () =
    (Dse.Engine.run ~jobs:2 ?budget ~seed:42 ~strategy
       ~objective:Dse.Engine.Quality spaces)
      .Dse.Engine.res_stats
  in
  Core.Evaluate.clear_measure_cache ();
  let cold = stats Dse.Strategy.Exhaustive () in
  check int "cold: every candidate evaluated" 8 cold.Dse.Engine.st_evaluated;
  check int "cold: no cache hits" 0 cold.Dse.Engine.st_cache_hits;
  List.iter
    (fun strategy ->
      let warm = stats strategy ~budget:8 () in
      let name = Dse.Strategy.to_string strategy in
      check int (name ^ ": evaluated") 8 warm.Dse.Engine.st_evaluated;
      check int (name ^ ": every candidate a cache hit") 8
        warm.Dse.Engine.st_cache_hits)
    [ Dse.Strategy.Random; Dse.Strategy.Hillclimb ]

let test_objective_scores () =
  let m =
    {
      Core.Metrics.fmax_mhz = 100.;
      throughput_mops = 50.;
      latency = 10;
      periodicity = 2;
      area = 1000;
      luts_nodsp = 600;
      ffs_nodsp = 400;
      luts = 600;
      ffs = 400;
      dsps = 0;
      ios = 0;
    }
  in
  check (Alcotest.float 1e-6) "quality = P/A"
    (Core.Metrics.quality m)
    (Dse.Engine.score Dse.Engine.Quality m);
  check (Alcotest.float 1e-6) "throughput" 50.
    (Dse.Engine.score Dse.Engine.Throughput m);
  check (Alcotest.float 1e-6) "area is minimized" (-1000.)
    (Dse.Engine.score Dse.Engine.Area m)

(* ---------------- the Fig. 1 cross-check ---------------- *)

let test_crosscheck_fig1_small () =
  let r =
    Dse.Engine.run ~jobs:2 ~strategy:Dse.Strategy.Exhaustive
      ~objective:Dse.Engine.Quality (small_spaces ())
  in
  check int "full space evaluated"
    r.Dse.Engine.res_stats.Dse.Engine.st_space
    r.Dse.Engine.res_stats.Dse.Engine.st_evaluated;
  match Dse.Report.crosscheck_fig1 ~jobs:2 ~tools:small_tools r with
  | Ok _ -> ()
  | Error diff -> Alcotest.fail diff

let () =
  Alcotest.run "dse"
    [
      ( "space",
        [
          Alcotest.test_case "axes tile every sweep" `Quick
            test_space_covers_sweep;
          Alcotest.test_case "grid neighborhoods" `Quick test_space_neighbors;
        ] );
      ( "pareto",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frontier_sound; prop_frontier_order_independent ]
        @ [
            Alcotest.test_case "coordinate ties" `Quick
              test_pareto_ties_deterministic;
            Alcotest.test_case "hypervolume" `Quick test_hypervolume_monotone;
          ] );
      ("rng", [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic ]);
      ( "engine",
        [
          Alcotest.test_case "exhaustive budget prefix" `Slow
            test_exhaustive_budget;
          Alcotest.test_case "random seeded reproducible" `Slow
            test_random_seeded_reproducible;
          Alcotest.test_case "random samples without replacement" `Slow
            test_random_distinct_candidates;
          Alcotest.test_case "hillclimb seeded reproducible" `Slow
            test_hillclimb_seeded_reproducible;
          Alcotest.test_case "cold misses, warm strategies hit" `Slow
            test_cache_hits;
          Alcotest.test_case "objective scores" `Quick test_objective_scores;
          Alcotest.test_case "failed points recorded, never raised" `Quick
            test_failed_points_recorded;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "exhaustive reproduces the Pareto subset" `Slow
            test_crosscheck_fig1_small;
        ] );
    ]
