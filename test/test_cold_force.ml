(* Cold concurrent forcing, in a fresh process: four pool domains force
   every design cell of every kernel, and every transformation-derived
   design of the DSE spaces, each cell twice, before anything else has
   built them.  A shared lazy that escaped Core.Once would raise
   (Lazy.Undefined, CamlinternalLazy.RacyLazy) or build twice.  The node
   counts must equal a sequential force in a second fresh process, which
   this executable runs as itself with [--sequential]. *)

let cells () =
  List.concat_map
    (fun k ->
      let kname = Core.Kernel.name k in
      let tools = Core.Kernel.tools k in
      let own =
        Core.Kernel.all_designs k
        @ List.concat_map
            (fun t -> [ Core.Kernel.initial k t; Core.Kernel.optimized k t ])
            tools
      in
      let derived =
        List.concat_map
          (fun t ->
            List.map
              (fun (c : Dse.Space.candidate) -> c.Dse.Space.cand_design)
              (Dse.Space.candidates
                 (Dse.Space.with_scripts (Dse.Space.of_tool ~kernel:k t))))
          tools
      in
      List.map (fun d -> (kname ^ ":" ^ Core.Flow.span_key d, d)) (own @ derived))
    Core.Kernel.all

let nodes (d : Core.Design.t) =
  match d.Core.Design.impl with
  | Core.Design.Stream c -> Hw.Netlist.num_nodes (Core.Design.force c)
  | Core.Design.Pcie p ->
      Hw.Netlist.num_nodes
        (Core.Design.force p.Core.Design.system).Maxj.Manager.kernel

let render counts =
  List.sort_uniq compare counts
  |> List.map (fun (k, n) -> Printf.sprintf "%s\t%d" k n)
  |> String.concat "\n"

let sequential () = render (List.map (fun (k, d) -> (k, nodes d)) (cells ()))

let test_cold_concurrent () =
  let cs = cells () in
  let counts =
    Core.Parallel.map ~jobs:4 (fun (k, d) -> (k, nodes d)) (cs @ List.rev cs)
  in
  let ic = Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--sequential" |] in
  let expected = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "the sequential process failed");
  Alcotest.check Alcotest.string "node counts = a sequential force"
    (String.trim expected) (render counts)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--sequential" then
    print_string (sequential ())
  else
    Alcotest.run "cold-force"
      [
        ( "cold",
          [
            Alcotest.test_case "4 domains force every cell twice" `Slow
              test_cold_concurrent;
          ] );
      ]
