(* The md5 of every sweep and DSE netlist, one line per design:

     KERNEL TOOL MD5 LABEL

   First every [Kernel.sweep] point of every kernel, then every candidate
   of every tool's [Dse.Space.with_scripts] space, which adds the designs
   that transformation scripts derive from the initial one.  TOOL is the
   primary CLI name ("vhls" and "verilog" stay apart, where the tool
   names "Vivado HLS" and "Vivado" share a prefix).  MD5 digests
   [Hw.Verilog.emit] of the stream netlist, or of the MaxJ kernel for a
   PCIe design.  The label goes last because labels contain spaces. *)

let tool_key tool =
  match
    List.find
      (fun (e : Core.Registry.entry) -> e.Core.Registry.tool = tool)
      Core.Registry.all
  with
  | { Core.Registry.aliases = key :: _; _ } -> key
  | _ -> assert false

let netlist (d : Core.Design.t) =
  match d.Core.Design.impl with
  | Core.Design.Stream c -> Core.Design.force c
  | Core.Design.Pcie p ->
      (Core.Design.force p.Core.Design.system).Maxj.Manager.kernel

(* [(kernel, design)] for every design [f kernel tool] lists, over every
   kernel's tools in registration order. *)
let per_tool f =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun t -> List.map (fun d -> (k, d)) (f k t))
        (Core.Kernel.tools k))
    Core.Kernel.all

let () =
  let sweep = per_tool Core.Kernel.sweep
  and dse =
    per_tool (fun k t ->
        List.map
          (fun (c : Dse.Space.candidate) -> c.Dse.Space.cand_design)
          (Dse.Space.candidates
             (Dse.Space.with_scripts (Dse.Space.of_tool ~kernel:k t))))
  in
  (* forcing a script-derived design verifies it, which dominates *)
  Core.Parallel.map ~jobs:2
    (fun (k, (d : Core.Design.t)) ->
      Printf.sprintf "%s %s %s %s" (Core.Kernel.name k)
        (tool_key d.Core.Design.tool)
        (Digest.to_hex (Digest.string (Hw.Verilog.emit (netlist d))))
        d.Core.Design.label)
    (sweep @ dse)
  |> List.iter print_endline
