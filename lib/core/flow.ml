(* The staged design-flow core: one measurement = a fixed pipeline of
   named, individually traced stages.  The numbers this computes are
   byte-identical to the pre-refactor monolithic path (the flow tests and
   the recorded artifacts pin this down); the decomposition buys per-stage
   wall times and counters via Trace, on or off.

   Failures are first-class (DESIGN.md §11): anything that goes wrong in
   a stage is carried by the typed [Error] exception — design key, stage
   name, error class — so a batch records a point's failure precisely as
   a value, and every report prints one canonical diagnostic. *)

type spec = {
  spec_name : string;
  stimulus : int -> Axis.Block.t list;
  reference : Axis.Block.t -> Axis.Block.t;
  sim_timeout : int option;
  comply : blocks:int -> (Axis.Block.t list -> Axis.Block.t list) -> bool;
}

(* Staged like [Ieee1180.compliant]: applying [~blocks] draws the
   stimulus and computes the reference outputs once; the checker it
   returns only runs the dut and compares. *)
let bit_true_comply ~stimulus ~reference ~blocks =
  let mats = stimulus blocks in
  let wants = List.map reference mats in
  fun dut_batch ->
    let gots = dut_batch mats in
    List.compare_lengths gots wants = 0
    && List.for_all2 Axis.Block.equal gots wants

let idct_spec =
  {
    spec_name = "idct";
    stimulus =
      (fun n ->
        let rng = Axis.Block.Rand.create ~seed:7 () in
        List.init n (fun _ ->
            Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255)));
    reference = Idct.Chenwang.idct;
    sim_timeout = None;
    comply = (fun ~blocks -> Idct.Ieee1180.compliant ~blocks);
  }

let span_design spec (d : Design.t) =
  spec.spec_name ^ ":" ^ Design.tool_name d.Design.tool ^ "/" ^ d.Design.label

let stage_names =
  [ "elaborate"; "validate"; "simulate"; "verify"; "synthesize"; "metrics" ]

let span_key (d : Design.t) =
  Design.tool_name d.Design.tool ^ "/" ^ d.Design.label

(* ---------------- typed flow errors ---------------- *)

type error_class =
  | Not_bit_true of { block_index : int; got : string; expected : string }
  | Protocol_violation of string
  | Sim_timeout of string
  | Engine_failure of string
  | Synth_failure of string
  | Unexpected of string

type error = {
  err_design : string;
  err_stage : string;
  err_class : error_class;
}

exception Error of error

let class_name = function
  | Not_bit_true _ -> "not-bit-true"
  | Protocol_violation _ -> "protocol-violation"
  | Sim_timeout _ -> "sim-timeout"
  | Engine_failure _ -> "engine-failure"
  | Synth_failure _ -> "synth-failure"
  | Unexpected _ -> "unexpected"

let class_detail = function
  | Not_bit_true { block_index; got; expected } ->
      Printf.sprintf "first mismatch at block %d: got %s, expected %s"
        block_index got expected
  | Protocol_violation v -> "violates AXI-Stream: " ^ v
  | Sim_timeout m | Engine_failure m | Synth_failure m | Unexpected m -> m

let pp_error ppf e =
  Format.fprintf ppf "design %s failed at %s [%s]: %s" e.err_design
    e.err_stage (class_name e.err_class) (class_detail e.err_class)

let error_to_string e = Format.asprintf "%a" pp_error e

let () =
  (* One pretty-printer everywhere: an uncaught flow error prints the
     canonical rendering, not a constructor dump. *)
  Printexc.register_printer (function
    | Error e -> Some (error_to_string e)
    | _ -> None)

let error_of_exn ~design = function
  | Error e -> e
  | e ->
      {
        err_design = design;
        err_stage = "-";
        err_class = Unexpected (Printexc.to_string e);
      }

let errors outcomes =
  List.filter_map (function Stdlib.Error e -> Some e | Ok _ -> None) outcomes

let fail_fast = function r, [] -> r | _, e :: _ -> raise (Error e)

let render_failure_summary errors =
  let buf = Buffer.create 512 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "failure summary: %d design point%s failed\n" (List.length errors)
    (if List.length errors = 1 then "" else "s");
  (* The design column is as wide as the longest key, so the stage and
     class columns stay aligned for any tool's labels. *)
  let w =
    List.fold_left (fun w e -> max w (String.length e.err_design)) 28 errors
  in
  let row d s c detail = pr "  %-*s %-11s %-18s %s\n" w d s c detail in
  row "design" "stage" "class" "detail";
  List.iter
    (fun e ->
      row e.err_design e.err_stage (class_name e.err_class)
        (class_detail e.err_class))
    errors;
  Buffer.contents buf

(* ---------------- bit-true check ---------------- *)

let row_excerpt b row =
  "["
  ^ String.concat " "
      (List.init Axis.Block.size (fun col ->
           string_of_int (Axis.Block.get b ~row ~col)))
  ^ "]"

let bit_true_check (d : Design.t) ~got ~expected =
  let key = span_key d in
  let fail cls =
    raise (Error { err_design = key; err_stage = "verify"; err_class = cls })
  in
  let rec scan i gs es =
    match (gs, es) with
    | [], [] -> ()
    | g :: gs, e :: es ->
        if Axis.Block.equal g e then scan (i + 1) gs es
        else begin
          (* locate the first mismatching element for the excerpt *)
          let pos = ref 0 in
          (try
             for p = 0 to (Axis.Block.size * Axis.Block.size) - 1 do
               let row = p / Axis.Block.size and col = p mod Axis.Block.size in
               if Axis.Block.get g ~row ~col <> Axis.Block.get e ~row ~col
               then begin
                 pos := p;
                 raise Exit
               end
             done
           with Exit -> ());
          let row = !pos / Axis.Block.size in
          fail
            (Not_bit_true
               {
                 block_index = i;
                 got = Printf.sprintf "row %d %s" row (row_excerpt g row);
                 expected = row_excerpt e row;
               })
        end
    | _ ->
        fail
          (Not_bit_true
             {
               block_index = i;
               got = Printf.sprintf "%d blocks" (List.length got);
               expected = Printf.sprintf "%d blocks" (List.length expected);
             })
  in
  scan 0 got expected

(* ---------------- the staged pipeline ---------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i =
    if i + m > n then false
    else String.sub s i m = sub || at (i + 1)
  in
  at 0

let is_driver_timeout = function
  | Failure m -> contains ~sub:"timeout after" m
  | _ -> false

let exn_message = function
  | Failure m -> m
  | Faultinject.Injected m -> m
  | e -> Printexc.to_string e

let violation v =
  Protocol_violation (Format.asprintf "%a" Axis.Monitor.pp_violation v)

(* Classify an untyped exception by the stage it escaped from: the
   testbench's protocol verdict is a violation wherever it escapes, the
   simulator's own cycle-budget failure is a timeout, anything else out
   of elaborate/validate/simulate/comply is the engine's fault,
   synthesize failures are the synthesizer's, and the rest is
   unexpected. *)
let classify ~stage e =
  let msg = exn_message e in
  match (stage, e) with
  | _, Axis.Driver.Protocol_violation v -> violation v
  | ("simulate" | "comply"), _ when is_driver_timeout e -> Sim_timeout msg
  | ("elaborate" | "validate" | "simulate" | "comply"), _ -> Engine_failure msg
  | "synthesize", _ -> Synth_failure msg
  | _ -> Unexpected msg

(* Trace spans carry the kernel-qualified identity so mixed-kernel
   traces stay attributable; fault targeting and error payloads keep the
   plain ["Tool/label"] key, which is the stable user-facing name. *)
let stage ~spec (d : Design.t) name f =
  let key = span_key d in
  Trace.with_span ~design:(span_design spec d) ~stage:name (fun () ->
      try
        Faultinject.crash_at_stage ~design:key ~stage:name;
        f ()
      with
      | Error _ as e -> raise e
      | e ->
          let bt = Printexc.get_raw_backtrace () in
          Printexc.raise_with_backtrace
            (Error
               {
                 err_design = key;
                 err_stage = name;
                 err_class = classify ~stage:name e;
               })
            bt)

(* ---------------- content-shared simulation and synthesis ---------------- *)

(* Design points whose elaborated netlists are equal up to the circuit
   name share one simulation and one synthesis: BSC's 26 option points
   elaborate to 9 netlists and Bambu's 42 to 22.  The content key is
   [Hw.Netlist.content_key], the digest of the nodes, memories and ports
   without the name; a simulation is keyed also by the spec, the
   stimulus length and the cycle budget, so a [stall] fault, which
   shrinks the budget, changes the key.  A computation that raises is not stored ([Parallel.Memo]): a
   failing duplicate runs again and its error names its own circuit.  The
   validation, the bit-true check, every fault probe and the metrics stay
   per design point.  A span served from the share carries the counter
   [shared] = 1 instead of the counters of the work it skipped.  Two
   domains that miss one key at once both compute it and the first store
   wins, so at [-j 2] a trace can show fewer [shared] points (and more
   [cycles]) than at [-j 1]; the results are the same. *)
module Shared_sim = Parallel.Memo (struct
  type t = Axis.Driver.result
end)

module Shared_synth = Parallel.Memo (struct
  type t = Hw.Synth.report
end)

let clear_shared () =
  Shared_sim.clear ();
  Shared_synth.clear ()

let shared find_or_compute ~key f =
  let ran = ref false in
  let v =
    find_or_compute ~key (fun () ->
        ran := true;
        f ())
  in
  if not !ran then Trace.add_counter "shared" 1;
  v

let measure_uncached ?(matrices = 4) ~spec (d : Design.t) : Metrics.measured =
  let key = span_key d in
  let stage name f = stage ~spec d name f in
  (* One metrics assembly for both implementation kinds: the synthesis
     report supplies the resource counts, each branch the five values its
     own simulation or system model determines. *)
  let metrics (rep : Hw.Synth.report) ~fmax_mhz ~throughput_mops ~latency
      ~periodicity ~ios =
    stage "metrics" (fun () ->
        {
          Metrics.fmax_mhz;
          throughput_mops;
          latency;
          periodicity;
          area = rep.Hw.Synth.area;
          luts_nodsp = rep.Hw.Synth.luts_nodsp;
          ffs_nodsp = rep.Hw.Synth.ffs_nodsp;
          luts = rep.Hw.Synth.luts;
          ffs = rep.Hw.Synth.ffs;
          dsps = rep.Hw.Synth.dsps;
          ios;
        })
  in
  match d.Design.impl with
  | Design.Stream circuit ->
      let circuit =
        stage "elaborate" (fun () ->
            let c = Design.force circuit in
            Trace.add_counter "netlist_nodes" (Hw.Netlist.num_nodes c);
            c)
      in
      stage "validate" (fun () -> Hw.Netlist.validate circuit);
      let content = Hw.Netlist.content_key circuit in
      let mats = spec.stimulus matrices in
      let r =
        stage "simulate" (fun () ->
            Trace.add_counter "matrices" matrices;
            let timeout =
              Faultinject.stall_timeout ~design:key spec.sim_timeout
            in
            let r =
              shared Shared_sim.find_or_compute
                ~key:
                  (Printf.sprintf "%s/%s@%d/%s" content spec.spec_name matrices
                     (match timeout with
                     | None -> "-"
                     | Some t -> string_of_int t))
                (fun () ->
                  Axis.Driver.run ?timeout ~hook:Trace.add_counter circuit mats)
            in
            {
              r with
              Axis.Driver.outputs =
                Faultinject.poison_blocks ~design:key r.Axis.Driver.outputs;
            })
      in
      stage "verify" (fun () ->
          bit_true_check d ~got:r.Axis.Driver.outputs
            ~expected:(List.map spec.reference mats);
          match
            Faultinject.inject_violation ~design:key r.Axis.Driver.violations
          with
          | [] -> ()
          | v :: _ -> raise (Axis.Driver.Protocol_violation v));
      let rep =
        stage "synthesize" (fun () ->
            shared Shared_synth.find_or_compute ~key:content (fun () ->
                Hw.Synth.run ~hook:Trace.add_counter circuit))
      in
      metrics rep ~fmax_mhz:rep.Hw.Synth.fmax_mhz
        ~throughput_mops:
          (rep.Hw.Synth.fmax_mhz /. float_of_int r.Axis.Driver.periodicity)
        ~latency:r.Axis.Driver.latency ~periodicity:r.Axis.Driver.periodicity
        ~ios:rep.Hw.Synth.ios
  | Design.Pcie p ->
      let system =
        stage "elaborate" (fun () ->
            let s = Design.force p.Design.system in
            Trace.add_counter "netlist_nodes"
              (Hw.Netlist.num_nodes s.Maxj.Manager.kernel);
            s)
      in
      stage "validate" (fun () ->
          Hw.Netlist.validate system.Maxj.Manager.kernel);
      let r =
        stage "simulate" (fun () -> Maxj.Manager.evaluate system)
      in
      stage "verify" (fun () ->
          (* the kernel's own stream simulator against the reference; the
             monolithic path skipped this for PCIe designs *)
          let mats = spec.stimulus matrices in
          Trace.add_counter "matrices" matrices;
          bit_true_check d
            ~got:(Faultinject.poison_blocks ~design:key (p.Design.simulate mats))
            ~expected:(List.map spec.reference mats));
      let rep =
        stage "synthesize" (fun () ->
            Hw.Synth.run ~hook:Trace.add_counter system.Maxj.Manager.kernel)
      in
      metrics rep ~fmax_mhz:r.Maxj.Manager.fmax_mhz
        ~throughput_mops:r.Maxj.Manager.throughput_mops
        ~latency:r.Maxj.Manager.latency_ticks
        ~periodicity:system.Maxj.Manager.ticks_per_op
        ~ios:Maxj.Manager.pcie_pins
