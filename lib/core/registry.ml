open Design

(* lib/transfo cannot depend on Core.Trace (Core depends on transfo), so
   the engine's tracing is injected here, where both sides are visible.
   Registry is linked into every entry point, so the hook is always in
   place before a script runs. *)
let () =
  Transfo.Engine.set_tracer
    {
      Transfo.Engine.wrap =
        (fun ~design ~stage f -> Trace.with_span ~design ~stage f);
      counter = Trace.add_counter;
    }

(* ------------------------------------------------------------------ *)
(* Design constructors and the shared listing policy                    *)
(* ------------------------------------------------------------------ *)

let mk tool label config_desc ~fu ~axi ~conf ~listing impl =
  {
    tool;
    label;
    config_desc;
    loc_fu = fu;
    loc_axi = axi;
    loc_conf = conf;
    impl;
    listing;
  }

(* Listing-policy helpers shared by every tool module: a listing made of a
   functional-unit part and a tool-specific body is glued with one blank
   line, the FU lines count as L^FU and the remainder as L^AXI. *)
let glue shared body = shared ^ "\n\n" ^ body

let split_loc ~shared listing =
  let fu = Loc.count shared in
  (fu, Loc.count listing - fu)

let mk_shared tool label config_desc ~shared ~listing impl =
  let fu, axi = split_loc ~shared listing in
  mk tool label config_desc ~fu ~axi ~conf:0 ~listing impl

(* ------------------------------------------------------------------ *)
(* Configuration-space axes                                             *)
(* ------------------------------------------------------------------ *)

(* A tool's knob space, exposed as data next to the sweep generator that
   realises it.  A chart is one product block of the sweep: row-major
   enumeration of its axes (last axis fastest) covers a contiguous run of
   [sweep], in order.  Tools whose sweep is a genuine option grid (Bambu,
   BSC, XLS) expose the real axes; tools explored as a hand-picked ladder
   expose a single enumerated axis. *)
type axis = { axis_name : string; axis_values : string list }

let enum_axis name values = { axis_name = name; axis_values = values }

(* The default space of a ladder sweep: one "design" axis whose values are
   the sweep labels. *)
let ladder_space sweep =
  [ [ enum_axis "design" (List.map (fun d -> d.label) sweep) ] ]

(* ------------------------------------------------------------------ *)
(* The tool-module signature                                            *)
(* ------------------------------------------------------------------ *)

module type TOOL = sig
  val tool : Design.tool

  (* Table I metadata *)
  val language : string
  val paradigm : string
  val toolchain : string
  val tool_type : string
  val openness : string

  (* CLI names, the Fig. 1 scatter glyph and its legend entry *)
  val aliases : string list
  val glyph : char
  val legend : string

  (* the design inventory *)
  val initial : Design.t
  val optimized : Design.t
  val sweep : Design.t list

  (* the knob space behind [sweep], as charts of axes (see {!axis}) *)
  val space : axis list list
end

(* ---------------- Verilog (parsed sources) ---------------- *)

module Verilog_tool : TOOL = struct
  let tool = Verilog
  let language = "Verilog"
  let paradigm = "Classical RTL"
  let toolchain = "Vivado"
  let tool_type = "LS/PR"
  let openness = "Commercial"
  let aliases = [ "verilog" ]
  let glyph = 'V'
  let legend = "V=Verilog"

  let units_loc =
    Loc.count (Verilog_designs.row_unit ^ Verilog_designs.col_unit)

  let design label source circuit =
    mk Verilog label "Vivado defaults" ~fu:units_loc
      ~axi:(Loc.count source - units_loc)
      ~conf:0 ~listing:source (Stream (cell Verilog label circuit))

  let initial =
    design "initial" Verilog_designs.initial_source
      Verilog_designs.initial_circuit

  let row8col =
    design "1 row + 8 col units" Verilog_designs.row8col_source
      Verilog_designs.row8col_circuit

  let optimized =
    design "optimized" Verilog_designs.rowcol_source
      Verilog_designs.rowcol_circuit

  let sweep = [ initial; row8col; optimized ]
  let space = ladder_space sweep
end

(* ---------------- Chisel ---------------- *)

let chisel_transfo_script = "fold_rows; fold_cols"

(* The Chisel optimized design is RE-DERIVED, not hand-instantiated: the
   flat (initial) architecture plus the transformation script above, each
   step discharged against its verification obligation and its result
   crosschecked against the reference interpreter at force time.  The
   builder's determinism makes the derived netlist node-identical to the
   hand-written [design_rowcol] ladder rung (pinned by a test), so every
   downstream artifact — Table II, Fig. 1, sweep, store digests — is
   byte-identical to the pre-derivation baseline. *)
let derive_chisel_optimized () =
  let subject =
    Transfo.Subject.of_arch
      (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_optimized"
         ())
  in
  match
    Transfo.Engine.run
      (Transfo.Script.parse_exn chisel_transfo_script)
      subject
  with
  | Ok r -> r.Transfo.Engine.rep_subject.Transfo.Subject.circuit
  | Error e ->
      failwith
        ("chisel optimized rederivation: " ^ Transfo.Engine.error_to_string e)

module Chisel_tool : TOOL = struct
  let tool = Chisel
  let language = "Chisel"
  let paradigm = "Functional/RTL"
  let toolchain = "Chisel"
  let tool_type = "HC"
  let openness = "Open-source"
  let aliases = [ "chisel" ]
  let glyph = 'C'
  let legend = "C=Chisel"

  let design label config_desc listing circuit =
    mk_shared Chisel label config_desc ~shared:Listings.chisel_butterfly
      ~listing (Stream (cell Chisel label circuit))

  let initial =
    design "initial" "width inference, combinational kernel"
      Listings.chisel_initial
      (fun () ->
        Chisel.Idct_gen.design_comb Chisel.Idct_gen.Inferred
          ~name:"chisel_initial")

  let row8col =
    design "1 row + 8 col units" "width inference" Listings.chisel_initial
      (fun () ->
        Chisel.Idct_gen.design_row8col Chisel.Idct_gen.Inferred
          ~name:"chisel_row8col")

  let optimized =
    design "optimized" "width inference, macro-pipeline"
      Listings.chisel_optimized
      derive_chisel_optimized

  let sweep = [ initial; row8col; optimized ]
  let space = ladder_space sweep
end

(* ---------------- BSV ---------------- *)

module Bsv_tool : TOOL = struct
  let tool = Bsv
  let language = "BSV"
  let paradigm = "Rule-based/RTL"
  let toolchain = "BSC"
  let tool_type = "HC"
  let openness = "Open-source"
  let aliases = [ "bsv"; "bsc" ]
  let glyph = 'B'
  let legend = "B=BSV"

  let listing_initial = glue Listings.bsv_shared Listings.bsv_initial
  let listing_optimized = glue Listings.bsv_shared Listings.bsv_optimized

  let design label config_desc listing modul options =
    mk_shared Bsv label config_desc ~shared:Listings.bsv_shared ~listing
      (Stream (cell Bsv label (fun () -> Bsv.Idct_bsv.circuit ~options modul)))

  let initial =
    design "initial" "BSC defaults" listing_initial Bsv.Idct_bsv.initial_design
      Bsv.Options.default

  let optimized =
    design "optimized" "BSC defaults" listing_optimized
      Bsv.Idct_bsv.optimized_design Bsv.Options.default

  let sweep =
    (* 26 synthesized circuits: the 24-option grid on the optimized design
       plus the two designs under the default configuration. *)
    initial :: optimized
    :: List.map
         (fun o ->
           design
             ("optimized/" ^ Bsv.Options.describe o)
             (Bsv.Options.describe o) listing_optimized
             Bsv.Idct_bsv.optimized_design o)
         Bsv.Options.all

  (* Two charts: the two designs under default options, then the BSC
     option grid on the optimized design (the nesting order of
     [Bsv.Options.all]: urgency, mux, aggressive, effort fastest). *)
  let space =
    [
      [ enum_axis "design" [ initial.Design.label; optimized.Design.label ] ];
      [
        enum_axis "urgency" [ "declared"; "reversed" ];
        enum_axis "mux-style" [ "priority"; "one-hot" ];
        enum_axis "aggressive-conditions" [ "off"; "on" ];
        enum_axis "scheduler-effort" [ "0"; "1"; "2" ];
      ];
    ]
end

(* ---------------- DSLX ---------------- *)

module Dslx_tool : TOOL = struct
  let tool = Dslx
  let language = "DSLX"
  let paradigm = "Functional"
  let toolchain = "XLS"
  let tool_type = "HLS"
  let openness = "Open-source"
  let aliases = [ "dslx"; "xls" ]
  let glyph = 'X'
  let legend = "X=XLS"

  let listing = Dslx.Emit.emit Dslx.Idct_dslx.program

  let design label stages =
    mk Dslx label
      (if stages = 0 then "combinational"
       else Printf.sprintf "--pipeline_stages=%d" stages)
      ~fu:(Loc.count listing) ~axi:Tool_adapters.dslx_adapter_loc
      ~conf:(if stages = 0 then 0 else 1)
      ~listing
      (Stream
         (cell Dslx label
            (Dslx.Idct_dslx.design ~stages
               ~name:(Printf.sprintf "xls_s%d" stages))))

  let initial = design "initial" 0
  let optimized = design "optimized" 8

  let sweep =
    initial
    :: List.init 18 (fun i -> design (Printf.sprintf "stages=%d" (i + 1)) (i + 1))

  (* One genuine knob: the retiming stage count (0 = combinational). *)
  let space =
    [ [ enum_axis "pipeline-stages" (List.init 19 string_of_int) ] ]
end

(* ---------------- MaxJ ---------------- *)

module Maxj_tool : TOOL = struct
  let tool = Maxj
  let language = "MaxJ"
  let paradigm = "Dataflow"
  let toolchain = "MaxCompiler"
  let tool_type = "HLS"
  let openness = "Commercial"
  let aliases = [ "maxj"; "maxcompiler" ]
  let glyph = 'M'
  let legend = "M=MaxJ"

  (* MaxCompiler generates the PCIe manager, so L^AXI = 0 and the whole
     listing counts as L^FU.  (The FU count concatenates without the glue
     blank line — the historical measurement the artifacts pin down.) *)
  let design label config_desc body build simulate =
    let system = cell Maxj label build in
    mk Maxj label config_desc
      ~fu:(Loc.count (Listings.maxj_shared ^ body))
      ~axi:0 ~conf:0
      ~listing:(glue Listings.maxj_shared body)
      (Pcie { system; simulate = (fun blocks -> simulate (force system) blocks) })

  let initial =
    design "initial" "matrix per tick, PCIe streams" Listings.maxj_initial
      Maxj.Idct_maxj.initial_system
      Maxj.Idct_maxj.simulate_initial

  let optimized =
    design "optimized" "row per tick, on-chip transpose buffer"
      Listings.maxj_optimized
      Maxj.Idct_maxj.opt_system
      Maxj.Idct_maxj.simulate_opt

  let sweep = [ initial; optimized ]
  let space = ladder_space sweep
end

(* ---------------- C / Bambu ---------------- *)

module Bambu_tool : TOOL = struct
  let tool = Bambu
  let language = "C"
  let paradigm = "Imperative"
  let toolchain = "Bambu"
  let tool_type = "HLS"
  let openness = "Open-source"
  let aliases = [ "bambu" ]
  let glyph = 'b'
  let legend = "b=Bambu"

  let listing = Chls.Cprint.emit Chls.Idct_c.program

  let conf_lines (c : Chls.Tool.bambu_config) =
    1 (* preset *) + (if c.Chls.Tool.sdc then 1 else 0)
    + if c.Chls.Tool.chain_effort <> 1 then 1 else 0

  let design label c =
    mk Bambu label (Chls.Tool.describe_bambu c) ~fu:(Loc.count listing)
      ~axi:Chls.Tool.bambu_adapter_loc ~conf:(conf_lines c) ~listing
      (Stream (cell Bambu label (fun () -> Chls.Tool.bambu_circuit c)))

  let initial = design "initial" Chls.Tool.bambu_initial
  let optimized = design "optimized" Chls.Tool.bambu_optimized

  let sweep =
    List.map (fun c -> design (Chls.Tool.describe_bambu c) c) Chls.Tool.bambu_grid

  (* The full 7 x 2 x 3 option grid, axes in the nesting order of
     [Chls.Tool.bambu_grid] (chaining effort fastest).  The preset names
     are read off the grid itself so the two can never drift apart. *)
  let space =
    let preset_names =
      List.filter_map
        (fun (c : Chls.Tool.bambu_config) ->
          if (not c.Chls.Tool.sdc) && c.Chls.Tool.chain_effort = 0 then
            Some c.Chls.Tool.preset
          else None)
        Chls.Tool.bambu_grid
    in
    [
      [
        enum_axis "preset" preset_names;
        enum_axis "speculative-sdc" [ "off"; "on" ];
        enum_axis "chaining-effort" [ "0"; "1"; "2" ];
      ];
    ]
end

(* ---------------- C / Vivado HLS ---------------- *)

module Vhls_tool : TOOL = struct
  let tool = Vivado_hls
  let language = "C"
  let paradigm = "Imperative"
  let toolchain = "Vivado HLS"
  let tool_type = "HLS"
  let openness = "Commercial"
  let aliases = [ "vhls"; "vivado-hls"; "vivado_hls" ]
  let glyph = 'h'
  let legend = "h=VivadoHLS"

  let listing c =
    Chls.Cprint.emit ~pragmas:[ ("idct", Chls.Tool.vhls_pragmas c) ]
      Chls.Idct_c.program

  let design label c =
    mk Vivado_hls label (Chls.Tool.describe_vhls c)
      ~fu:(Loc.count (listing c))
      ~axi:0 (* the INTERFACE pragma generates the adapter *)
      ~conf:0 ~listing:(listing c)
      (Stream (cell Vivado_hls label (fun () -> Chls.Tool.vhls_circuit c)))

  let initial = design "initial" Chls.Tool.vhls_initial
  let optimized = design "optimized" Chls.Tool.vhls_optimized

  let sweep =
    List.map (fun c -> design (Chls.Tool.describe_vhls c) c) Chls.Tool.vhls_ladder

  (* The pragma ladder is a hand-picked path through the pragma space,
     not a product grid — one enumerated axis. *)
  let space = [ [ enum_axis "pragmas" (List.map (fun d -> d.Design.label) sweep) ] ]
end

(* ------------------------------------------------------------------ *)
(* The registration table                                               *)
(* ------------------------------------------------------------------ *)

(* One table, in the paper's column order; Table1, Table2, Fig1 and the
   CLI all iterate it.  An eighth flow registers by adding its module
   here (and its constructor to Design.tool) — nothing else to edit. *)
let all : (module TOOL) list =
  [
    (module Verilog_tool);
    (module Chisel_tool);
    (module Bsv_tool);
    (module Dslx_tool);
    (module Maxj_tool);
    (module Bambu_tool);
    (module Vhls_tool);
  ]

let find t =
  List.find (fun (module T : TOOL) -> T.tool = t) all

let parse_tool name =
  let name = String.lowercase_ascii name in
  List.find_map
    (fun (module T : TOOL) ->
      if List.mem name T.aliases then Some T.tool else None)
    all

let tool_names () =
  List.map (fun (module T : TOOL) -> List.hd T.aliases) all

(* The one [--tools] parser shared by fig1/table2/dse: comma-separated,
   case-insensitive, whitespace-tolerant; an unknown name fails with the
   list of valid names rather than a generic error. *)
let unknown_tool_msg name =
  Printf.sprintf "unknown tool %S (valid tools: %s)" name
    (String.concat ", " (tool_names ()))

let parse_tools s =
  let names =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun n -> n <> "")
  in
  if names = [] then Error "no tool names given (expected e.g. verilog,bsv)"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
          match parse_tool n with
          | None -> Error (unknown_tool_msg n)
          | Some t -> go (if List.mem t acc then acc else t :: acc) rest)
    in
    go [] names

let glyph t =
  let (module T) = find t in
  T.glyph

let legend t =
  let (module T) = find t in
  T.legend

let initial t =
  let (module T) = find t in
  T.initial

let optimized t =
  let (module T) = find t in
  T.optimized

let sweep t =
  let (module T) = find t in
  T.sweep

let space t =
  let (module T) = find t in
  T.space

let delta_loc tool =
  let a = (initial tool).listing and b = (optimized tool).listing in
  let conf_delta = abs ((optimized tool).loc_conf - (initial tool).loc_conf) in
  Loc.delta a b + conf_delta

let all_designs () =
  List.concat_map (fun (module T : TOOL) -> [ T.initial; T.optimized ]) all
