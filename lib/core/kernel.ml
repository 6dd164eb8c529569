(* The kernel registration table.  Each benchmark kernel is a record:
   its Flow.spec (stimulus / reference / compliance / timeout policy),
   its CLI aliases and its per-tool design inventories (initial /
   optimized / sweep / knob space).  Every artifact generator (Fig1,
   Table2, comply, sweep, dse, serve, the CLI) iterates this table.  The
   paper's IDCT inventories are written out below; the extension kernels
   are instances of the Dot_kernel template. *)

open Design

type axis = { axis_name : string; axis_values : string list }

type inventory = {
  inv_tool : Design.tool;
  inv_initial : Design.t;
  inv_optimized : Design.t;
  inv_sweep : Design.t list;
  inv_space : axis list list;
}

type t = { spec : Flow.spec; aliases : string list; inventories : inventory list }

(* lib/transfo cannot depend on Core.Trace or Core.Parallel (Core
   depends on transfo), so the engine's tracing and its fork onto spare
   pool domains are injected here, where both sides are visible.  Kernel
   is linked into every entry point, so the hooks are always in place
   before a script runs. *)
let () =
  Transfo.Engine.set_tracer
    {
      Transfo.Engine.wrap =
        (fun ~design ~stage f -> Trace.with_span ~design ~stage f);
      counter = Trace.add_counter;
    };
  Transfo.Engine.set_forker
    {
      Transfo.Engine.fork =
        (fun f ->
          let fk = Parallel.fork f in
          ((fun () -> Parallel.join fk), fun () -> Parallel.drop fk));
    }

(* ------------------------------------------------------------------ *)
(* Design constructors, the shared listing policy and knob spaces       *)
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

(* A listing made of a functional-unit part and a tool-specific body is
   glued with one blank line; the FU lines count as L^FU and the
   remainder as L^AXI. *)
let glue shared body = shared ^ "\n\n" ^ body

let mk_shared tool label config_desc ~shared_loc (listing, listing_loc) impl =
  mk tool label config_desc ~fu:shared_loc ~axi:(listing_loc - shared_loc)
    ~conf:0 ~listing impl

(* A listing with its line count: an inventory counts each listing once,
   not once per design point. *)
let counted listing = (listing, Loc.count listing)

(* Hand-written AXI-Stream adapters (Section III-C), counted as L^AXI.
   The paper pairs XLS's bare kernel and Bambu's bare datapath each with
   a hand-crafted Verilog adapter: for XLS the deserializer/serializer of
   Axis.Adapter (the size of the Verilog baseline's adapter portion), for
   Bambu a deserializer, FSM handshake and serializer.  Vivado HLS
   generates its interface from a pragma and MaxCompiler its PCIe
   manager, so their L^AXI is 0. *)
let dslx_adapter_loc = 52
let bambu_adapter_loc = 58

(* A tool's knob space, exposed as data next to the sweep that realises
   it.  A chart is one product block of the sweep: row-major enumeration
   of its axes (last axis fastest) covers a contiguous run of the sweep,
   in order.  Tools whose sweep is a genuine option grid (Bambu, BSC,
   XLS) expose the real axes; a hand-picked ladder exposes a single
   enumerated axis of its labels. *)
let enum_axis name values = { axis_name = name; axis_values = values }

let ladder_space sweep =
  [ [ enum_axis "design" (List.map (fun d -> d.label) sweep) ] ]

let inventory_of ?space ~initial ~optimized sweep =
  {
    inv_tool = initial.tool;
    inv_initial = initial;
    inv_optimized = optimized;
    inv_sweep = sweep;
    inv_space = Option.value space ~default:(ladder_space sweep);
  }

(* A ladder: the sweep runs from the initial to the optimized design. *)
let ladder sweep =
  inventory_of ~initial:(List.hd sweep)
    ~optimized:(List.nth sweep (List.length sweep - 1))
    sweep

(* Back ends built once per intermediate.  A tool's cheap front half
   runs per design point; its back half runs once per key, the content
   of the intermediate it reads, in a table of [Once] cells: every point
   with that key gets the one value, built by the first caller.  A point
   served from a back end's table marks its [elaborate] span with
   [shared] = 1. *)
let once_table ?(back_end = true) name =
  let cells = Hashtbl.create 16 and lock = Mutex.create () in
  fun key build ->
    let cell, found =
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt cells key with
          | Some cell -> (cell, true)
          | None ->
              let cell = Once.make name build in
              Hashtbl.add cells key cell;
              (cell, false))
    in
    if found && back_end then Trace.add_counter "shared" 1;
    Once.force cell

(* ------------------------------------------------------------------ *)
(* The paper's IDCT, one inventory per tool                             *)
(* ------------------------------------------------------------------ *)

(* ---------------- Verilog (parsed sources) ---------------- *)

let verilog =
  let units_loc =
    Loc.count (Verilog_designs.row_unit ^ Verilog_designs.col_unit)
  in
  let design label source circuit =
    mk Verilog label "Vivado defaults" ~fu:units_loc
      ~axi:(Loc.count source - units_loc)
      ~conf:0 ~listing:source (Stream (cell Verilog label circuit))
  in
  ladder
    [
      design "initial" Verilog_designs.initial_source
        Verilog_designs.initial_circuit;
      design "1 row + 8 col units" Verilog_designs.row8col_source
        Verilog_designs.row8col_circuit;
      design "optimized" Verilog_designs.rowcol_source
        Verilog_designs.rowcol_circuit;
    ]

(* ---------------- Chisel ---------------- *)

let chisel_transfo_script = "fold_rows; fold_cols"

(* The Chisel optimized design is RE-DERIVED, not hand-instantiated: the
   flat (initial) architecture plus the transformation script above, each
   step discharged against its verification obligation and its result
   crosschecked against the reference interpreter at force time.  The
   builder's determinism makes the derived netlist node-identical to the
   hand-written [design_rowcol] ladder rung (pinned by a test), so every
   downstream artifact is byte-identical to the hand-written design's. *)
let derive_chisel_optimized () =
  let subject =
    Transfo.Subject.of_arch
      (Chisel.Idct_gen.arch Chisel.Idct_gen.Inferred ~name:"chisel_optimized"
         ())
  in
  match
    Transfo.Engine.run (Transfo.Script.parse_exn chisel_transfo_script) subject
  with
  | Ok r -> r.Transfo.Engine.rep_subject.Transfo.Subject.circuit
  | Error e ->
      failwith
        ("chisel optimized rederivation: " ^ Transfo.Engine.error_to_string e)

let chisel =
  let shared_loc = Loc.count Listings.chisel_butterfly in
  let initial = counted Listings.chisel_initial in
  let design label config_desc listing circuit =
    mk_shared Chisel label config_desc ~shared_loc listing
      (Stream (cell Chisel label circuit))
  in
  ladder
    [
      design "initial" "width inference, combinational kernel"
        initial (fun () ->
          Chisel.Idct_gen.design_comb Chisel.Idct_gen.Inferred
            ~name:"chisel_initial");
      design "1 row + 8 col units" "width inference" initial (fun () ->
          Chisel.Idct_gen.design_row8col Chisel.Idct_gen.Inferred
            ~name:"chisel_row8col");
      design "optimized" "width inference, macro-pipeline"
        (counted Listings.chisel_optimized) derive_chisel_optimized;
    ]

(* ---------------- BSV ---------------- *)

(* The rule module is built on first use, once per process, and shared
   by every point compiled from it.  Each point schedules the module;
   the compiler's back end runs once per [Bsv.Compile.key] (the 25
   points of the optimized module have 8 distinct keys). *)
let bsv_compiler name build =
  let modul = Once.make name build and generated = once_table "BSC/generate" in
  fun options ->
    let m = Once.force modul in
    let sched = Bsv.Sched.analyze ~options m in
    generated (Bsv.Compile.key ~options m sched) (fun () ->
        Bsv.Compile.generate ~options m sched)

let bsv_initial = bsv_compiler "BSC/initial module" Bsv.Idct_bsv.initial_design

let bsv_optimized =
  bsv_compiler "BSC/optimized module" Bsv.Idct_bsv.optimized_design

let bsv =
  let listing_optimized =
    counted (glue Listings.bsv_shared Listings.bsv_optimized)
  in
  let shared_loc = Loc.count Listings.bsv_shared in
  let design label config_desc listing compile options =
    mk_shared Bsv label config_desc ~shared_loc listing
      (Stream (cell Bsv label (fun () -> compile options)))
  in
  let initial =
    design "initial" "BSC defaults"
      (counted (glue Listings.bsv_shared Listings.bsv_initial))
      bsv_initial Bsv.Options.default
  in
  let optimized =
    design "optimized" "BSC defaults" listing_optimized bsv_optimized
      Bsv.Options.default
  in
  (* 26 synthesized circuits: the two designs under the default
     configuration, then the 24-option grid on the optimized design (the
     nesting order of [Bsv.Options.all]: urgency, mux, aggressive,
     effort fastest). *)
  inventory_of ~initial ~optimized
    (initial :: optimized
    :: List.map
         (fun o ->
           design
             ("optimized/" ^ Bsv.Options.describe o)
             (Bsv.Options.describe o) listing_optimized bsv_optimized o)
         Bsv.Options.all)
    ~space:
      [
        [ enum_axis "design" [ initial.label; optimized.label ] ];
        [
          enum_axis "urgency" [ "declared"; "reversed" ];
          enum_axis "mux-style" [ "priority"; "one-hot" ];
          enum_axis "aggressive-conditions" [ "off"; "on" ];
          enum_axis "scheduler-effort" [ "0"; "1"; "2" ];
        ];
      ]

(* ---------------- DSLX ---------------- *)

let dslx =
  let listing = Dslx.Emit.emit Dslx.Idct_dslx.program in
  (* Type-checked and lowered once per process, on first use (a top-level
     value would cost every command's start-up); each point retimes it. *)
  let kernel = Once.make "XLS/kernel" Dslx.Idct_dslx.kernel_circuit in
  let fu = Loc.count listing in
  let design label stages =
    mk Dslx label
      (if stages = 0 then "combinational"
       else Printf.sprintf "--pipeline_stages=%d" stages)
      ~fu ~axi:dslx_adapter_loc
      ~conf:(if stages = 0 then 0 else 1)
      ~listing
      (Stream
         (cell Dslx label
            (fun () ->
              Dslx.Idct_dslx.design ~stages ~kernel:(Once.force kernel)
                ~name:(Printf.sprintf "xls_s%d" stages) ())))
  in
  let initial = design "initial" 0 in
  (* One genuine knob: the retiming stage count (0 = combinational). *)
  inventory_of ~initial ~optimized:(design "optimized" 8)
    (initial
    :: List.init 18 (fun i -> design (Printf.sprintf "stages=%d" (i + 1)) (i + 1))
    )
    ~space:[ [ enum_axis "pipeline-stages" (List.init 19 string_of_int) ] ]

(* ---------------- MaxJ ---------------- *)

(* MaxCompiler generates the PCIe manager, so L^AXI = 0 and the whole
   listing counts as L^FU.  (The FU count concatenates without the glue
   blank line — the historical measurement the artifacts pin down.) *)
let maxj =
  let design label config_desc body build simulate =
    let system = cell Maxj label build in
    mk Maxj label config_desc
      ~fu:(Loc.count (Listings.maxj_shared ^ body))
      ~axi:0 ~conf:0
      ~listing:(glue Listings.maxj_shared body)
      (Pcie { system; simulate = (fun blocks -> simulate (force system) blocks) })
  in
  ladder
    [
      design "initial" "matrix per tick, PCIe streams" Listings.maxj_initial
        Maxj.Idct_maxj.initial_system Maxj.Idct_maxj.simulate_initial;
      design "optimized" "row per tick, on-chip transpose buffer"
        Listings.maxj_optimized Maxj.Idct_maxj.opt_system
        Maxj.Idct_maxj.simulate_opt;
    ]

(* ---------------- C / Bambu ---------------- *)

(* Bambu's and Vivado HLS's sequential flow: a program is lowered once
   per set of transformation options, each point schedules it, and one
   FSM is generated per distinct schedule ([Chls.Fsm.key]), then renamed
   for the point. *)
let c_circuit =
  let lowered = once_table ~back_end:false "C/lower" and fsms = once_table "C/fsm" in
  function
  | Chls.Tool.Pipelined build -> build ()
  | Chls.Tool.Sequential { name; cfg; opts; program } ->
      let proc =
        lowered (opts, program) (fun () ->
            Chls.Transform.lower opts program)
      in
      let sched = Chls.Tool.schedule cfg proc in
      let c =
        fsms (Chls.Fsm.key sched) (fun () -> Chls.Fsm.circuit ~name sched)
      in
      { c with Hw.Netlist.circuit_name = name }

let bambu =
  let listing = Chls.Cprint.emit Chls.Idct_c.program in
  let fu = Loc.count listing in
  let design label (c : Chls.Tool.bambu_config) =
    let conf =
      1 (* preset *) + (if c.sdc then 1 else 0)
      + if c.chain_effort <> 1 then 1 else 0
    in
    mk Bambu label (Chls.Tool.describe_bambu c) ~fu
      ~axi:bambu_adapter_loc ~conf ~listing
      (Stream (cell Bambu label (fun () -> c_circuit (Chls.Tool.bambu_plan c))))
  in
  (* The full 7 x 2 x 3 option grid, axes in the nesting order of
     [Chls.Tool.bambu_grid] (chaining effort fastest).  The preset names
     are read off the grid itself so the two can never drift apart. *)
  let presets =
    List.filter_map
      (fun (c : Chls.Tool.bambu_config) ->
        if (not c.sdc) && c.chain_effort = 0 then Some c.preset else None)
      Chls.Tool.bambu_grid
  in
  inventory_of
    ~initial:(design "initial" Chls.Tool.bambu_initial)
    ~optimized:(design "optimized" Chls.Tool.bambu_optimized)
    (List.map (fun c -> design (Chls.Tool.describe_bambu c) c) Chls.Tool.bambu_grid)
    ~space:
      [
        [
          enum_axis "preset" presets;
          enum_axis "speculative-sdc" [ "off"; "on" ];
          enum_axis "chaining-effort" [ "0"; "1"; "2" ];
        ];
      ]

(* ---------------- C / Vivado HLS ---------------- *)

(* The pragma ladder is a hand-picked path through the pragma space, not
   a product grid — one enumerated axis. *)
let vhls =
  (* One listing per ladder rung; the initial and optimized points are
     rungs too. *)
  let listings =
    List.map
      (fun c ->
        ( c,
          counted
            (Chls.Cprint.emit ~pragmas:[ ("idct", Chls.Tool.vhls_pragmas c) ]
               Chls.Idct_c.program) ))
      Chls.Tool.vhls_ladder
  in
  let design label c =
    let listing, loc = List.assoc c listings in
    mk Vivado_hls label (Chls.Tool.describe_vhls c) ~fu:loc
      ~axi:0 (* the INTERFACE pragma generates the adapter *)
      ~conf:0 ~listing
      (Stream
         (cell Vivado_hls label (fun () -> c_circuit (Chls.Tool.vhls_plan c))))
  in
  let sweep =
    List.map (fun c -> design (Chls.Tool.describe_vhls c) c) Chls.Tool.vhls_ladder
  in
  inventory_of
    ~initial:(design "initial" Chls.Tool.vhls_initial)
    ~optimized:(design "optimized" Chls.Tool.vhls_optimized)
    sweep
    ~space:[ [ enum_axis "pragmas" (List.map (fun d -> d.label) sweep) ] ]

(* ------------------------------------------------------------------ *)
(* The registration table                                               *)
(* ------------------------------------------------------------------ *)

let idct =
  {
    spec = Flow.idct_spec;
    aliases = [ "idct" ];
    inventories = [ verilog; chisel; bsv; dslx; maxj; bambu; vhls ];
  }

(* A dot-product kernel is one design per tool: the sweep is that point
   and the knob space a single one-value axis, so dse/sweep/fig1 iterate
   it unchanged. *)
let of_dot aliases dot =
  {
    spec = Dot_kernel.spec dot;
    aliases;
    inventories =
      List.map
        (fun d -> inventory_of ~initial:d ~optimized:d [ d ])
        (Dot_kernel.designs dot);
  }

let all =
  [
    idct;
    of_dot [ "fir8"; "fir" ] Dot_kernel.fir;
    of_dot [ "matmul8"; "matmul" ] Dot_kernel.matmul;
  ]

let name k = k.spec.Flow.spec_name
let spec k = k.spec
let find n = List.find_opt (fun k -> name k = n) all

let parse_kernel s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun k -> List.mem s k.aliases) all

let kernel_names () = List.map (fun k -> List.hd k.aliases) all

let unknown_kernel_msg s =
  Printf.sprintf "unknown kernel %S (kernels: %s)" s
    (String.concat ", " (kernel_names ()))

let tools k = List.map (fun i -> i.inv_tool) k.inventories
let inventory k tool = List.find_opt (fun i -> i.inv_tool = tool) k.inventories

let inventory_exn k tool =
  match inventory k tool with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "kernel %s has no %s designs (tools: %s)" (name k)
           (Design.tool_name tool)
           (String.concat ", " (List.map Design.tool_name (tools k))))

let initial k tool = (inventory_exn k tool).inv_initial
let optimized k tool = (inventory_exn k tool).inv_optimized
let sweep k tool = (inventory_exn k tool).inv_sweep
let space k tool = (inventory_exn k tool).inv_space

let delta_loc k tool =
  let i = initial k tool and o = optimized k tool in
  Loc.delta i.listing o.listing + abs (o.loc_conf - i.loc_conf)

let all_designs k = List.concat_map (fun i -> i.inv_sweep) k.inventories
