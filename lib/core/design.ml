type tool = Verilog | Chisel | Bsv | Dslx | Maxj | Bambu | Vivado_hls

type pcie = {
  system : Maxj.Manager.system Once.t;
  simulate : Axis.Block.t list -> Axis.Block.t list;
      (* the design's own bit-true stream simulator: compliance and the
         flow's verify stage dispatch on the design, never on a fixed
         kernel (the pre-refactor bug) *)
}

type impl =
  | Stream of Hw.Netlist.t Once.t
  | Pcie of pcie

type t = {
  tool : tool;
  label : string;
  config_desc : string;
  loc_fu : int;
  loc_axi : int;
  loc_conf : int;
  impl : impl;
  listing : string;
}

let loc t = t.loc_fu + t.loc_axi + t.loc_conf

(* Kernel design points are shared top-level values, so their cells
   can be forced from several domains at once — two concurrent serve
   batches evaluating one design, say.  [Once] builds each cell once and
   lets different cells build in parallel. *)
let force = Once.force

let language_name = function
  | Verilog -> "Verilog"
  | Chisel -> "Chisel"
  | Bsv -> "BSV"
  | Dslx -> "DSLX"
  | Maxj -> "MaxJ"
  | Bambu -> "C"
  | Vivado_hls -> "C"

let tool_name = function
  | Verilog -> "Vivado"
  | Chisel -> "Chisel"
  | Bsv -> "BSC"
  | Dslx -> "XLS"
  | Maxj -> "MaxCompiler"
  | Bambu -> "Bambu"
  | Vivado_hls -> "Vivado HLS"

let all_tools = [ Verilog; Chisel; Bsv; Dslx; Maxj; Bambu; Vivado_hls ]

let cell tool label f = Once.make (tool_name tool ^ "/" ^ label) f
