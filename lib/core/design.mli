(** Uniform descriptor of one evaluated design point. *)

type tool = Verilog | Chisel | Bsv | Dslx | Maxj | Bambu | Vivado_hls

type pcie = {
  system : Maxj.Manager.system Once.t;
  simulate : Axis.Block.t list -> Axis.Block.t list;
      (** the design's own bit-true stream simulator — compliance and the
          flow's verify stage dispatch on the design itself *)
}

type impl =
  | Stream of Hw.Netlist.t Once.t
      (** AXI-Stream wrapped circuit (everything except MaxJ) *)
  | Pcie of pcie  (** MaxCompiler system: kernel + PCIe manager *)

type t = {
  tool : tool;
  label : string;          (** e.g. "initial", "optimized", "stages=4" *)
  config_desc : string;    (** tool options in force *)
  loc_fu : int;            (** L^FU: functional-unit source lines *)
  loc_axi : int;           (** L^AXI: hand-written adapter lines (0 if generated) *)
  loc_conf : int;          (** L^Conf: configuration lines *)
  impl : impl;
  listing : string;        (** the counted source text *)
}

val loc : t -> int
(** [L = L^FU + L^AXI + L^Conf]. *)

val force : 'a Once.t -> 'a
(** {!Once.force}: builds a design's netlist or system on first use, from
    any domain.  Concurrent forces of one design wait for its single
    construction; different designs build in parallel. *)

val cell : tool -> string -> (unit -> 'a) -> 'a Once.t
(** [cell tool label f]: a design's cold cell, named by its
    ["Tool/label"] key. *)

val language_name : tool -> string
val tool_name : tool -> string
val all_tools : tool list
(** In the paper's column order. *)
