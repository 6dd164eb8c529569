(** Table I as data: the seven tool flows under evaluation (DESIGN.md
    §10).

    One {!entry} per flow carries what Table I prints beyond
    {!Design.language_name}/{!Design.tool_name}, plus the flow's CLI
    aliases and its Fig. 1 glyph and legend.  Table1, the [--tools]
    parser and the Fig. 1 legends read this table; the designs each flow
    builds belong to the benchmark kernels ({!Kernel}). *)

type entry = {
  tool : Design.tool;
  paradigm : string;
  tool_type : string;  (** HC, HLS or LS/PR *)
  openness : string;
  aliases : string list;  (** lower-case CLI names accepted for [--tool] *)
  glyph : char;  (** the Fig. 1 scatter glyph *)
  legend : string;
      (** the Fig. 1 legend entry, ["V=Verilog"] — glyph plus the plot's
          display name (which differs from [Design.tool_name] for BSV,
          MaxJ and Vivado HLS) *)
}

val all : entry list
(** The registration table, in the paper's column order. *)

val parse_tool : string -> Design.tool option
(** Resolve a CLI name through the alias lists (case-insensitive). *)

val tool_names : unit -> string list
(** The primary CLI name of every registered tool, in registry order. *)

val unknown_tool_msg : string -> string
(** The canonical "unknown tool" diagnostic, listing the valid names —
    shared by {!parse_tools} and the serve request parser. *)

val parse_tools : string -> (Design.tool list, string) result
(** The shared [--tools] parser: a comma-separated, case-insensitive,
    whitespace-tolerant name list, deduplicated in first-mention order.
    An unknown name yields an error listing the valid tool names. *)

val glyph : Design.tool -> char
val legend : Design.tool -> string
