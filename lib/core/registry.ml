open Design

type entry = {
  tool : Design.tool;
  paradigm : string;
  tool_type : string;
  openness : string;
  aliases : string list;
  glyph : char;
  legend : string;
}

(* One table, in the paper's column order; Table1, the CLI and the
   Fig. 1 legends all iterate it.  An eighth flow registers by adding its
   row here (and its constructor to Design.tool). *)
let all =
  [
    {
      tool = Verilog;
      paradigm = "Classical RTL";
      tool_type = "LS/PR";
      openness = "Commercial";
      aliases = [ "verilog" ];
      glyph = 'V';
      legend = "V=Verilog";
    };
    {
      tool = Chisel;
      paradigm = "Functional/RTL";
      tool_type = "HC";
      openness = "Open-source";
      aliases = [ "chisel" ];
      glyph = 'C';
      legend = "C=Chisel";
    };
    {
      tool = Bsv;
      paradigm = "Rule-based/RTL";
      tool_type = "HC";
      openness = "Open-source";
      aliases = [ "bsv"; "bsc" ];
      glyph = 'B';
      legend = "B=BSV";
    };
    {
      tool = Dslx;
      paradigm = "Functional";
      tool_type = "HLS";
      openness = "Open-source";
      aliases = [ "dslx"; "xls" ];
      glyph = 'X';
      legend = "X=XLS";
    };
    {
      tool = Maxj;
      paradigm = "Dataflow";
      tool_type = "HLS";
      openness = "Commercial";
      aliases = [ "maxj"; "maxcompiler" ];
      glyph = 'M';
      legend = "M=MaxJ";
    };
    {
      tool = Bambu;
      paradigm = "Imperative";
      tool_type = "HLS";
      openness = "Open-source";
      aliases = [ "bambu" ];
      glyph = 'b';
      legend = "b=Bambu";
    };
    {
      tool = Vivado_hls;
      paradigm = "Imperative";
      tool_type = "HLS";
      openness = "Commercial";
      aliases = [ "vhls"; "vivado-hls"; "vivado_hls" ];
      glyph = 'h';
      legend = "h=VivadoHLS";
    };
  ]

let find t = List.find (fun e -> e.tool = t) all

let parse_tool name =
  let name = String.lowercase_ascii name in
  List.find_map
    (fun e -> if List.mem name e.aliases then Some e.tool else None)
    all

let tool_names () = List.map (fun e -> List.hd e.aliases) all

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

let glyph t = (find t).glyph
let legend t = (find t).legend
