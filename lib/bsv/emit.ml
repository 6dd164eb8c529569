let binop_sym (op : Hw.Netlist.binop) =
  match op with
  | Hw.Netlist.Add -> "+"
  | Hw.Netlist.Sub -> "-"
  | Hw.Netlist.Mul -> "*"
  | Hw.Netlist.And -> "&"
  | Hw.Netlist.Or -> "|"
  | Hw.Netlist.Xor -> "^"
  | Hw.Netlist.Shl -> "<<"
  | Hw.Netlist.Shr -> ">>"
  | Hw.Netlist.Sra -> ">>>"
  | Hw.Netlist.Eq -> "=="
  | Hw.Netlist.Ne -> "!="
  | Hw.Netlist.Lt _ -> "<"
  | Hw.Netlist.Le _ -> "<="

(* Rendering under a naming: a node bound to a [let] prints as its name,
   everything else inline. *)
let render names =
  let rec expr e =
    match Lang.Tbl.find_opt names e with Some n -> n | None -> body e
  and atom e =
    match (Lang.Tbl.find_opt names e, e.Lang.node) with
    | Some n, _ -> n
    | None, (Lang.Const _ | Lang.Read _ | Lang.In _ | Lang.Slice _
            | Lang.Uext _ | Lang.Sext _) ->
        body e
    | None, (Lang.Unop _ | Lang.Binop _ | Lang.Mux _) -> "(" ^ body e ^ ")"
  and body (e : Lang.expr) =
    match e.Lang.node with
    | Lang.Const k ->
        Printf.sprintf "%d'd%d" (Hw.Bits.width k) (Hw.Bits.to_int k)
    | Lang.Read r -> r.Lang.rname
    | Lang.In (name, _) -> name
    | Lang.Unop (Hw.Netlist.Not, x) -> Printf.sprintf "~%s" (atom x)
    | Lang.Unop (Hw.Netlist.Neg, x) -> Printf.sprintf "-%s" (atom x)
    | Lang.Binop (op, x, y) ->
        Printf.sprintf "%s %s %s" (atom x) (binop_sym op) (atom y)
    | Lang.Mux (s, x, y) ->
        Printf.sprintf "%s ? %s : %s" (atom s) (atom x) (atom y)
    | Lang.Slice (x, hi, lo) -> Printf.sprintf "%s[%d:%d]" (atom x) hi lo
    | Lang.Uext (x, w) -> Printf.sprintf "zeroExtend%d(%s)" w (expr x)
    | Lang.Sext (x, w) -> Printf.sprintf "signExtend%d(%s)" w (expr x)
  in
  (expr, body)

let expr_to_string e = fst (render (Lang.Tbl.create 1)) e

(* A block's [let]s: every non-leaf node that two parents (or two roots)
   reach, named [t_<k>] in dependency order.  Printing shared nodes by
   name keeps the listing linear in the number of distinct nodes. *)
let shared_lets roots =
  let uses = Lang.Tbl.create 64 and order = ref [] in
  let rec visit e =
    match Lang.Tbl.find_opt uses e with
    | Some n -> Lang.Tbl.replace uses e (n + 1)
    | None ->
        Lang.Tbl.add uses e 1;
        let operands = Lang.children e in
        List.iter visit operands;
        if operands <> [] then order := e :: !order
  in
  List.iter visit roots;
  let names = Lang.Tbl.create 64 in
  let lets =
    List.filter (fun e -> Lang.Tbl.find uses e > 1) (List.rev !order)
  in
  List.iteri (fun k e -> Lang.Tbl.add names e (Printf.sprintf "t_%d" k)) lets;
  let expr, body = render names in
  (List.map (fun e -> (Lang.Tbl.find names e, body e)) lets, expr)

let emit (m : Lang.modul) =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "interface %s_Ifc;\n" (String.capitalize_ascii m.Lang.mod_name);
  List.iter
    (fun (nm, w) -> pr "  method Action %s(Bit#(%d) x);\n" nm w)
    m.Lang.inputs;
  List.iter
    (fun (nm, e) ->
      pr "  method Bit#(%d) %s();\n" (Lang.infer_width e) nm)
    m.Lang.outputs;
  pr "endinterface\n";
  pr "\n";
  pr "module mk%s (%s_Ifc);\n"
    (String.capitalize_ascii m.Lang.mod_name)
    (String.capitalize_ascii m.Lang.mod_name);
  List.iter
    (fun (r : Lang.reg) ->
      pr "  Reg#(Bit#(%d)) %s <- mkReg(%d);\n" r.Lang.rwidth r.Lang.rname
        r.Lang.rinit)
    m.Lang.regs;
  let print_lets =
    List.iter (fun (name, e) -> pr "    let %s = %s;\n" name e)
  in
  List.iter
    (fun (ru : Lang.rule) ->
      let bound, expr =
        shared_lets
          (List.concat_map
             (fun (a : Lang.action) -> Option.to_list a.Lang.when_ @ [ a.Lang.value ])
             ru.Lang.actions)
      in
      pr "\n";
      (* The guard sits outside the rule body, so it cannot use the lets. *)
      pr "  rule %s (%s);\n" ru.Lang.rule_name (expr_to_string ru.Lang.guard);
      print_lets bound;
      List.iter
        (fun (a : Lang.action) ->
          match a.Lang.when_ with
          | None ->
              pr "    %s <= %s;\n" a.Lang.target.Lang.rname (expr a.Lang.value)
          | Some w ->
              pr "    if (%s) %s <= %s;\n" (expr w) a.Lang.target.Lang.rname
                (expr a.Lang.value))
        ru.Lang.actions;
      pr "  endrule\n")
    m.Lang.rules;
  List.iter
    (fun (nm, e) ->
      let bound, expr = shared_lets [ e ] in
      pr "\n  method Bit#(%d) %s();\n" (Lang.infer_width e) nm;
      print_lets bound;
      pr "    return %s;\n" (expr e);
      pr "  endmethod\n")
    m.Lang.outputs;
  pr "endmodule\n";
  Buffer.contents buf
