type uid = int
type mem_id = int

type signedness = Signed | Unsigned

type unop = Not | Neg

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Sra
  | Eq
  | Ne
  | Lt of signedness
  | Le of signedness

type kind =
  | Input of string
  | Const of Bits.t
  | Unop of unop * uid
  | Binop of binop * uid * uid
  | Mux of uid * uid * uid
  | Slice of uid * int * int
  | Concat of uid * uid
  | Uext of uid
  | Sext of uid
  | Reg of { d : uid; enable : uid option; init : Bits.t }
  | Mem_read of mem_id * uid

type node = { uid : uid; width : int; kind : kind; name : string option }

type write_port = { w_enable : uid; w_addr : uid; w_data : uid }

type mem = {
  mem_id : mem_id;
  mem_name : string;
  mem_size : int;
  mem_width : int;
  mem_writes : write_port list;
}

type t = {
  circuit_name : string;
  nodes : node array;
  mems : mem array;
  inputs : (string * uid) list;
  outputs : (string * uid) list;
}

let node t uid = t.nodes.(uid)
let num_nodes t = Array.length t.nodes

let operands n =
  match n.kind with
  | Input _ | Const _ | Reg _ -> []
  | Mem_read (_, a) -> [ a ]
  | Unop (_, a) | Slice (a, _, _) | Uext a | Sext a -> [ a ]
  | Binop (_, a, b) | Concat (a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]

let reg_inputs n =
  match n.kind with
  | Reg { d; enable = Some e; _ } -> [ d; e ]
  | Reg { d; enable = None; _ } -> [ d ]
  | Input _ | Const _ | Unop _ | Binop _ | Mux _ | Slice _ | Concat _ | Uext _
  | Sext _ | Mem_read _ ->
      []

let is_reg n = match n.kind with Reg _ -> true | _ -> false

let reg_uids t =
  let out = Array.make (Array.length t.nodes) 0 and k = ref 0 in
  Array.iter
    (fun nd ->
      if is_reg nd then begin
        out.(!k) <- nd.uid;
        incr k
      end)
    t.nodes;
  Array.sub out 0 !k

let find_input t name = List.assoc name t.inputs
let find_output t name = List.assoc name t.outputs

let port_error t dir ~caller name =
  let dirname, ports =
    match dir with
    | `In -> ("input", t.inputs)
    | `Out -> ("output", t.outputs)
  in
  invalid_arg
    (Printf.sprintf "%s: no %s port %s (circuit %s has: %s)" caller dirname
       name t.circuit_name
       (String.concat ", " (List.map fst ports)))

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sra -> "sra"
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt Signed -> "slt"
  | Lt Unsigned -> "ult"
  | Le Signed -> "sle"
  | Le Unsigned -> "ule"

let pp_kind ppf = function
  | Input s -> Format.fprintf ppf "input %s" s
  | Const b -> Format.fprintf ppf "const %a" Bits.pp b
  | Unop (Not, a) -> Format.fprintf ppf "not n%d" a
  | Unop (Neg, a) -> Format.fprintf ppf "neg n%d" a
  | Binop (op, a, b) -> Format.fprintf ppf "%s n%d n%d" (binop_name op) a b
  | Mux (s, a, b) -> Format.fprintf ppf "mux n%d n%d n%d" s a b
  | Slice (a, hi, lo) -> Format.fprintf ppf "n%d[%d:%d]" a hi lo
  | Concat (a, b) -> Format.fprintf ppf "concat n%d n%d" a b
  | Uext a -> Format.fprintf ppf "uext n%d" a
  | Sext a -> Format.fprintf ppf "sext n%d" a
  | Reg { d; enable = Some e; _ } -> Format.fprintf ppf "reg d=n%d en=n%d" d e
  | Reg { d; enable = None; _ } -> Format.fprintf ppf "reg d=n%d" d
  | Mem_read (m, a) -> Format.fprintf ppf "mem%d[n%d]" m a

let fail_node t uid fmt =
  Format.kasprintf
    (fun msg ->
      failwith
        (Printf.sprintf "circuit %s: node n%d: %s" t.circuit_name uid msg))
    fmt

(* [f consumer operand] for each combinational edge into [nd], in
   [operands] order, without building the list. *)
let iter_edges f nd =
  let u = nd.uid in
  match nd.kind with
  | Input _ | Const _ | Reg _ -> ()
  | Mem_read (_, a) | Unop (_, a) | Slice (a, _, _) | Uext a | Sext a -> f u a
  | Binop (_, a, b) | Concat (a, b) ->
      f u a;
      f u b
  | Mux (s, a, b) ->
      f u s;
      f u a;
      f u b

(* Per-netlist memos.  A netlist is levelized by the builder, validated
   by the flow, then simulated, interpreted, timed and retimed: each of
   those asks for the same order, so it is computed once per [nodes]
   array, and a passed validation once per record.  A content key is
   computed once per [nodes] array too, and reused only by a record with
   the same memories and ports (physically), such as a renamed copy.
   Keys are compared physically and held weakly (a collected netlist
   drops its entries); the hash reads only contents, which survive a GC
   move.  A failure is never stored: it raises again, with its
   diagnostic, on every call.  Ephemeron tables are not domain-safe,
   hence the one lock. *)
let shape_hash (nodes : node array) =
  let n = Array.length nodes in
  if n = 0 then 0 else Hashtbl.hash (n, nodes.(n / 2), nodes.(n - 1))

module By_nodes = Ephemeron.K1.Make (struct
  type t = node array

  let equal = ( == )
  let hash = shape_hash
end)

type netlist = t

module Validated = Ephemeron.K1.Make (struct
  type t = netlist

  let equal = ( == )
  let hash t = Hashtbl.hash (t.circuit_name, shape_hash t.nodes)
end)

let memo_lock = Mutex.create ()
let orders : uid array By_nodes.t = By_nodes.create 64
let validated : unit Validated.t = Validated.create 64

type keyed = {
  k_mems : mem array;
  k_inputs : (string * uid) list;
  k_outputs : (string * uid) list;
  k_key : string;
}

let keys : keyed By_nodes.t = By_nodes.create 64
let memo_find tbl find k = Mutex.protect memo_lock (fun () -> find tbl k)
let memo_add tbl add k v = Mutex.protect memo_lock (fun () -> add tbl k v)

let levelize t =
  (* Kahn's algorithm over combinational edges (register data inputs are not
     edges).  Any node left unprocessed lies on a combinational cycle.  The
     dependents of node [r] are the slice [start.(r) .. start.(r + 1) - 1]
     of [deps], walked from its end (the latest consumer first), and
     [order] doubles as the FIFO queue: a node is appended once all its
     operands are, and the queue is read front to back. *)
  let n = num_nodes t in
  let indegree = Array.make n 0 and start = Array.make (n + 1) 0 in
  Array.iter
    (iter_edges (fun u r ->
         indegree.(u) <- indegree.(u) + 1;
         start.(r + 1) <- start.(r + 1) + 1))
    t.nodes;
  for r = 1 to n do
    start.(r) <- start.(r) + start.(r - 1)
  done;
  let deps = Array.make start.(n) 0 and fill = Array.sub start 0 n in
  Array.iter
    (iter_edges (fun u r ->
         deps.(fill.(r)) <- u;
         fill.(r) <- fill.(r) + 1))
    t.nodes;
  let order = Array.make n 0 in
  let tail = ref 0 in
  let push u =
    order.(!tail) <- u;
    incr tail
  in
  Array.iter (fun nd -> if indegree.(nd.uid) = 0 then push nd.uid) t.nodes;
  let head = ref 0 in
  while !head < !tail do
    let uid = order.(!head) in
    incr head;
    for k = start.(uid + 1) - 1 downto start.(uid) do
      let d = deps.(k) in
      indegree.(d) <- indegree.(d) - 1;
      if indegree.(d) = 0 then push d
    done
  done;
  if !tail <> n then begin
    let stuck = ref (-1) in
    Array.iteri (fun i deg -> if deg > 0 && !stuck < 0 then stuck := i) indegree;
    failwith
      (Printf.sprintf "circuit %s: combinational cycle through n%d"
         t.circuit_name !stuck)
  end;
  order

let shared_order t =
  match memo_find orders By_nodes.find_opt t.nodes with
  | Some order -> order
  | None ->
      let order = levelize t in
      memo_add orders By_nodes.replace t.nodes order;
      order

(* The caller owns the copy: [Sim] and [Interp] compact it in place. *)
let comb_order t = Array.copy (shared_order t)

(* The checks, in the order their diagnostics take precedence: a node's
   uid and width, its operand references, then its kind's widths; then
   the ports, the memory write ports, and the combinational cycles. *)
let check t =
  let n = num_nodes t in
  let check_ref uid r =
    if r < 0 || r >= n then fail_node t uid "dangling reference n%d" r
  in
  let w r = t.nodes.(r).width in
  Array.iteri
    (fun i nd ->
      if nd.uid <> i then fail_node t i "uid/index mismatch (%d)" nd.uid;
      if nd.width < 1 || nd.width > Bits.max_width then
        fail_node t i "bad width %d" nd.width;
      iter_edges check_ref nd;
      match nd.kind with
      | Input _ -> ()
      | Const b ->
          if Bits.width b <> nd.width then fail_node t i "const width mismatch"
      | Unop (_, a) ->
          if w a <> nd.width then fail_node t i "unop width mismatch"
      | Binop ((Eq | Ne | Lt _ | Le _), a, b) ->
          if nd.width <> 1 then fail_node t i "comparison must be 1 bit wide";
          if w a <> w b then fail_node t i "comparison operand widths differ"
      | Binop ((Shl | Shr | Sra), a, _) ->
          if w a <> nd.width then fail_node t i "shift width mismatch"
      | Binop (_, a, b) ->
          if w a <> nd.width || w b <> nd.width then
            fail_node t i "binop width mismatch (%d op %d -> %d)" (w a) (w b)
              nd.width
      | Mux (s, a, b) ->
          if w s <> 1 then fail_node t i "mux select must be 1 bit";
          if w a <> nd.width || w b <> nd.width then
            fail_node t i "mux arm width mismatch"
      | Slice (a, hi, lo) ->
          if lo < 0 || hi >= w a || hi < lo then
            fail_node t i "slice [%d:%d] out of range for width %d" hi lo (w a);
          if nd.width <> hi - lo + 1 then fail_node t i "slice width mismatch"
      | Concat (a, b) ->
          if nd.width <> w a + w b then fail_node t i "concat width mismatch"
      | Uext a | Sext a ->
          if nd.width < w a then
            fail_node t i "extension narrows %d -> %d" (w a) nd.width
      | Mem_read (m, _) ->
          if m < 0 || m >= Array.length t.mems then
            fail_node t i "dangling memory reference m%d" m;
          if nd.width <> t.mems.(m).mem_width then
            fail_node t i "memory read width mismatch"
      | Reg { d; enable; init } -> (
          check_ref i d;
          (match enable with Some e -> check_ref i e | None -> ());
          if w d <> nd.width then fail_node t i "reg d width mismatch";
          if Bits.width init <> nd.width then
            fail_node t i "reg init width mismatch";
          match enable with
          | Some e when w e <> 1 -> fail_node t i "reg enable must be 1 bit"
          | _ -> ()))
    t.nodes;
  let check_port (name, r) =
    if r < 0 || r >= n then
      failwith
        (Printf.sprintf "circuit %s: port %s dangling" t.circuit_name name)
  in
  List.iter check_port t.inputs;
  List.iter check_port t.outputs;
  Array.iter
    (fun m ->
      List.iter
        (fun w ->
          let check r =
            if r < 0 || r >= n then
              failwith
                (Printf.sprintf "circuit %s: memory %s has a dangling write"
                   t.circuit_name m.mem_name)
          in
          check w.w_enable;
          check w.w_addr;
          check w.w_data;
          if t.nodes.(w.w_enable).width <> 1 then
            failwith
              (Printf.sprintf "circuit %s: memory %s write enable not 1 bit"
                 t.circuit_name m.mem_name);
          if t.nodes.(w.w_data).width <> m.mem_width then
            failwith
              (Printf.sprintf "circuit %s: memory %s write data width"
                 t.circuit_name m.mem_name))
        m.mem_writes)
    t.mems;
  ignore (shared_order t)

let validate t =
  if not (memo_find validated Validated.mem t) then begin
    check t;
    memo_add validated Validated.replace t ()
  end

let content_key t =
  match memo_find keys By_nodes.find_opt t.nodes with
  | Some k
    when k.k_mems == t.mems && k.k_inputs == t.inputs
         && k.k_outputs == t.outputs ->
      k.k_key
  | _ ->
      let key =
        Digest.to_hex
          (Digest.string
             (Marshal.to_string (t.nodes, t.mems, t.inputs, t.outputs)
                [ Marshal.No_sharing ]))
      in
      memo_add keys By_nodes.replace t.nodes
        { k_mems = t.mems; k_inputs = t.inputs; k_outputs = t.outputs;
          k_key = key };
      key

let stats t =
  let tbl = Hashtbl.create 16 in
  let bump k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Array.iter
    (fun nd ->
      match nd.kind with
      | Input _ -> bump "input"
      | Const _ -> bump "const"
      | Unop _ -> bump "unop"
      | Binop (op, _, _) -> bump (binop_name op)
      | Mux _ -> bump "mux"
      | Slice _ -> bump "slice"
      | Concat _ -> bump "concat"
      | Uext _ | Sext _ -> bump "ext"
      | Reg _ -> bump "reg"
      | Mem_read _ -> bump "mem_read")
    t.nodes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
