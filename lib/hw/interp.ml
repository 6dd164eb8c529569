(* Reference interpreter: walks the full levelized order every settle and
   dispatches on the node kind each time.  It is only the oracle the
   simulator ({!Sim}) is cross-checked against; nothing in production
   runs on it. *)

type t = {
  c : Netlist.t;
  order : Netlist.uid array;
  values : int array;
  masks : int array;
  widths : int array;
  regs : Netlist.uid array;
  reg_next : int array;              (* scratch for atomic register update *)
  mem_data : int array array;        (* per memory, current contents *)
  input_ids : (string, Netlist.uid) Hashtbl.t;
  output_ids : (string, Netlist.uid) Hashtbl.t;
  mutable dirty : bool;
}

let create c =
  let n = Netlist.num_nodes c in
  let masks = Array.make n 0 in
  let widths = Array.make n 0 in
  Array.iter
    (fun (nd : Netlist.node) ->
      masks.(nd.uid) <- Bits.mask nd.width;
      widths.(nd.uid) <- nd.width)
    c.nodes;
  let regs =
    Array.of_list
      (Array.to_list c.nodes
      |> List.filter Netlist.is_reg
      |> List.map (fun (nd : Netlist.node) -> nd.uid))
  in
  let input_ids = Hashtbl.create 16 and output_ids = Hashtbl.create 16 in
  List.iter (fun (nm, u) -> Hashtbl.replace input_ids nm u) c.inputs;
  List.iter (fun (nm, u) -> Hashtbl.replace output_ids nm u) c.outputs;
  let t =
    {
      c;
      order = Netlist.comb_order c;
      mem_data =
        Array.map (fun (m : Netlist.mem) -> Array.make m.Netlist.mem_size 0) c.mems;
      values = Array.make n 0;
      masks;
      widths;
      regs;
      reg_next = Array.make (Array.length regs) 0;
      input_ids;
      output_ids;
      dirty = true;
    }
  in
  (* Load initial register values. *)
  Array.iter
    (fun u ->
      match (Netlist.node c u).kind with
      | Netlist.Reg { init; _ } -> t.values.(u) <- Bits.to_int init
      | _ -> assert false)
    regs;
  t

let signed_of t uid v =
  let w = t.widths.(uid) in
  (* Valid up to width 62: [1 lsl 62] is [min_int] and the subtraction
     wraps modulo 2^63 to the right negative value. *)
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

let eval_node t (nd : Netlist.node) =
  let v = t.values in
  let m = t.masks.(nd.uid) in
  let r =
    match nd.kind with
    | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ ->
        (* Inputs and register outputs are sources; constants are loaded
           once below in [settle]'s first pass via this same match. *)
        (match nd.kind with
        | Netlist.Const b -> Bits.to_int b
        | _ -> v.(nd.uid))
    | Netlist.Unop (Netlist.Not, a) -> lnot v.(a)
    | Netlist.Unop (Netlist.Neg, a) -> -v.(a)
    | Netlist.Binop (op, a, b) -> (
        let x = v.(a) and y = v.(b) in
        match op with
        | Netlist.Add -> x + y
        | Netlist.Sub -> x - y
        | Netlist.Mul ->
            if t.widths.(a) <= 31 then x * y
            else ((x land 0xFFFF) * y) + (((x lsr 16) * y) lsl 16)
        | Netlist.And -> x land y
        | Netlist.Or -> x lor y
        | Netlist.Xor -> x lxor y
        | Netlist.Shl ->
            (* The guard is against the *result* width: a shift whose result
               node is wider than its operand keeps bits the operand width
               would discard. *)
            if y >= t.widths.(nd.uid) then 0 else x lsl y
        | Netlist.Shr -> if y >= t.widths.(a) then 0 else x lsr y
        | Netlist.Sra ->
            let s = min y (t.widths.(a) - 1) in
            signed_of t a x asr s
        | Netlist.Eq -> if x = y then 1 else 0
        | Netlist.Ne -> if x <> y then 1 else 0
        | Netlist.Lt Netlist.Unsigned -> if x < y then 1 else 0
        | Netlist.Lt Netlist.Signed ->
            if signed_of t a x < signed_of t b y then 1 else 0
        | Netlist.Le Netlist.Unsigned -> if x <= y then 1 else 0
        | Netlist.Le Netlist.Signed ->
            if signed_of t a x <= signed_of t b y then 1 else 0)
    | Netlist.Mux (s, a, b) -> if v.(s) <> 0 then v.(a) else v.(b)
    | Netlist.Slice (a, _, lo) -> v.(a) lsr lo
    | Netlist.Concat (a, b) -> (v.(a) lsl t.widths.(b)) lor v.(b)
    | Netlist.Uext a -> v.(a)
    | Netlist.Sext a -> signed_of t a v.(a)
    | Netlist.Mem_read (mem, addr) ->
        let contents = t.mem_data.(mem) in
        let a = v.(addr) in
        if a < Array.length contents then contents.(a) else 0
  in
  v.(nd.uid) <- r land m

let settle t =
  if t.dirty then begin
    Array.iter (fun u -> eval_node t t.c.nodes.(u)) t.order;
    t.dirty <- false
  end

let resolve t dir ~caller name =
  let tbl = match dir with `In -> t.input_ids | `Out -> t.output_ids in
  match Hashtbl.find_opt tbl name with
  | Some u -> u
  | None -> Netlist.port_error t.c dir ~caller name

let set t name v =
  let p = resolve t `In ~caller:"Interp.set" name in
  t.values.(p) <- v land t.masks.(p);
  t.dirty <- true

let get t name =
  let p = resolve t `Out ~caller:"Interp.get" name in
  settle t;
  t.values.(p)

let step t =
  settle t;
  (* Memory writes: gather first (reads of this cycle see old contents). *)
  let mem_updates = ref [] in
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          if t.values.(w.Netlist.w_enable) <> 0 then
            let a = t.values.(w.Netlist.w_addr) in
            if a < t.c.mems.(mi).Netlist.mem_size then
              mem_updates := (mi, a, t.values.(w.Netlist.w_data)) :: !mem_updates)
        m.Netlist.mem_writes)
    t.c.mems;
  Array.iteri
    (fun i u ->
      match (Netlist.node t.c u).kind with
      | Netlist.Reg { d; enable; _ } ->
          let load =
            match enable with None -> true | Some e -> t.values.(e) <> 0
          in
          t.reg_next.(i) <- (if load then t.values.(d) else t.values.(u))
      | _ -> assert false)
    t.regs;
  Array.iteri (fun i u -> t.values.(u) <- t.reg_next.(i)) t.regs;
  (* The gather above consed, so reverse to apply in declared port order:
     when two enabled ports hit one address, the later-declared port wins. *)
  List.iter (fun (mi, a, d) -> t.mem_data.(mi).(a) <- d) (List.rev !mem_updates);
  t.dirty <- true

let peek t uid =
  settle t;
  t.values.(uid)

let mem_word t mem addr = t.mem_data.(mem).(addr)
