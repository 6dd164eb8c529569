(* Reference interpreter: walks every combinational node in levelized
   order on each settle and dispatches on the node kind each time.  The
   sources hold their values between settles: constants are loaded at
   [create], inputs at [set] and registers at [step].  It is only the
   oracle the simulator ({!Sim}) is cross-checked against; nothing in
   production runs on it.

   Lanes: [create ~lanes] runs that many independent simulations of the
   circuit in lockstep.  Each lane owns its value array and its memory
   arrays, so no lane can read another's state; [settle] walks [comb]
   once and evaluates every lane inside each arm of the match on the
   node kind. *)

type t = {
  c : Netlist.t;
  comb : Netlist.node array;         (* non-source nodes, in [comb_order] *)
  values : int array array;          (* by lane, then uid *)
  masks : int array;
  widths : int array;
  regs : Netlist.uid array;
  reg_next : int array;              (* scratch for atomic register update *)
  mem_data : int array array array;  (* by lane, then memory: contents *)
  input_ids : (string, Netlist.uid) Hashtbl.t;
  output_ids : (string, Netlist.uid) Hashtbl.t;
  mutable dirty : bool;
}

let lanes t = Array.length t.values

(* Registers back to [init], memories zeroed; constants and inputs keep
   their values. *)
let reset t =
  Array.iter
    (Array.iter (fun m -> Array.fill m 0 (Array.length m) 0))
    t.mem_data;
  Array.iter
    (fun u ->
      match (Netlist.node t.c u).kind with
      | Netlist.Reg { init; _ } ->
          let v = Bits.to_int init land t.masks.(u) in
          Array.iter (fun values -> values.(u) <- v) t.values
      | _ -> assert false)
    t.regs;
  t.dirty <- true

let create ?(lanes = 1) c =
  if lanes < 1 then invalid_arg "Interp.create: lanes must be >= 1";
  let n = Netlist.num_nodes c in
  let masks = Array.make n 0 in
  let widths = Array.make n 0 in
  Array.iter
    (fun (nd : Netlist.node) ->
      masks.(nd.uid) <- Bits.mask nd.width;
      widths.(nd.uid) <- nd.width)
    c.nodes;
  let regs = Netlist.reg_uids c in
  let input_ids = Hashtbl.create 16 and output_ids = Hashtbl.create 16 in
  List.iter (fun (nm, u) -> Hashtbl.replace input_ids nm u) c.inputs;
  List.iter (fun (nm, u) -> Hashtbl.replace output_ids nm u) c.outputs;
  let t =
    {
      c;
      comb =
        (let order = Netlist.comb_order c and k = ref 0 in
         Array.iter
           (fun u ->
             match (Netlist.node c u).kind with
             | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ -> ()
             | _ ->
                 order.(!k) <- u;
                 incr k)
           order;
         Array.map (Netlist.node c) (Array.sub order 0 !k));
      mem_data =
        Array.init lanes (fun _ ->
            Array.map
              (fun (m : Netlist.mem) -> Array.make m.Netlist.mem_size 0)
              c.mems);
      values = Array.init lanes (fun _ -> Array.make n 0);
      masks;
      widths;
      regs;
      reg_next = Array.make (Array.length regs) 0;
      input_ids;
      output_ids;
      dirty = true;
    }
  in
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Const b ->
          let v = Bits.to_int b land masks.(nd.uid) in
          Array.iter (fun values -> values.(nd.uid) <- v) t.values
      | _ -> ())
    c.nodes;
  reset t;
  t

let signed_of t uid v =
  let w = t.widths.(uid) in
  (* Valid up to width 62: [1 lsl 62] is [min_int] and the subtraction
     wraps modulo 2^63 to the right negative value. *)
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

(* One walk of [comb]: each node is matched once and evaluated in every
   lane inside its arm.  The walk is one function, with no call per
   node, so one lane costs no more than the walk of a single-lane
   interpreter. *)
let settle t =
  if t.dirty then begin
    let vs = t.values and comb = t.comb in
    let last = Array.length vs - 1 in
    for i = 0 to Array.length comb - 1 do
      let nd = comb.(i) in
      let u = nd.uid in
      let m = t.masks.(u) in
      match nd.kind with
      | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ ->
          (* sources are not in [comb]: their values are loaded, never
             evaluated *)
          assert false
      | Netlist.Unop (Netlist.Not, a) ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- lnot v.(a) land m
          done
      | Netlist.Unop (Netlist.Neg, a) ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- -v.(a) land m
          done
      | Netlist.Binop (op, a, b) -> (
          let wa = t.widths.(a) in
          match op with
          | Netlist.Add ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- (v.(a) + v.(b)) land m
              done
          | Netlist.Sub ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- (v.(a) - v.(b)) land m
              done
          | Netlist.Mul when wa <= 31 ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- v.(a) * v.(b) land m
              done
          | Netlist.Mul ->
              for l = 0 to last do
                let v = vs.(l) in
                let x = v.(a) and y = v.(b) in
                v.(u) <-
                  (((x land 0xFFFF) * y) + (((x lsr 16) * y) lsl 16)) land m
              done
          | Netlist.And ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- v.(a) land v.(b) land m
              done
          | Netlist.Or ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- (v.(a) lor v.(b)) land m
              done
          | Netlist.Xor ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- (v.(a) lxor v.(b)) land m
              done
          | Netlist.Shl ->
              (* The guard is against the *result* width: a shift whose
                 result node is wider than its operand keeps bits the
                 operand width would discard. *)
              let w = t.widths.(u) in
              for l = 0 to last do
                let v = vs.(l) in
                let y = v.(b) in
                v.(u) <- (if y >= w then 0 else v.(a) lsl y) land m
              done
          | Netlist.Shr ->
              for l = 0 to last do
                let v = vs.(l) in
                let y = v.(b) in
                v.(u) <- (if y >= wa then 0 else v.(a) lsr y) land m
              done
          | Netlist.Sra ->
              for l = 0 to last do
                let v = vs.(l) in
                let s = min v.(b) (wa - 1) in
                v.(u) <- signed_of t a v.(a) asr s land m
              done
          | Netlist.Eq ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- Bool.to_int (v.(a) = v.(b)) land m
              done
          | Netlist.Ne ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- Bool.to_int (v.(a) <> v.(b)) land m
              done
          | Netlist.Lt Netlist.Unsigned ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- Bool.to_int (v.(a) < v.(b)) land m
              done
          | Netlist.Lt Netlist.Signed ->
              for l = 0 to last do
                let v = vs.(l) in
                let x = signed_of t a v.(a) and y = signed_of t b v.(b) in
                v.(u) <- Bool.to_int (x < y) land m
              done
          | Netlist.Le Netlist.Unsigned ->
              for l = 0 to last do
                let v = vs.(l) in
                v.(u) <- Bool.to_int (v.(a) <= v.(b)) land m
              done
          | Netlist.Le Netlist.Signed ->
              for l = 0 to last do
                let v = vs.(l) in
                let x = signed_of t a v.(a) and y = signed_of t b v.(b) in
                v.(u) <- Bool.to_int (x <= y) land m
              done)
      | Netlist.Mux (s, a, b) ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- (if v.(s) <> 0 then v.(a) else v.(b)) land m
          done
      | Netlist.Slice (a, _, lo) ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- (v.(a) lsr lo) land m
          done
      | Netlist.Concat (a, b) ->
          let wb = t.widths.(b) in
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- ((v.(a) lsl wb) lor v.(b)) land m
          done
      | Netlist.Uext a ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- v.(a) land m
          done
      | Netlist.Sext a ->
          for l = 0 to last do
            let v = vs.(l) in
            v.(u) <- signed_of t a v.(a) land m
          done
      | Netlist.Mem_read (mem, addr) ->
          for l = 0 to last do
            let v = vs.(l) and contents = t.mem_data.(l).(mem) in
            let a = v.(addr) in
            let r = if a < Array.length contents then contents.(a) else 0 in
            v.(u) <- r land m
          done
    done;
    t.dirty <- false
  end

let lane_check t caller lane =
  if lane < 0 || lane >= lanes t then
    invalid_arg
      (Printf.sprintf "%s: lane %d out of range (lanes %d)" caller lane
         (lanes t))

let resolve t dir ~caller name =
  let tbl = match dir with `In -> t.input_ids | `Out -> t.output_ids in
  match Hashtbl.find_opt tbl name with
  | Some u -> u
  | None -> Netlist.port_error t.c dir ~caller name

let set ?(lane = 0) t name v =
  let p = resolve t `In ~caller:"Interp.set" name in
  lane_check t "Interp.set" lane;
  t.values.(lane).(p) <- v land t.masks.(p);
  t.dirty <- true

let get ?(lane = 0) t name =
  let p = resolve t `Out ~caller:"Interp.get" name in
  lane_check t "Interp.get" lane;
  settle t;
  t.values.(lane).(p)

(* One lane's clock edge, from its settled values. *)
let step_lane t values mem_data =
  (* Memory writes: gather first (reads of this cycle see old contents). *)
  let mem_updates = ref [] in
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          if values.(w.Netlist.w_enable) <> 0 then
            let a = values.(w.Netlist.w_addr) in
            if a < m.Netlist.mem_size then
              mem_updates := (mi, a, values.(w.Netlist.w_data)) :: !mem_updates)
        m.Netlist.mem_writes)
    t.c.mems;
  Array.iteri
    (fun i u ->
      match (Netlist.node t.c u).kind with
      | Netlist.Reg { d; enable; _ } ->
          let load =
            match enable with None -> true | Some e -> values.(e) <> 0
          in
          t.reg_next.(i) <- (if load then values.(d) else values.(u))
      | _ -> assert false)
    t.regs;
  Array.iteri
    (fun i u -> values.(u) <- t.reg_next.(i) land t.masks.(u))
    t.regs;
  (* The gather above consed, so reverse to apply in declared port order:
     when two enabled ports hit one address, the later-declared port wins. *)
  List.iter (fun (mi, a, d) -> mem_data.(mi).(a) <- d) (List.rev !mem_updates)

let step t =
  settle t;
  Array.iteri (fun l values -> step_lane t values t.mem_data.(l)) t.values;
  t.dirty <- true

let peek ?(lane = 0) t uid =
  lane_check t "Interp.peek" lane;
  settle t;
  t.values.(lane).(uid)

let mem_word ?(lane = 0) t mem addr =
  lane_check t "Interp.mem_word" lane;
  t.mem_data.(lane).(mem).(addr)
