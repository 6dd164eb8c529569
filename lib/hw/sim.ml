(* The simulator: a levelized batch-parallel compiled engine.

   [create] levelizes the live schedule once: every live node in the
   topological combinational order becomes one row of a flat
   struct-of-arrays instruction table (opcode, destination slot, operand
   slots, resolved masks / shift amounts / sign constants).  The
   steady-state path allocates nothing and calls nothing — [settle] is a
   single sweep of the table with an integer-opcode dispatch, and all node
   values live in one preallocated [int array].

   The batch dimension: [create ?batch] lays the value array out
   node-major ([uid * batch + lane]) and every instruction's inner loop
   evaluates all [batch] lanes, so one pass over the schedule advances B
   independent simulations of the same circuit.  Amortizing the dispatch
   and operand-index loads over B lanes pays off exactly where the
   data-level parallelism is: compliance/DSE workloads, where hundreds
   of independent single-matrix runs share one netlist.

   Activity: the sweep skips every row none of whose operands changed
   since the previous sweep, at any lane count.  Each value slot (plus
   one entry per memory) carries the number of the sweep that last saw it
   change: an input change, a register latch or an applied memory write
   stamps the upcoming sweep's [epoch], and a row that runs stamps its
   destination when its result differs from the old one in any lane.  A
   row runs iff one of its (at most three, precomputed) operand stamps is
   the current epoch, so the check is a few int loads per row amortized
   over the lanes; the decision is per row, never per lane.  Under the
   IEEE 1180 testbench only 16-55% of the rows have a changed operand on
   a given cycle (FSM controllers idle, pipelines drain), and single-lane
   design points evaluate about 15% of theirs; that is what the check
   harvests.  The latch skips a register whose [d] and [enable] stamps
   predate its last latch ([q' = en ? d : q] is idempotent then).

   Dead-logic elimination and concat-chain fusion: only nodes in the
   fan-in cone of an output, register input or
   memory write port are scheduled, and fanout-1 concat chains collapse
   into their apex (leaves gathered through a side table).  [peek] on an
   eliminated node evaluates its cone on demand, in one lane, from the
   settled values, and nothing of that evaluation is kept past the call. *)

type t = {
  c : Netlist.t;
  batch : int;
  vals : int array;                   (* uid * batch + lane *)
  masks : int array;                  (* by uid *)
  widths : int array;                 (* by uid *)
  (* Levelized instruction table, struct-of-arrays, by schedule position. *)
  n_ins : int;
  op : int array;
  dst : int array;
  a0 : int array;
  a1 : int array;
  a2 : int array;
  k0 : int array;                     (* usually the result mask *)
  k1 : int array;
  k2 : int array;
  k3 : int array;
  cc_uid : int array;                 (* fused-concat leaf table, slots *)
  cc_shift : int array;
  (* Activity: [stamp] by unscaled value slot, then one entry per memory,
     then the sentinel (stamped 0 once: it matches only the first sweep).
     Row [i]'s destination is slot [first_dst + i]. *)
  dep0 : int array;                   (* operand stamp indices, by row *)
  dep1 : int array;
  dep2 : int array;
  cc_dep : int array;                 (* the leaf table, unscaled *)
  first_dst : int;
  stamp : int array;
  mutable epoch : int;                (* the number of the next sweep *)
  reg_at : int array;                 (* epoch of each register's last latch *)
  mutable evals : int;
  slot : int array;                   (* uid -> value slot (a bijection) *)
  resident : bool array;              (* uid: value current after [settle] *)
  ports_in : (string, Netlist.uid) Hashtbl.t;
  ports_out : (string, Netlist.uid) Hashtbl.t;
  (* Registers, flattened for the latch loop. *)
  regs : int array;                   (* register q value slots *)
  reg_d : int array;
  reg_en : int array;                 (* -1 = always enabled *)
  reg_init : int array;
  reg_next : int array;               (* scratch, nregs * batch *)
  (* Memories (word-major: addr * batch + lane) and their write ports. *)
  mem_data : int array array;
  wp_mem : int array;
  wp_en : int array;
  wp_addr : int array;
  wp_data : int array;
  wp_size : int array;
  w_live : Bytes.t;                   (* gather scratch, nports * batch *)
  w_addr_s : int array;
  w_data_s : int array;
  mutable dirty : bool;
  mutable cycles : int;
}

(* ------------------------------------------------------------------ *)
(* Opcodes                                                              *)
(* ------------------------------------------------------------------ *)

let op_not = 0
let op_neg = 1
let op_add = 2
let op_sub = 3
let op_mul_n = 4                      (* operand width <= 31 *)
let op_mul_w = 5                      (* wide split multiply *)
let op_and = 6
let op_or = 7
let op_xor = 8
let op_shl = 9                        (* k1 = result width *)
let op_shr = 10                       (* k1 = operand width *)
let op_sra = 11                       (* k1 = sign, k2 = adj, k3 = hi *)
let op_eq = 12
let op_ne = 13
let op_ltu = 14
let op_leu = 15
let op_lts = 16                       (* k0 = sga, k1 = ada, k2 = sgb, k3 = adb *)
let op_les = 17
let op_mux = 18                       (* a0 = sel, a1 = then, a2 = else *)
let op_slice = 19                     (* k1 = lo *)
let op_concat2 = 20                   (* k1, k2 = leaf shifts *)
let op_concat3 = 21                   (* a2 = third leaf, k3 = its shift *)
let op_concatn = 22                   (* k1 = leaf-table start, k2 = count *)
let op_copy = 23                      (* Uext *)
let op_sext = 24                      (* k1 = sign, k2 = adj *)
let op_memrd = 25                     (* k1 = mem id, k2 = mem size *)
let op_concat1 = 26                   (* k1 = leaf shift, k3 = const base *)

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

let is_source (nd : Netlist.node) =
  match nd.kind with
  | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ -> true
  | _ -> false

let create ?(batch = 1) c =
  if batch < 1 then invalid_arg "Sim.create: batch must be >= 1";
  let n = Netlist.num_nodes c in
  let masks = Array.make n 0 and widths = Array.make n 0 in
  Array.iter
    (fun (nd : Netlist.node) ->
      masks.(nd.uid) <- Bits.mask nd.width;
      widths.(nd.uid) <- nd.width)
    c.Netlist.nodes;
  (* Liveness: backward closure from outputs, register inputs and memory
     write ports — everything else is dead combinational logic. *)
  let live = Array.make n false in
  let rec mark u =
    if not live.(u) then begin
      live.(u) <- true;
      Netlist.iter_edges mark_operand (Netlist.node c u)
    end
  and mark_operand _ o = mark o in
  List.iter (fun (_, u) -> mark u) c.Netlist.outputs;
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Reg { d; enable; _ } ->
          mark d;
          Option.iter mark enable
      | _ -> ())
    c.Netlist.nodes;
  Array.iter
    (fun (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          mark w.Netlist.w_enable;
          mark w.Netlist.w_addr;
          mark w.Netlist.w_data)
        m.Netlist.mem_writes)
    c.Netlist.mems;
  (* Concat-tree fusion: a live concat whose only consumer
     is another live concat and which roots nothing else is absorbed into
     its consumer; the surviving apex reads the chain's leaves directly. *)
  let uses = Array.make n 0 and sole_user = Array.make n (-1) in
  let rooted = Array.make n false in
  let use u o =
    uses.(o) <- uses.(o) + 1;
    sole_user.(o) <- u
  in
  Array.iter
    (fun (nd : Netlist.node) -> if live.(nd.uid) then Netlist.iter_edges use nd)
    c.Netlist.nodes;
  List.iter (fun (_, u) -> rooted.(u) <- true) c.Netlist.outputs;
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Reg { d; enable; _ } ->
          rooted.(d) <- true;
          Option.iter (fun e -> rooted.(e) <- true) enable
      | _ -> ())
    c.Netlist.nodes;
  Array.iter
    (fun (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          rooted.(w.Netlist.w_enable) <- true;
          rooted.(w.Netlist.w_addr) <- true;
          rooted.(w.Netlist.w_data) <- true)
        m.Netlist.mem_writes)
    c.Netlist.mems;
  let is_concat u =
    match (Netlist.node c u).kind with Netlist.Concat _ -> true | _ -> false
  in
  let absorbed = Array.make n false in
  Array.iter
    (fun (nd : Netlist.node) ->
      let u = nd.uid in
      absorbed.(u) <-
        live.(u) && is_concat u && uses.(u) = 1 && (not rooted.(u))
        && sole_user.(u) >= 0
        && live.(sole_user.(u))
        && is_concat sole_user.(u))
    c.Netlist.nodes;
  let rec leaves_of u shift acc =
    if absorbed.(u) then
      match (Netlist.node c u).kind with
      | Netlist.Concat (a, b) ->
          let wb = widths.(b) in
          leaves_of a (shift + wb) (leaves_of b shift acc)
      | _ -> assert false
    else (u, shift) :: acc
  in
  let concat_plan u =
    match (Netlist.node c u).kind with
    | Netlist.Concat (a, b) ->
        let wb = widths.(b) in
        Array.of_list (leaves_of a wb (leaves_of b 0 []))
    | _ -> assert false
  in
  (* Schedule = live non-source, non-absorbed nodes in levelized order,
     compacted in place. *)
  let sched_uid =
    let order = Netlist.comb_order c and k = ref 0 in
    Array.iter
      (fun u ->
        if live.(u) && (not (is_source (Netlist.node c u))) && not absorbed.(u)
        then begin
          order.(!k) <- u;
          incr k
        end)
      order;
    Array.sub order 0 !k
  in
  let n_ins = Array.length sched_uid in
  let resident = Array.make n false in
  Array.iter
    (fun (nd : Netlist.node) ->
      resident.(nd.uid) <-
        is_source nd || (live.(nd.uid) && not absorbed.(nd.uid)))
    c.Netlist.nodes;
  (* Value-slot assignment: sources first, then the scheduled nodes in
     schedule order, then everything the schedule eliminated.  Indexing the
     value array by slot instead of uid makes each sweep walk it almost
     linearly — consecutive instructions write consecutive slots and read
     recently-written ones — which matters once the batched array outgrows
     L1.  [slot] is a bijection on uids; only the netlist-facing maps
     (widths, masks, resident) stay uid-indexed. *)
  let slot = Array.make n (-1) in
  let next_slot = ref 0 in
  let alloc u =
    if slot.(u) < 0 then begin
      slot.(u) <- !next_slot;
      incr next_slot
    end
  in
  Array.iter
    (fun (nd : Netlist.node) -> if is_source nd then alloc nd.uid)
    c.Netlist.nodes;
  Array.iter alloc sched_uid;
  Array.iter (fun (nd : Netlist.node) -> alloc nd.uid) c.Netlist.nodes;
  (* Emit the instruction table. *)
  let op = Array.make n_ins 0
  and dst = Array.make n_ins 0
  and a0 = Array.make n_ins 0
  and a1 = Array.make n_ins 0
  and a2 = Array.make n_ins 0
  and k0 = Array.make n_ins 0
  and k1 = Array.make n_ins 0
  and k2 = Array.make n_ins 0
  and k3 = Array.make n_ins 0 in
  let cc = ref [] and cc_len = ref 0 in
  let emit i u =
    let nd = Netlist.node c u in
    let m = masks.(u) in
    dst.(i) <- slot.(u);
    k0.(i) <- m;
    match nd.Netlist.kind with
    | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ ->
        assert false (* sources are never scheduled *)
    | Netlist.Unop (o, a) ->
        op.(i) <- (match o with Netlist.Not -> op_not | Netlist.Neg -> op_neg);
        a0.(i) <- slot.(a)
    | Netlist.Binop (o, a, b) -> (
        a0.(i) <- slot.(a);
        a1.(i) <- slot.(b);
        match o with
        | Netlist.Add -> op.(i) <- op_add
        | Netlist.Sub -> op.(i) <- op_sub
        | Netlist.Mul ->
            op.(i) <- (if widths.(a) <= 31 then op_mul_n else op_mul_w)
        | Netlist.And -> op.(i) <- op_and
        | Netlist.Or -> op.(i) <- op_or
        | Netlist.Xor -> op.(i) <- op_xor
        | Netlist.Shl ->
            (* Guard against the result width: the result node may be wider
               than the operand, and those shifts are legal. *)
            op.(i) <- op_shl;
            k1.(i) <- widths.(u)
        | Netlist.Shr ->
            op.(i) <- op_shr;
            k1.(i) <- widths.(a)
        | Netlist.Sra ->
            op.(i) <- op_sra;
            k1.(i) <- 1 lsl (widths.(a) - 1);
            k2.(i) <- 1 lsl widths.(a);
            k3.(i) <- widths.(a) - 1
        | Netlist.Eq -> op.(i) <- op_eq
        | Netlist.Ne -> op.(i) <- op_ne
        | Netlist.Lt Netlist.Unsigned -> op.(i) <- op_ltu
        | Netlist.Le Netlist.Unsigned -> op.(i) <- op_leu
        | Netlist.Lt Netlist.Signed | Netlist.Le Netlist.Signed ->
            op.(i) <-
              (match o with Netlist.Lt _ -> op_lts | _ -> op_les);
            k0.(i) <- 1 lsl (widths.(a) - 1);
            k1.(i) <- 1 lsl widths.(a);
            k2.(i) <- 1 lsl (widths.(b) - 1);
            k3.(i) <- 1 lsl widths.(b))
    | Netlist.Mux (s, a, b) ->
        op.(i) <- op_mux;
        a0.(i) <- slot.(s);
        a1.(i) <- slot.(a);
        a2.(i) <- slot.(b)
    | Netlist.Slice (a, _, lo) ->
        op.(i) <- op_slice;
        a0.(i) <- slot.(a);
        k1.(i) <- lo
    | Netlist.Concat _ -> (
        (* Operands are pre-masked and offsets sum to the result width, so
           no final mask is needed.  Constant leaves — zero padding and
           literal fields are common in the fused chains — fold into one
           precomputed base word instead of per-cycle shift-or work. *)
        let base = ref 0 in
        let variable =
          Array.to_list (concat_plan u)
          |> List.filter (fun (lu, sh) ->
                 match (Netlist.node c lu).Netlist.kind with
                 | Netlist.Const bits ->
                     base := !base lor (Bits.to_int bits lsl sh);
                     false
                 | _ -> true)
        in
        (* A concat of constants only keeps its first leaf as the operand
           (or-ing it into the base again changes nothing): a constant's
           stamp matches the first sweep alone, so the row runs once, and
           every leaf-table row has a leaf to check. *)
        let variable =
          if variable = [] then [ (concat_plan u).(0) ] else variable
        in
        match (variable, !base) with
        | [ (a, sa) ], b0 ->
            op.(i) <- op_concat1;
            a0.(i) <- slot.(a);
            k1.(i) <- sa;
            k3.(i) <- b0
        | [ (a, sa); (b, sb) ], 0 ->
            op.(i) <- op_concat2;
            a0.(i) <- slot.(a);
            a1.(i) <- slot.(b);
            k1.(i) <- sa;
            k2.(i) <- sb
        | [ (a, sa); (b, sb); (d, sd) ], 0 ->
            op.(i) <- op_concat3;
            a0.(i) <- slot.(a);
            a1.(i) <- slot.(b);
            a2.(i) <- slot.(d);
            k1.(i) <- sa;
            k2.(i) <- sb;
            k3.(i) <- sd
        | leaves, b0 ->
            op.(i) <- op_concatn;
            k1.(i) <- !cc_len;
            k2.(i) <- List.length leaves;
            k3.(i) <- b0;
            List.iter
              (fun (lu, sh) ->
                cc := (slot.(lu), sh) :: !cc;
                incr cc_len)
              leaves)
    | Netlist.Uext a ->
        op.(i) <- op_copy;
        a0.(i) <- slot.(a)
    | Netlist.Sext a ->
        op.(i) <- op_sext;
        a0.(i) <- slot.(a);
        k1.(i) <- 1 lsl (widths.(a) - 1);
        k2.(i) <- 1 lsl widths.(a)
    | Netlist.Mem_read (mem, addr) ->
        op.(i) <- op_memrd;
        a0.(i) <- slot.(addr);
        k1.(i) <- mem;
        k2.(i) <- c.Netlist.mems.(mem).Netlist.mem_size
  in
  Array.iteri emit sched_uid;
  let cc_list = List.rev !cc in
  let cc_uid = Array.of_list (List.map fst cc_list)
  and cc_shift = Array.of_list (List.map snd cc_list) in
  (* The activity check's operands, unscaled: a row depends on the slots it
     reads (a [memrd] also on its memory's entry, a leaf-table concat on
     its leaves: the first three here, the rest walked in [cc_dep] only
     when none of those changed); unused operands point at the sentinel. *)
  let n_mems = Array.length c.Netlist.mems in
  let sentinel = n + n_mems in
  let dep0 = Array.make n_ins sentinel
  and dep1 = Array.make n_ins sentinel
  and dep2 = Array.make n_ins sentinel in
  Array.iteri
    (fun i o ->
      if o = op_memrd then begin
        dep0.(i) <- a0.(i);
        dep1.(i) <- n + k1.(i)
      end
      else if o = op_concatn then begin
        let leaf j = if j < k2.(i) then cc_uid.(k1.(i) + j) else sentinel in
        dep0.(i) <- leaf 0;
        dep1.(i) <- leaf 1;
        dep2.(i) <- leaf 2
      end
      else begin
        dep0.(i) <- a0.(i);
        let binary = (o >= op_add && o <= op_les) || o = op_concat2 in
        let ternary = o = op_mux || o = op_concat3 in
        if binary || ternary then dep1.(i) <- a1.(i);
        if ternary then dep2.(i) <- a2.(i)
      end)
    op;
  let cc_dep = Array.copy cc_uid in
  (* Rows write consecutive slots (the slot assignment above). *)
  let first_dst = if n_ins = 0 then 0 else dst.(0) in
  (* The operand and destination fields address the value array directly:
     pre-scale the slot numbers by the batch stride so the sweep does no
     per-instruction multiplies. *)
  let scale a = Array.iteri (fun i s -> a.(i) <- s * batch) a in
  scale dst;
  scale a0;
  scale a1;
  scale a2;
  scale cc_uid;
  let ports_in = Hashtbl.create 16 and ports_out = Hashtbl.create 16 in
  List.iter (fun (nm, u) -> Hashtbl.replace ports_in nm u) c.Netlist.inputs;
  List.iter (fun (nm, u) -> Hashtbl.replace ports_out nm u) c.Netlist.outputs;
  let reg_uids = Netlist.reg_uids c in
  let nregs = Array.length reg_uids in
  (* The latch loop works purely in value slots. *)
  let regs = Array.map (fun u -> slot.(u)) reg_uids in
  let reg_d = Array.make nregs 0
  and reg_en = Array.make nregs (-1)
  and reg_init = Array.make nregs 0 in
  Array.iteri
    (fun i u ->
      match (Netlist.node c u).kind with
      | Netlist.Reg { d; enable; init } ->
          reg_d.(i) <- slot.(d);
          (match enable with Some e -> reg_en.(i) <- slot.(e) | None -> ());
          reg_init.(i) <- Bits.to_int init
      | _ -> assert false)
    reg_uids;
  let wports =
    Array.to_list c.Netlist.mems
    |> List.concat_map (fun (m : Netlist.mem) ->
           List.map
             (fun (w : Netlist.write_port) -> (m, w))
             m.Netlist.mem_writes)
    |> Array.of_list
  in
  let nports = Array.length wports in
  let vals = Array.make (n * batch) 0 in
  let t =
    {
      c;
      batch;
      vals;
      masks;
      widths;
      n_ins;
      op;
      dst;
      a0;
      a1;
      a2;
      k0;
      k1;
      k2;
      k3;
      cc_uid;
      cc_shift;
      dep0;
      dep1;
      dep2;
      cc_dep;
      first_dst;
      stamp = Array.make (sentinel + 1) 0;
      epoch = 0;
      reg_at = Array.make nregs (-1);
      evals = 0;
      slot;
      resident;
      ports_in;
      ports_out;
      regs;
      reg_d;
      reg_en;
      reg_init;
      reg_next = Array.make (nregs * batch) 0;
      mem_data =
        Array.map
          (fun (m : Netlist.mem) -> Array.make (m.Netlist.mem_size * batch) 0)
          c.Netlist.mems;
      wp_mem =
        Array.map (fun ((m : Netlist.mem), _) -> m.Netlist.mem_id) wports;
      wp_en =
        Array.map
          (fun (_, (w : Netlist.write_port)) -> slot.(w.Netlist.w_enable))
          wports;
      wp_addr =
        Array.map
          (fun (_, (w : Netlist.write_port)) -> slot.(w.Netlist.w_addr))
          wports;
      wp_data =
        Array.map
          (fun (_, (w : Netlist.write_port)) -> slot.(w.Netlist.w_data))
          wports;
      wp_size =
        Array.map (fun ((m : Netlist.mem), _) -> m.Netlist.mem_size) wports;
      w_live = Bytes.make (nports * batch) '\000';
      w_addr_s = Array.make (nports * batch) 0;
      w_data_s = Array.make (nports * batch) 0;
      dirty = true;
      cycles = 0;
    }
  in
  (* Sources: constants load once into every lane, registers take their
     init value, inputs start at 0 (already the case). *)
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Const b ->
          let v = Bits.to_int b and base = slot.(nd.uid) * batch in
          for j = 0 to batch - 1 do
            vals.(base + j) <- v
          done
      | _ -> ())
    c.Netlist.nodes;
  Array.iteri
    (fun i q ->
      let base = q * batch in
      for j = 0 to batch - 1 do
        vals.(base + j) <- reg_init.(i)
      done)
    regs;
  t

let circuit t = t.c
let batch t = t.batch
let compiled_nodes t = t.n_ins

(* ------------------------------------------------------------------ *)
(* Evaluation                                                           *)
(* ------------------------------------------------------------------ *)

(* One sweep of the instruction table over all lanes, skipping every row
   whose operands did not change since the previous sweep (see the
   header).  All slot indices are < |vals| by construction and every
   stored value is pre-masked, so the loop uses unsafe accesses; memory
   addresses are still range-checked.  The operand bases come pre-scaled
   by the batch stride and are hoisted out of the lane loop, so per lane
   each opcode is a handful of array word ops plus the fold of the
   change into [df].  [leaves_changed] takes [st] annotated: unannotated,
   its [=] is the polymorphic compare, a C call per leaf. *)
let rec leaves_changed (st : int array) cd e l stop =
  l < stop
  && (Array.unsafe_get st (Array.unsafe_get cd l) = e
     || leaves_changed st cd e (l + 1) stop)

let exec t =
  let v = t.vals and b = t.batch in
  let op = t.op
  and dst = t.dst
  and a0 = t.a0
  and a1 = t.a1
  and a2 = t.a2
  and k0 = t.k0
  and k1 = t.k1
  and k2 = t.k2
  and k3 = t.k3 in
  let st = t.stamp and e = t.epoch in
  let p0 = t.dep0 and p1 = t.dep1 and p2 = t.dep2 in
  let evals = ref 0 in
  for i = 0 to t.n_ins - 1 do
    let o = Array.unsafe_get op i in
    if
      Array.unsafe_get st (Array.unsafe_get p0 i) = e
      || Array.unsafe_get st (Array.unsafe_get p1 i) = e
      || Array.unsafe_get st (Array.unsafe_get p2 i) = e
      || o = op_concatn
         && leaves_changed st t.cc_dep e (Array.unsafe_get k1 i + 3)
              (Array.unsafe_get k1 i + Array.unsafe_get k2 i)
    then begin
      incr evals;
      let d = Array.unsafe_get dst i in
      let x = Array.unsafe_get a0 i in
      let y = Array.unsafe_get a1 i in
      let m = Array.unsafe_get k0 i in
      let df = ref 0 in
      (match o with
      | 0 (* not *) ->
          for j = 0 to b - 1 do
            let r = lnot (Array.unsafe_get v (x + j)) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 1 (* neg *) ->
          for j = 0 to b - 1 do
            let r = -Array.unsafe_get v (x + j) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 2 (* add *) ->
          for j = 0 to b - 1 do
            let r =
              (Array.unsafe_get v (x + j) + Array.unsafe_get v (y + j)) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 3 (* sub *) ->
          for j = 0 to b - 1 do
            let r =
              (Array.unsafe_get v (x + j) - Array.unsafe_get v (y + j)) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 4 (* mul, narrow *) ->
          for j = 0 to b - 1 do
            let r =
              Array.unsafe_get v (x + j) * Array.unsafe_get v (y + j) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 5 (* mul, wide split *) ->
          for j = 0 to b - 1 do
            let p = Array.unsafe_get v (x + j)
            and q = Array.unsafe_get v (y + j) in
            let r = (((p land 0xFFFF) * q) + (((p lsr 16) * q) lsl 16)) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 6 (* and *) ->
          for j = 0 to b - 1 do
            let r = Array.unsafe_get v (x + j) land Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 7 (* or *) ->
          for j = 0 to b - 1 do
            let r = Array.unsafe_get v (x + j) lor Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 8 (* xor *) ->
          for j = 0 to b - 1 do
            let r = Array.unsafe_get v (x + j) lxor Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 9 (* shl; k1 = result width *) ->
          let rw = Array.unsafe_get k1 i in
          for j = 0 to b - 1 do
            let s = Array.unsafe_get v (y + j) in
            let r =
              if s >= rw then 0 else Array.unsafe_get v (x + j) lsl s land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 10 (* shr; k1 = operand width *) ->
          let wa = Array.unsafe_get k1 i in
          for j = 0 to b - 1 do
            let s = Array.unsafe_get v (y + j) in
            let r = if s >= wa then 0 else Array.unsafe_get v (x + j) lsr s in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 11 (* sra *) ->
          let sign = Array.unsafe_get k1 i
          and adj = Array.unsafe_get k2 i
          and hi = Array.unsafe_get k3 i in
          for j = 0 to b - 1 do
            let p = Array.unsafe_get v (x + j) in
            let p = if p land sign <> 0 then p - adj else p in
            let s = Array.unsafe_get v (y + j) in
            let s = if s < hi then s else hi in
            let r = p asr s land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 12 (* eq *) ->
          for j = 0 to b - 1 do
            let r =
              if Array.unsafe_get v (x + j) = Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 13 (* ne *) ->
          for j = 0 to b - 1 do
            let r =
              if Array.unsafe_get v (x + j) <> Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 14 (* lt unsigned *) ->
          for j = 0 to b - 1 do
            let r =
              if Array.unsafe_get v (x + j) < Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 15 (* le unsigned *) ->
          for j = 0 to b - 1 do
            let r =
              if Array.unsafe_get v (x + j) <= Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 16 (* lt signed; k0 = sga, k1 = ada, k2 = sgb, k3 = adb *) ->
          let ada = Array.unsafe_get k1 i
          and sgb = Array.unsafe_get k2 i
          and adb = Array.unsafe_get k3 i in
          for j = 0 to b - 1 do
            let p = Array.unsafe_get v (x + j)
            and q = Array.unsafe_get v (y + j) in
            let p = if p land m <> 0 then p - ada else p in
            let q = if q land sgb <> 0 then q - adb else q in
            let r = if p < q then 1 else 0 in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 17 (* le signed *) ->
          let ada = Array.unsafe_get k1 i
          and sgb = Array.unsafe_get k2 i
          and adb = Array.unsafe_get k3 i in
          for j = 0 to b - 1 do
            let p = Array.unsafe_get v (x + j)
            and q = Array.unsafe_get v (y + j) in
            let p = if p land m <> 0 then p - ada else p in
            let q = if q land sgb <> 0 then q - adb else q in
            let r = if p <= q then 1 else 0 in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 18 (* mux; a0 = sel, a1 = then, a2 = else *) ->
          let z = Array.unsafe_get a2 i in
          for j = 0 to b - 1 do
            let r =
              if Array.unsafe_get v (x + j) <> 0 then Array.unsafe_get v (y + j)
              else Array.unsafe_get v (z + j)
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 19 (* slice; k1 = lo *) ->
          let lo = Array.unsafe_get k1 i in
          for j = 0 to b - 1 do
            let r = Array.unsafe_get v (x + j) lsr lo land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 20 (* concat, 2 leaves *) ->
          let sa = Array.unsafe_get k1 i and sb = Array.unsafe_get k2 i in
          for j = 0 to b - 1 do
            let r =
              Array.unsafe_get v (x + j) lsl sa
              lor Array.unsafe_get v (y + j) lsl sb
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 21 (* concat, 3 leaves *) ->
          let z = Array.unsafe_get a2 i in
          let sa = Array.unsafe_get k1 i
          and sb = Array.unsafe_get k2 i
          and sc = Array.unsafe_get k3 i in
          for j = 0 to b - 1 do
            let r =
              Array.unsafe_get v (x + j) lsl sa
              lor Array.unsafe_get v (y + j) lsl sb
              lor Array.unsafe_get v (z + j) lsl sc
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 22 (* concat, leaf table; k1 = start, k2 = count, k3 = base *) ->
          let start = Array.unsafe_get k1 i and count = Array.unsafe_get k2 i in
          let base = Array.unsafe_get k3 i in
          let cu = t.cc_uid and cs = t.cc_shift in
          for j = 0 to b - 1 do
            let r = ref base in
            for l = start to start + count - 1 do
              r :=
                !r
                lor Array.unsafe_get v (Array.unsafe_get cu l + j)
                    lsl Array.unsafe_get cs l
            done;
            df := !df lor (!r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) !r
          done
      | 23 (* copy / uext *) ->
          for j = 0 to b - 1 do
            let r = Array.unsafe_get v (x + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 24 (* sext; k1 = sign, k2 = adj *) ->
          let sign = Array.unsafe_get k1 i and adj = Array.unsafe_get k2 i in
          for j = 0 to b - 1 do
            let p = Array.unsafe_get v (x + j) in
            let r = (if p land sign <> 0 then p - adj else p) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 25 (* memrd; k1 = mem id, k2 = size *) ->
          let md = Array.unsafe_get t.mem_data (Array.unsafe_get k1 i) in
          let size = Array.unsafe_get k2 i in
          for j = 0 to b - 1 do
            let a = Array.unsafe_get v (x + j) in
            let r = if a < size then Array.unsafe_get md ((a * b) + j) else 0 in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | _ (* concat, 1 variable leaf; k1 = shift, k3 = base *) ->
          let sh = Array.unsafe_get k1 i and base = Array.unsafe_get k3 i in
          for j = 0 to b - 1 do
            let r = base lor Array.unsafe_get v (x + j) lsl sh in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done);
      if !df <> 0 then Array.unsafe_set st (t.first_dst + i) e
    end
  done;
  t.evals <- t.evals + !evals

let settle t =
  if t.dirty then begin
    exec t;
    t.epoch <- t.epoch + 1;
    t.dirty <- false
  end

let lane_check t caller lane =
  if lane < 0 || lane >= t.batch then
    invalid_arg
      (Printf.sprintf "%s: lane %d out of range (batch %d)" caller lane
         t.batch)

(* A port handle is the port node's uid, resolved once by name; the hot
   path then costs a lane check and two array reads. *)
type port = Netlist.uid

let resolve t dir ~caller name =
  let tbl = match dir with `In -> t.ports_in | `Out -> t.ports_out in
  match Hashtbl.find_opt tbl name with
  | Some u -> u
  | None -> Netlist.port_error t.c dir ~caller name

let in_port t name = resolve t `In ~caller:"Sim.in_port" name
let out_port t name = resolve t `Out ~caller:"Sim.out_port" name

let set_port t p ~lane v =
  lane_check t "Sim.set_port" lane;
  let v = v land t.masks.(p) in
  let idx = (t.slot.(p) * t.batch) + lane in
  if t.vals.(idx) <> v then begin
    t.vals.(idx) <- v;
    t.stamp.(t.slot.(p)) <- t.epoch;
    t.dirty <- true
  end

let get_port t p ~lane =
  lane_check t "Sim.get_port" lane;
  settle t;
  t.vals.((t.slot.(p) * t.batch) + lane)

(* A port's lanes are contiguous ([slot * batch + lane]), so a row is one
   masked compare-and-store loop that stamps the slot once if any lane
   changed, or one blit after settling. *)
let row_check t caller row =
  if Array.length row <> t.batch then
    invalid_arg
      (Printf.sprintf "%s: row of %d lanes (batch %d)" caller
         (Array.length row) t.batch)

let set_row t p row =
  row_check t "Sim.set_row" row;
  let m = t.masks.(p) and base = t.slot.(p) * t.batch and vals = t.vals in
  let changed = ref false in
  for l = 0 to t.batch - 1 do
    let v = Array.unsafe_get row l land m in
    if Array.unsafe_get vals (base + l) <> v then begin
      Array.unsafe_set vals (base + l) v;
      changed := true
    end
  done;
  if !changed then begin
    t.stamp.(t.slot.(p)) <- t.epoch;
    t.dirty <- true
  end

let get_row t p row =
  row_check t "Sim.get_row" row;
  settle t;
  Array.blit t.vals (t.slot.(p) * t.batch) row 0 t.batch

let signed_of t uid v =
  let w = t.widths.(uid) in
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

let set ?(lane = 0) t name v =
  set_port t (resolve t `In ~caller:"Sim.set" name) ~lane v

let get ?(lane = 0) t name =
  get_port t (resolve t `Out ~caller:"Sim.get" name) ~lane

let get_signed ?(lane = 0) t name =
  let p = resolve t `Out ~caller:"Sim.get_signed" name in
  signed_of t p (get_port t p ~lane)

let step t =
  settle t;
  let v = t.vals and b = t.batch in
  (* Gather enabled memory writes first: their enable/address/data read the
     settled pre-edge values, which the register latch below clobbers. *)
  let nw = Array.length t.wp_mem in
  for i = 0 to nw - 1 do
    let en = t.wp_en.(i) * b
    and ad = t.wp_addr.(i) * b
    and da = t.wp_data.(i) * b
    and size = t.wp_size.(i) in
    for j = 0 to b - 1 do
      let idx = (i * b) + j in
      if Array.unsafe_get v (en + j) <> 0 then begin
        let a = Array.unsafe_get v (ad + j) in
        if a < size then begin
          Bytes.unsafe_set t.w_live idx '\001';
          t.w_addr_s.(idx) <- a;
          t.w_data_s.(idx) <- Array.unsafe_get v (da + j)
        end
        else Bytes.unsafe_set t.w_live idx '\000'
      end
      else Bytes.unsafe_set t.w_live idx '\000'
    done
  done;
  (* The latch is two-phase (every [reg_next] from pre-edge values, then
     every [q]).  A register whose [d] and [enable] have not changed
     since its last latch keeps its [q]: [reg_at] is that latch's epoch,
     and any later change stamps [d] or [enable] with at least it
     ([reset] sets [reg_at] to -1, below every stamp). *)
  let st = t.stamp and e = t.epoch in
  let nr = Array.length t.regs in
  for i = 0 to nr - 1 do
    let ds = Array.unsafe_get t.reg_d i
    and es = Array.unsafe_get t.reg_en i
    and at = Array.unsafe_get t.reg_at i in
    if st.(ds) >= at || (es >= 0 && st.(es) >= at) then begin
      Array.unsafe_set t.reg_at i e;
      let d = ds * b and nx = i * b in
      if es < 0 then
        for j = 0 to b - 1 do
          Array.unsafe_set t.reg_next (nx + j) (Array.unsafe_get v (d + j))
        done
      else begin
        let q = Array.unsafe_get t.regs i * b and en = es * b in
        for j = 0 to b - 1 do
          Array.unsafe_set t.reg_next (nx + j)
            (Array.unsafe_get v
               (if Array.unsafe_get v (en + j) <> 0 then d + j else q + j))
        done
      end
    end
  done;
  for i = 0 to nr - 1 do
    if Array.unsafe_get t.reg_at i = e then begin
      let qs = Array.unsafe_get t.regs i in
      let q = qs * b and nx = i * b in
      let df = ref 0 in
      for j = 0 to b - 1 do
        let r = Array.unsafe_get t.reg_next (nx + j) in
        df := !df lor (r lxor Array.unsafe_get v (q + j));
        Array.unsafe_set v (q + j) r
      done;
      if !df <> 0 then st.(qs) <- e
    end
  done;
  (* Apply the writes in declared port order: on an address conflict the
     later-declared port wins — per lane. *)
  let n = Array.length t.slot in
  for i = 0 to nw - 1 do
    let mi = t.wp_mem.(i) in
    let md = t.mem_data.(mi) in
    for j = 0 to b - 1 do
      let idx = (i * b) + j in
      if Bytes.unsafe_get t.w_live idx <> '\000' then begin
        md.((t.w_addr_s.(idx) * b) + j) <- t.w_data_s.(idx);
        st.(n + mi) <- e
      end
    done
  done;
  t.dirty <- true;
  t.cycles <- t.cycles + 1

let step_n t n =
  for _ = 1 to n do
    step t
  done

let reset t =
  Array.iter
    (fun contents -> Array.fill contents 0 (Array.length contents) 0)
    t.mem_data;
  Array.iteri
    (fun i q ->
      let base = q * t.batch in
      for j = 0 to t.batch - 1 do
        t.vals.(base + j) <- t.reg_init.(i)
      done;
      t.stamp.(q) <- t.epoch;
      t.reg_at.(i) <- -1)
    t.regs;
  let n = Array.length t.slot in
  Array.iteri (fun mi _ -> t.stamp.(n + mi) <- t.epoch) t.mem_data;
  t.dirty <- true;
  t.cycles <- 0;
  t.evals <- 0

(* On-demand evaluation of a node outside the compiled schedule (dead
   logic or an absorbed concat), for [peek] and [peek_all].  The memo
   lives for one [peek] call or one [peek_all] pass, so a shared cone is
   walked once and no value outlives a state change.  The netlist is a
   DAG, so the recursion terminates; resident operands (every source
   among them) are already settled by the caller. *)
let rec force t memo lane u =
  let b = t.batch in
  if t.resident.(u) then t.vals.((t.slot.(u) * b) + lane)
  else
    match Hashtbl.find_opt memo u with
    | Some v -> v
    | None ->
        let nd = Netlist.node t.c u in
        let value o = force t memo lane o in
        let r =
          match nd.kind with
          | Netlist.Input _ | Netlist.Const _ | Netlist.Reg _ -> assert false
          | Netlist.Unop (Netlist.Not, a) -> lnot (value a)
          | Netlist.Unop (Netlist.Neg, a) -> -value a
          | Netlist.Binop (op, a, b) -> (
              let x = value a and y = value b in
              match op with
              | Netlist.Add -> x + y
              | Netlist.Sub -> x - y
              | Netlist.Mul ->
                  if t.widths.(a) <= 31 then x * y
                  else ((x land 0xFFFF) * y) + (((x lsr 16) * y) lsl 16)
              | Netlist.And -> x land y
              | Netlist.Or -> x lor y
              | Netlist.Xor -> x lxor y
              | Netlist.Shl -> if y >= t.widths.(nd.uid) then 0 else x lsl y
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
          | Netlist.Mux (s, a, b) -> if value s <> 0 then value a else value b
          | Netlist.Slice (a, _, lo) -> value a lsr lo
          | Netlist.Concat (a, b) -> value a lsl t.widths.(b) lor value b
          | Netlist.Uext a -> value a
          | Netlist.Sext a -> signed_of t a (value a)
          | Netlist.Mem_read (mem, addr) ->
              let contents = t.mem_data.(mem) in
              let a = value addr in
              if a < t.c.Netlist.mems.(mem).Netlist.mem_size then
                contents.((a * b) + lane)
              else 0
        in
        let v = r land t.masks.(u) in
        Hashtbl.replace memo u v;
        v

let peek ?(lane = 0) t uid =
  lane_check t "Sim.peek" lane;
  settle t;
  if t.resident.(uid) then t.vals.((t.slot.(uid) * t.batch) + lane)
  else force t (Hashtbl.create 16) lane uid

let peek_all ?(lane = 0) t =
  lane_check t "Sim.peek_all" lane;
  settle t;
  let memo = Hashtbl.create 64 in
  Array.init (Netlist.num_nodes t.c) (fun u ->
      if t.resident.(u) then t.vals.((t.slot.(u) * t.batch) + lane)
      else force t memo lane u)

let peek_signed ?(lane = 0) t uid = signed_of t uid (peek ~lane t uid)

let cycle_count t = t.cycles
let evaluations t = t.evals

let mem_word ?(lane = 0) t mem addr =
  lane_check t "Sim.mem_word" lane;
  t.mem_data.(mem).((addr * t.batch) + lane)
