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

   Activity: at any lane count, the sweep skips every row none of whose
   operands changed since the previous sweep, and the latch every
   register whose [d] and [enable] did not change since it last latched
   ([q' = en ? d : q] is idempotent then).  Rows and registers each have
   a pending byte, and [create] builds a fanout table from each value
   slot (plus one entry per memory) to its readers.  The producers of a
   change set their readers' bytes: a row whose result changed in any
   lane, an input change, a latch that changed [q], an applied memory
   write (changed word or not) and [reset]; [create] sets every byte.
   A skipped row costs one byte load, decided per row, never per lane.
   Under the IEEE 1180 testbench only 16-55% of the rows have a changed
   operand on a given cycle (FSM controllers idle, pipelines drain), and
   single-lane design points evaluate about 15% of theirs.

   Lane-uniform slots: under a promise that some inputs have one value
   in every lane ([create ~uniform]), a slot whose cone reaches only
   those inputs, constants and registers of such slots is uniform.  Its
   row or register works on lane 0 alone, and copies a changed value
   into the other lanes only when some reader reads them ([broadcast]);
   the marks are the ones a per-lane row sets.  Without a promise every
   slot is per-lane.

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
  (* Activity (see the header): [pend] by reader, the rows, then the
     registers ([n_ins + r]); the readers of activity index [x] (a value
     slot, or [n + mem]) are [fan_row.(fan_start.(x)) ..
     fan_row.(fan_start.(x + 1) - 1)].  Row [i]'s destination is slot
     [first_dst + i]. *)
  pend : Bytes.t;
  uni : Bytes.t;                      (* by resident slot: lane layout *)
  fan_start : int array;
  fan_row : int array;
  first_dst : int;
  mutable evals : int;
  slot : int array;                   (* uid -> value slot (a bijection) *)
  n_resident : int;
      (* a node is resident (its value current after [settle]) iff its
         slot is below this: the sources and the rows *)
  ports_in : (string, Netlist.uid) Hashtbl.t;
  ports_out : (string, Netlist.uid) Hashtbl.t;
  (* Registers, flattened for the latch loop. *)
  regs : int array;                   (* register q value slots *)
  reg_d : int array;
  reg_en : int array;                 (* -1 = always enabled *)
  reg_init : int array;
  reg_fed : Bytes.t;                  (* q read by a register: two-phase *)
  reg_next : int array;               (* scratch, nregs * batch *)
  latched : int array;                (* scratch: the registers latching *)
  (* Memories (word-major: addr * batch + lane) and their write ports. *)
  mem_data : int array array;
  wp_mem : int array;
  wp_en : int array;
  wp_addr : int array;
  wp_data : int array;
  wp_size : int array;
  w_on : Bytes.t;                     (* gather scratch: port enabled *)
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

let is_concat (nd : Netlist.node) =
  match nd.kind with Netlist.Concat _ -> true | _ -> false

(* A node's state while [create] levelizes: dead, live, a root (an
   output, register input or memory write port: live, never absorbed) or
   absorbed into the fused concat that reads it. *)
let dead = '\000'
let live = '\001'
let root = '\002'
let absorbed = '\003'

(* A resident slot's lane layout ([uni]): every lane holds its own value,
   or the node is lane-uniform and only lane 0 is kept, or it is
   lane-uniform and copied into every lane, for a reader that reads
   every lane. *)
let per_lane = '\000'
let lane0 = '\001'
let broadcast = '\002'

let create ?(uniform = []) ?(batch = 1) c =
  if batch < 1 then invalid_arg "Sim.create: batch must be >= 1";
  let n = Netlist.num_nodes c and nodes = c.Netlist.nodes in
  let n_mems = Array.length c.Netlist.mems in
  let vals = Array.make (n * batch) 0 in
  let widths = Array.make n 0 in
  let state = Bytes.make n dead in
  (* Value-slot assignment: sources first, then the scheduled nodes in
     schedule order, then everything the schedule eliminated.  Indexing the
     value array by slot instead of uid makes each sweep walk it almost
     linearly — consecutive instructions write consecutive slots and read
     recently-written ones — which matters once the batched array outgrows
     L1.  [slot] is a bijection on uids; only the netlist-facing maps
     (widths) stay uid-indexed.  A node is resident iff its slot is
     below the sources' and rows' count. *)
  let slot = Array.make n (-1) and next_slot = ref 0 in
  let alloc u =
    slot.(u) <- !next_slot;
    incr next_slot
  in
  (* Pass 1, by uid: widths, the sources' slots and values (constants in
     every lane; inputs start at 0, registers get their init below), and
     the register roots. *)
  let regs_rev = ref [] and nregs = ref 0 in
  Array.iter
    (fun (nd : Netlist.node) ->
      let u = nd.uid in
      widths.(u) <- nd.width;
      match nd.kind with
      | Netlist.Input _ -> alloc u
      | Netlist.Const b ->
          alloc u;
          Array.fill vals (slot.(u) * batch) batch (Bits.to_int b)
      | Netlist.Reg { d; enable; _ } ->
          alloc u;
          regs_rev := u :: !regs_rev;
          incr nregs;
          Bytes.set state d root;
          Option.iter (fun e -> Bytes.set state e root) enable
      | _ -> ())
    nodes;
  List.iter (fun (_, u) -> Bytes.set state u root) c.Netlist.outputs;
  Array.iter
    (fun (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          Bytes.set state w.Netlist.w_enable root;
          Bytes.set state w.Netlist.w_addr root;
          Bytes.set state w.Netlist.w_data root)
        m.Netlist.mem_writes)
    c.Netlist.mems;
  (* Pass 2, backwards through the levelized order, so every user of a
     node is decided before the node: liveness is the backward closure of
     the roots, and a live concat whose only live user is another concat,
     and which roots nothing, is absorbed into that user (the surviving
     apex reads the chain's leaves directly).  [sole_user] is -1 until a
     node's first use, then its user, and -2 from its second use on. *)
  let order = Netlist.comb_order c in
  let sole_user = Array.make n (-1) in
  let use u o =
    if Bytes.get state o = dead then Bytes.set state o live;
    sole_user.(o) <- (if sole_user.(o) = -1 then u else -2)
  in
  let n_ins = ref 0 and n_concat = ref 0 and n_absorbed = ref 0 in
  for k = n - 1 downto 0 do
    let u = order.(k) in
    let s = Bytes.get state u in
    if s <> dead then begin
      let nd = nodes.(u) in
      Netlist.iter_edges use nd;
      if s = live && is_concat nd && sole_user.(u) >= 0
         && is_concat nodes.(sole_user.(u))
      then begin
        Bytes.set state u absorbed;
        incr n_absorbed
      end
      else if not (is_source nd) then begin
        incr n_ins;
        if is_concat nd then incr n_concat
      end
    end
  done;
  let n_ins = !n_ins and nregs = !nregs in
  (* Pass 3, forwards: the schedule is the live non-source, non-absorbed
     nodes in levelized order; each gets its slot and its row, and the
     row's reads are counted for the fanout table. *)
  let op = Array.make n_ins 0
  and dst = Array.make n_ins 0
  and a0 = Array.make n_ins 0
  and a1 = Array.make n_ins 0
  and a2 = Array.make n_ins 0
  and k0 = Array.make n_ins 0
  and k1 = Array.make n_ins 0
  and k2 = Array.make n_ins 0
  and k3 = Array.make n_ins 0 in
  (* An apex fusing k concats has k + 2 leaves: this bounds the table. *)
  let cc_cap = !n_absorbed + (2 * !n_concat) in
  let cc_uid = Array.make cc_cap 0 and cc_shift = Array.make cc_cap 0 in
  let cc_len = ref 0 in
  let reg_uid = Array.make nregs 0 in
  List.iteri (fun i u -> reg_uid.(nregs - 1 - i) <- u) !regs_rev;
  let regs = Array.make nregs 0
  and reg_d = Array.make nregs 0
  and reg_en = Array.make nregs (-1)
  and reg_init = Array.make nregs 0 in
  (* The fanout table, from the unscaled slots: reader [i < n_ins] is a
     row, which reads the slots of its operands (a [memrd] also its
     memory's entry [n + mem], a leaf-table concat every leaf); reader
     [n_ins + r] is register [r], which reads its [d] and enable. *)
  let reads i f =
    if i >= n_ins then begin
      f reg_d.(i - n_ins);
      if reg_en.(i - n_ins) >= 0 then f reg_en.(i - n_ins)
    end
    else if op.(i) = op_concatn then
      for l = k1.(i) to k1.(i) + k2.(i) - 1 do
        f cc_uid.(l)
      done
    else begin
      let o = op.(i) in
      f a0.(i);
      if o = op_memrd then f (n + k1.(i));
      if (o >= op_add && o <= op_mux) || o = op_concat2 || o = op_concat3 then
        f a1.(i);
      if o = op_mux || o = op_concat3 then f a2.(i)
    end
  in
  let fan_start = Array.make (n + n_mems + 1) 0 in
  let count x = fan_start.(x + 1) <- fan_start.(x + 1) + 1 in
  (* A fused concat's leaves, most significant first, go straight into
     the leaf table from [cc_len]; constant leaves fold into [base]
     instead.  [first] keeps the first leaf for a concat of constants. *)
  let base = ref 0 and nvar = ref 0 and first = ref (-1) and first_sh = ref 0 in
  let rec gather u shift =
    let nd = nodes.(u) in
    match nd.kind with
    | Netlist.Concat (a, b) when Bytes.get state u = absorbed ->
        gather a (shift + widths.(b));
        gather b shift
    | kind ->
        if !first < 0 then begin
          first := u;
          first_sh := shift
        end;
        (match kind with
        | Netlist.Const bits -> base := !base lor (Bits.to_int bits lsl shift)
        | _ ->
            cc_uid.(!cc_len + !nvar) <- slot.(u);
            cc_shift.(!cc_len + !nvar) <- shift;
            incr nvar)
  in
  let emit i u =
    let nd = nodes.(u) in
    alloc u;
    dst.(i) <- slot.(u);
    k0.(i) <- Bits.mask widths.(u);
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
    | Netlist.Concat (a, b) -> (
        (* Operands are pre-masked and offsets sum to the result width, so
           no final mask is needed.  Constant leaves — zero padding and
           literal fields are common in the fused chains — fold into one
           precomputed base word instead of per-cycle shift-or work. *)
        base := 0;
        nvar := 0;
        first := -1;
        gather a widths.(b);
        gather b 0;
        let leaf j = cc_uid.(!cc_len + j) and shift j = cc_shift.(!cc_len + j) in
        match (!nvar, !base) with
        | 0, b0 ->
            (* A concat of constants keeps its first leaf as the operand
               (or-ing it into the base again changes nothing): no
               producer ever marks a constant's readers, so the row runs
               once, on the first sweep. *)
            op.(i) <- op_concat1;
            a0.(i) <- slot.(!first);
            k1.(i) <- !first_sh;
            k3.(i) <- b0
        | 1, b0 ->
            op.(i) <- op_concat1;
            a0.(i) <- leaf 0;
            k1.(i) <- shift 0;
            k3.(i) <- b0
        | 2, 0 ->
            op.(i) <- op_concat2;
            a0.(i) <- leaf 0;
            a1.(i) <- leaf 1;
            k1.(i) <- shift 0;
            k2.(i) <- shift 1
        | 3, 0 ->
            op.(i) <- op_concat3;
            a0.(i) <- leaf 0;
            a1.(i) <- leaf 1;
            a2.(i) <- leaf 2;
            k1.(i) <- shift 0;
            k2.(i) <- shift 1;
            k3.(i) <- shift 2
        | nv, b0 ->
            op.(i) <- op_concatn;
            k1.(i) <- !cc_len;
            k2.(i) <- nv;
            k3.(i) <- b0;
            cc_len := !cc_len + nv)
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
  let row = ref 0 in
  Array.iter
    (fun u ->
      let s = Bytes.get state u in
      if (s = live || s = root) && not (is_source nodes.(u)) then begin
        emit !row u;
        reads !row count;
        incr row
      end)
    order;
  (* The latch loop works purely in value slots. *)
  Array.iteri
    (fun i u ->
      match nodes.(u).kind with
      | Netlist.Reg { d; enable; init } ->
          regs.(i) <- slot.(u);
          reg_d.(i) <- slot.(d);
          (match enable with Some e -> reg_en.(i) <- slot.(e) | None -> ());
          reg_init.(i) <- Bits.to_int init;
          Array.fill vals (slot.(u) * batch) batch reg_init.(i);
          reads (n_ins + i) count
      | _ -> assert false)
    reg_uid;
  let n_resident = !next_slot in
  for u = 0 to n - 1 do
    if slot.(u) < 0 then alloc u
  done;
  let cc_uid = Array.sub cc_uid 0 !cc_len
  and cc_shift = Array.sub cc_shift 0 !cc_len in
  let ports_in = Hashtbl.create 16 and ports_out = Hashtbl.create 16 in
  List.iter (fun (nm, u) -> Hashtbl.replace ports_in nm u) c.Netlist.inputs;
  List.iter (fun (nm, u) -> Hashtbl.replace ports_out nm u) c.Netlist.outputs;
  for x = 1 to n + n_mems do
    fan_start.(x) <- fan_start.(x) + fan_start.(x - 1)
  done;
  (* Placing advances each entry's start to the next entry's; shifting
     the starts up by one restores them. *)
  let fan_row = Array.make fan_start.(n + n_mems) 0 and reader = ref 0 in
  let place x =
    fan_row.(fan_start.(x)) <- !reader;
    fan_start.(x) <- fan_start.(x) + 1
  in
  for i = 0 to n_ins + nregs - 1 do
    reader := i;
    reads i place
  done;
  Array.blit fan_start 0 fan_start 1 (n + n_mems);
  fan_start.(0) <- 0;
  (* Rows write consecutive slots (the slot assignment above). *)
  let first_dst = if n_ins = 0 then 0 else dst.(0) in
  let wports =
    Array.to_list c.Netlist.mems
    |> List.concat_map (fun (m : Netlist.mem) ->
           List.map
             (fun (w : Netlist.write_port) -> (m, w))
             m.Netlist.mem_writes)
    |> Array.of_list
  in
  let nports = Array.length wports in
  let wp_slots f = Array.map (fun (_, w) -> slot.(f w)) wports in
  let wp_en = wp_slots (fun w -> w.Netlist.w_enable)
  and wp_addr = wp_slots (fun w -> w.Netlist.w_addr)
  and wp_data = wp_slots (fun w -> w.Netlist.w_data) in
  (* Lane-uniform slots, the greatest fixpoint: every resident slot is
     uniform but the inputs outside the promise and the memory reads, and
     whatever reads a per-lane slot, through the fanout table. *)
  let uni = Bytes.make n_resident per_lane in
  if uniform <> [] then begin
    let promised =
      List.map
        (fun name ->
          match List.assoc_opt name c.Netlist.inputs with
          | Some u -> slot.(u)
          | None -> Netlist.port_error c `In ~caller:"Sim.create" name)
        uniform
    in
    Bytes.fill uni 0 n_resident lane0;
    let stack = Array.make n_resident 0 and top = ref 0 in
    let taint x =
      if Bytes.get uni x <> per_lane then begin
        Bytes.set uni x per_lane;
        stack.(!top) <- x;
        incr top
      end
    in
    List.iter
      (fun (_, u) -> if not (List.mem slot.(u) promised) then taint slot.(u))
      c.Netlist.inputs;
    for i = 0 to n_ins - 1 do
      if op.(i) = op_memrd then taint (first_dst + i)
    done;
    let reader_slot r = if r < n_ins then first_dst + r else regs.(r - n_ins) in
    while !top > 0 do
      decr top;
      let x = stack.(!top) in
      for k = fan_start.(x) to fan_start.(x + 1) - 1 do
        taint (reader_slot fan_row.(k))
      done
    done;
    (* A uniform slot is copied into every lane when something reads every
       lane: a per-lane row or register, an output or a write port. *)
    let spread x = if Bytes.get uni x = lane0 then Bytes.set uni x broadcast in
    for x = 0 to n_resident - 1 do
      for k = fan_start.(x) to fan_start.(x + 1) - 1 do
        if Bytes.get uni (reader_slot fan_row.(k)) = per_lane then spread x
      done
    done;
    List.iter (fun (_, u) -> spread slot.(u)) c.Netlist.outputs;
    List.iter (Array.iter spread) [ wp_en; wp_addr; wp_data ]
  end;
  (* A register whose [q] another register reads as [d] or enable latches
     in two phases; every other one in place. *)
  let fed = Bytes.make n_resident '\000' in
  for r = 0 to nregs - 1 do
    Bytes.set fed reg_d.(r) '\001';
    if reg_en.(r) >= 0 then Bytes.set fed reg_en.(r) '\001'
  done;
  let reg_fed = Bytes.init nregs (fun r -> Bytes.get fed regs.(r)) in
  (* The operand and destination fields address the value array directly:
     pre-scale the slot numbers by the batch stride so the sweep does no
     per-instruction multiplies. *)
  if batch > 1 then
    List.iter
      (fun a -> Array.iteri (fun i s -> a.(i) <- s * batch) a)
      [ dst; a0; a1; a2; cc_uid ];
  {
    c;
    batch;
    vals;
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
    pend = Bytes.make (n_ins + nregs) '\001';
    uni;
    fan_start;
    fan_row;
    first_dst;
    evals = 0;
    slot;
    n_resident;
    ports_in;
    ports_out;
    regs;
    reg_d;
    reg_en;
    reg_init;
    reg_fed;
    reg_next = Array.make (nregs * batch) 0;
    latched = Array.make nregs 0;
    mem_data =
      Array.map
        (fun (m : Netlist.mem) -> Array.make (m.Netlist.mem_size * batch) 0)
        c.Netlist.mems;
    wp_mem =
      Array.map (fun ((m : Netlist.mem), _) -> m.Netlist.mem_id) wports;
    wp_en;
    wp_addr;
    wp_data;
    wp_size =
      Array.map (fun ((m : Netlist.mem), _) -> m.Netlist.mem_size) wports;
    w_on = Bytes.make nports '\000';
    w_live = Bytes.make (nports * batch) '\000';
    w_addr_s = Array.make (nports * batch) 0;
    w_data_s = Array.make (nports * batch) 0;
    dirty = true;
    cycles = 0;
  }

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
   change into [df]; a row whose result changed marks its readers. *)

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
  let pend = t.pend and fs = t.fan_start and fr = t.fan_row and uni = t.uni in
  let evals = ref 0 in
  for i = 0 to t.n_ins - 1 do
    if Bytes.unsafe_get pend i <> '\000' then begin
      Bytes.unsafe_set pend i '\000';
      incr evals;
      let s = t.first_dst + i in
      let u = Bytes.unsafe_get uni s in
      let nb = if u = per_lane then b else 1 in
      let o = Array.unsafe_get op i in
      let d = Array.unsafe_get dst i in
      let x = Array.unsafe_get a0 i in
      let y = Array.unsafe_get a1 i in
      let m = Array.unsafe_get k0 i in
      let df = ref 0 in
      (match o with
      | 0 (* not *) ->
          for j = 0 to nb - 1 do
            let r = lnot (Array.unsafe_get v (x + j)) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 1 (* neg *) ->
          for j = 0 to nb - 1 do
            let r = -Array.unsafe_get v (x + j) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 2 (* add *) ->
          for j = 0 to nb - 1 do
            let r =
              (Array.unsafe_get v (x + j) + Array.unsafe_get v (y + j)) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 3 (* sub *) ->
          for j = 0 to nb - 1 do
            let r =
              (Array.unsafe_get v (x + j) - Array.unsafe_get v (y + j)) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 4 (* mul, narrow *) ->
          for j = 0 to nb - 1 do
            let r =
              Array.unsafe_get v (x + j) * Array.unsafe_get v (y + j) land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 5 (* mul, wide split *) ->
          for j = 0 to nb - 1 do
            let p = Array.unsafe_get v (x + j)
            and q = Array.unsafe_get v (y + j) in
            let r = (((p land 0xFFFF) * q) + (((p lsr 16) * q) lsl 16)) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 6 (* and *) ->
          for j = 0 to nb - 1 do
            let r = Array.unsafe_get v (x + j) land Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 7 (* or *) ->
          for j = 0 to nb - 1 do
            let r = Array.unsafe_get v (x + j) lor Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 8 (* xor *) ->
          for j = 0 to nb - 1 do
            let r = Array.unsafe_get v (x + j) lxor Array.unsafe_get v (y + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 9 (* shl; k1 = result width *) ->
          let rw = Array.unsafe_get k1 i in
          for j = 0 to nb - 1 do
            let s = Array.unsafe_get v (y + j) in
            let r =
              if s >= rw then 0 else Array.unsafe_get v (x + j) lsl s land m
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 10 (* shr; k1 = operand width *) ->
          let wa = Array.unsafe_get k1 i in
          for j = 0 to nb - 1 do
            let s = Array.unsafe_get v (y + j) in
            let r = if s >= wa then 0 else Array.unsafe_get v (x + j) lsr s in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 11 (* sra *) ->
          let sign = Array.unsafe_get k1 i
          and adj = Array.unsafe_get k2 i
          and hi = Array.unsafe_get k3 i in
          for j = 0 to nb - 1 do
            let p = Array.unsafe_get v (x + j) in
            let p = if p land sign <> 0 then p - adj else p in
            let s = Array.unsafe_get v (y + j) in
            let s = if s < hi then s else hi in
            let r = p asr s land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 12 (* eq *) ->
          for j = 0 to nb - 1 do
            let r =
              if Array.unsafe_get v (x + j) = Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 13 (* ne *) ->
          for j = 0 to nb - 1 do
            let r =
              if Array.unsafe_get v (x + j) <> Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 14 (* lt unsigned *) ->
          for j = 0 to nb - 1 do
            let r =
              if Array.unsafe_get v (x + j) < Array.unsafe_get v (y + j) then 1
              else 0
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 15 (* le unsigned *) ->
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
            let r =
              if Array.unsafe_get v (x + j) <> 0 then Array.unsafe_get v (y + j)
              else Array.unsafe_get v (z + j)
            in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 19 (* slice; k1 = lo *) ->
          let lo = Array.unsafe_get k1 i in
          for j = 0 to nb - 1 do
            let r = Array.unsafe_get v (x + j) lsr lo land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 20 (* concat, 2 leaves *) ->
          let sa = Array.unsafe_get k1 i and sb = Array.unsafe_get k2 i in
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
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
          for j = 0 to nb - 1 do
            let r = Array.unsafe_get v (x + j) in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 24 (* sext; k1 = sign, k2 = adj *) ->
          let sign = Array.unsafe_get k1 i and adj = Array.unsafe_get k2 i in
          for j = 0 to nb - 1 do
            let p = Array.unsafe_get v (x + j) in
            let r = (if p land sign <> 0 then p - adj else p) land m in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | 25 (* memrd; k1 = mem id, k2 = size *) ->
          let md = Array.unsafe_get t.mem_data (Array.unsafe_get k1 i) in
          let size = Array.unsafe_get k2 i in
          for j = 0 to nb - 1 do
            let a = Array.unsafe_get v (x + j) in
            let r = if a < size then Array.unsafe_get md ((a * b) + j) else 0 in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done
      | _ (* concat, 1 variable leaf; k1 = shift, k3 = base *) ->
          let sh = Array.unsafe_get k1 i and base = Array.unsafe_get k3 i in
          for j = 0 to nb - 1 do
            let r = base lor Array.unsafe_get v (x + j) lsl sh in
            df := !df lor (r lxor Array.unsafe_get v (d + j));
            Array.unsafe_set v (d + j) r
          done);
      if !df <> 0 then begin
        if u = broadcast then Array.fill v (d + 1) (b - 1) (Array.unsafe_get v d);
        for k = Array.unsafe_get fs s to Array.unsafe_get fs (s + 1) - 1 do
          Bytes.unsafe_set pend (Array.unsafe_get fr k) '\001'
        done
      end
    end
  done;
  t.evals <- t.evals + !evals

(* A producer's mark: every reader of activity index [x] runs on the next
   sweep, or latches on the next step. *)
let mark t x =
  for k = t.fan_start.(x) to t.fan_start.(x + 1) - 1 do
    Bytes.unsafe_set t.pend (Array.unsafe_get t.fan_row k) '\001'
  done

let settle t =
  if t.dirty then begin
    exec t;
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

(* A promised input keeps one value in every lane: a write that would
   make its lanes differ is refused before anything changes. *)
let refuse t caller p =
  invalid_arg
    (Printf.sprintf "%s: the lanes of uniform input %s must not differ" caller
       (fst (List.find (fun (_, u) -> u = p) t.c.Netlist.inputs)))

let set_port t p ~lane v =
  lane_check t "Sim.set_port" lane;
  let v = v land Bits.mask t.widths.(p) in
  let idx = (t.slot.(p) * t.batch) + lane in
  if t.vals.(idx) <> v then begin
    if t.batch > 1 && Bytes.get t.uni t.slot.(p) <> per_lane then
      refuse t "Sim.set_port" p;
    t.vals.(idx) <- v;
    mark t t.slot.(p);
    t.dirty <- true
  end

let get_port t p ~lane =
  lane_check t "Sim.get_port" lane;
  settle t;
  t.vals.((t.slot.(p) * t.batch) + lane)

(* A port's lanes are contiguous ([slot * batch + lane]), so a row is one
   masked compare-and-store loop that marks the slot once if any lane
   changed, or one blit after settling. *)
let row_check t caller row =
  if Array.length row <> t.batch then
    invalid_arg
      (Printf.sprintf "%s: row of %d lanes (batch %d)" caller
         (Array.length row) t.batch)

let set_row t p row =
  row_check t "Sim.set_row" row;
  let m = Bits.mask t.widths.(p) and base = t.slot.(p) * t.batch and vals = t.vals in
  if Bytes.get t.uni t.slot.(p) <> per_lane then
    for l = 1 to t.batch - 1 do
      if (row.(l) lxor row.(0)) land m <> 0 then refuse t "Sim.set_row" p
    done;
  let changed = ref false in
  for l = 0 to t.batch - 1 do
    let v = Array.unsafe_get row l land m in
    if Array.unsafe_get vals (base + l) <> v then begin
      Array.unsafe_set vals (base + l) v;
      changed := true
    end
  done;
  if !changed then begin
    mark t t.slot.(p);
    t.dirty <- true
  end

let get_row t p row =
  row_check t "Sim.get_row" row;
  settle t;
  Array.blit t.vals (t.slot.(p) * t.batch) row 0 t.batch

let is_uniform t p = Bytes.get t.uni t.slot.(p) <> per_lane

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

(* A uniform register's or row's new value reaches every lane it is kept
   in, and its readers. *)
let publish t s =
  if Bytes.unsafe_get t.uni s = broadcast then
    Array.fill t.vals ((s * t.batch) + 1) (t.batch - 1) t.vals.(s * t.batch);
  mark t s

(* Whether the enable in slot [s] is 0 in every lane (lane 0 of a uniform
   one): a write port or register it enables does nothing on this edge. *)
let off t s =
  let base = s * t.batch
  and n = if Bytes.unsafe_get t.uni s = per_lane then t.batch else 1 in
  let j = ref 0 in
  while !j < n && Array.unsafe_get t.vals (base + !j) = 0 do
    incr j
  done;
  !j = n

let step t =
  settle t;
  let v = t.vals and b = t.batch and uni = t.uni in
  (* Gather enabled memory writes first: their enable/address/data read the
     settled pre-edge values, which the register latch below clobbers.  A
     port that is [off] gathers nothing and applies nothing. *)
  let nw = Array.length t.wp_mem in
  for i = 0 to nw - 1 do
    let en = t.wp_en.(i) * b
    and ad = t.wp_addr.(i) * b
    and da = t.wp_data.(i) * b
    and size = t.wp_size.(i) in
    let on = not (off t t.wp_en.(i)) in
    Bytes.unsafe_set t.w_on i (if on then '\001' else '\000');
    if on then
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
  (* Only marked registers latch: [q' = en ? d : q] is idempotent until
     [d] or [enable] changes, and a no-op while the enable is [off].  A
     register that no register reads latches in place; one that feeds a
     register computes [reg_next] from the pre-edge values first and
     stores it after every register has read.  A uniform register works
     on lane 0 only. *)
  let pend = t.pend and hot = t.latched and nhot = ref 0 in
  let rn = t.reg_next in
  for i = 0 to Array.length t.regs - 1 do
    if Bytes.unsafe_get pend (t.n_ins + i) <> '\000' then begin
      Bytes.unsafe_set pend (t.n_ins + i) '\000';
      let es = Array.unsafe_get t.reg_en i in
      if es < 0 || not (off t es) then begin
        let qs = Array.unsafe_get t.regs i in
        let nb = if Bytes.unsafe_get uni qs = per_lane then b else 1 in
        let d = Array.unsafe_get t.reg_d i * b and q = qs * b and en = es * b in
        if Bytes.unsafe_get t.reg_fed i <> '\000' then begin
          Array.unsafe_set hot !nhot i;
          incr nhot;
          for j = 0 to nb - 1 do
            Array.unsafe_set rn ((i * b) + j)
              (Array.unsafe_get v
                 (if es < 0 || Array.unsafe_get v (en + j) <> 0 then d + j
                  else q + j))
          done
        end
        else begin
          let df = ref 0 in
          for j = 0 to nb - 1 do
            let r =
              Array.unsafe_get v
                (if es < 0 || Array.unsafe_get v (en + j) <> 0 then d + j
                 else q + j)
            in
            df := !df lor (r lxor Array.unsafe_get v (q + j));
            Array.unsafe_set v (q + j) r
          done;
          if !df <> 0 then publish t qs
        end
      end
    end
  done;
  for k = 0 to !nhot - 1 do
    let i = Array.unsafe_get hot k in
    let qs = Array.unsafe_get t.regs i in
    let nb = if Bytes.unsafe_get uni qs = per_lane then b else 1 in
    let q = qs * b and nx = i * b in
    let df = ref 0 in
    for j = 0 to nb - 1 do
      let r = Array.unsafe_get rn (nx + j) in
      df := !df lor (r lxor Array.unsafe_get v (q + j));
      Array.unsafe_set v (q + j) r
    done;
    if !df <> 0 then publish t qs
  done;
  (* Apply the writes in declared port order: on an address conflict the
     later-declared port wins — per lane.  A port that wrote in any lane
     marks its memory's readers, whether or not the word changed. *)
  let n = Array.length t.slot in
  for i = 0 to nw - 1 do
    if Bytes.unsafe_get t.w_on i <> '\000' then begin
      let mi = t.wp_mem.(i) in
      let md = t.mem_data.(mi) in
      let wrote = ref false in
      for j = 0 to b - 1 do
        let idx = (i * b) + j in
        if Bytes.unsafe_get t.w_live idx <> '\000' then begin
          md.((t.w_addr_s.(idx) * b) + j) <- t.w_data_s.(idx);
          wrote := true
        end
      done;
      if !wrote then mark t (n + mi)
    end
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
      mark t q;
      Bytes.set t.pend (t.n_ins + i) '\001')
    t.regs;
  let n = Array.length t.slot in
  Array.iteri (fun mi _ -> mark t (n + mi)) t.mem_data;
  t.dirty <- true;
  t.cycles <- 0;
  t.evals <- 0

(* On-demand evaluation of a node outside the compiled schedule (dead
   logic or an absorbed concat), for [peek] and [peek_all].  The memo
   lives for one [peek] call or one [peek_all] pass, so a shared cone is
   walked once and no value outlives a state change.  The netlist is a
   DAG, so the recursion terminates; resident operands (every source
   among them) are already settled by the caller. *)
let resident t u = t.slot.(u) < t.n_resident

(* A settled resident node's value in [lane]: lane 0 of a uniform node
   kept only there. *)
let value t u lane =
  let s = t.slot.(u) in
  t.vals.((s * t.batch) + if Bytes.get t.uni s = lane0 then 0 else lane)

let rec force t memo lane u =
  let b = t.batch in
  if resident t u then value t u lane
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
        let v = r land Bits.mask t.widths.(u) in
        Hashtbl.replace memo u v;
        v

let peek ?(lane = 0) t uid =
  lane_check t "Sim.peek" lane;
  settle t;
  if resident t uid then value t uid lane
  else force t (Hashtbl.create 16) lane uid

let peek_all ?(lane = 0) t =
  lane_check t "Sim.peek_all" lane;
  settle t;
  let memo = Hashtbl.create 64 in
  Array.init (Netlist.num_nodes t.c) (fun u ->
      if resident t u then value t u lane else force t memo lane u)

let peek_signed ?(lane = 0) t uid = signed_of t uid (peek ~lane t uid)

let cycle_count t = t.cycles
let evaluations t = t.evals

let mem_word ?(lane = 0) t mem addr =
  lane_check t "Sim.mem_word" lane;
  t.mem_data.(mem).((addr * t.batch) + lane)
