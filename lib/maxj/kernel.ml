open Hw

type stream = Builder.s

type t = Builder.t

let create = Builder.create

let input k name w = Builder.input k name w

let const k ~width v = Builder.const k ~width v

(* Signed helpers: operands are sign-extended to the result width. *)
let widen2 k f a b =
  let w = 1 + max (Builder.width a) (Builder.width b) in
  f k (Builder.sext k a w) (Builder.sext k b w)

let add k a b = widen2 k Builder.add a b

let sub k a b = widen2 k Builder.sub a b

let mulc k c a =
  let wc = Bits.width_for_signed_range c c in
  let w = wc + Builder.width a in
  Builder.mul k (Builder.const k ~width:w c) (Builder.sext k a w)

let shl k a n =
  Builder.shl_const k (Builder.sext k a (Builder.width a + n)) n

let asr_ k a n =
  let w = Builder.width a in
  if n >= w then Builder.slice k a ~hi:(w - 1) ~lo:(w - 1)
  else Builder.slice k a ~hi:(w - 1) ~lo:n

let cast k a w =
  if w <= Builder.width a then Builder.slice k a ~hi:(w - 1) ~lo:0
  else Builder.sext k a w

let clamp k ~lo ~hi a =
  let w = max (Builder.width a) (Bits.width_for_signed_range lo hi) in
  let ax = Builder.sext k a w in
  let clo = Builder.const k ~width:w lo and chi = Builder.const k ~width:w hi in
  let below = Builder.lt k ~signed:true ax clo in
  let above = Builder.gt k ~signed:true ax chi in
  let sat = Builder.mux k below clo (Builder.mux k above chi ax) in
  let wr = Bits.width_for_signed_range lo hi in
  Builder.slice k sat ~hi:(wr - 1) ~lo:0

let mux k sel a b =
  let w = max (Builder.width a) (Builder.width b) in
  Builder.mux k sel (Builder.sext k a w) (Builder.sext k b w)

let output k name s = Builder.output k name s

(* MaxCompiler pipelines kernels to its stream clock; one DSP traversal per
   stage bounds the achievable period. *)
let target_period_ns = Device.xcvu9p.Device.dsp_delay

let finalize k =
  let c = Builder.finalize k in
  let t = Timing.analyze Device.xcvu9p c in
  let stages =
    (* Aim below the target so stage imbalance still closes timing. *)
    max 1
      (int_of_float (ceil (t.Timing.period_ns /. (0.75 *. target_period_ns))))
  in
  Pipeline.retime ~stages c

let pipeline_depth (c : Netlist.t) =
  let n = Netlist.num_nodes c in
  let rank = Array.make n 0 in
  (* Ranks propagate through registers (+1) and combinational nodes (max).
     Iterations are bounded by the node count: that settles every acyclic
     (feed-forward pipeline) circuit, the only shape this is meant for. *)
  let order = Netlist.comb_order c in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    incr rounds;
    changed := false;
    Array.iter
      (fun u ->
        let nd = Netlist.node c u in
        let r =
          match nd.kind with
          | Netlist.Reg { d; _ } -> rank.(d) + 1
          | _ ->
              List.fold_left
                (fun acc op -> max acc rank.(op))
                0 (Netlist.operands nd)
        in
        if r > rank.(u) then begin
          rank.(u) <- r;
          changed := true
        end)
      order;
    (* Re-evaluate register ranks (their d is not in comb order edges). *)
    Array.iter
      (fun (nd : Netlist.node) ->
        match nd.kind with
        | Netlist.Reg { d; _ } ->
            if rank.(d) + 1 > rank.(nd.uid) then begin
              rank.(nd.uid) <- rank.(d) + 1;
              changed := true
            end
        | _ -> ())
      c.nodes
  done;
  List.fold_left (fun acc (_, u) -> max acc rank.(u)) 0 c.outputs
