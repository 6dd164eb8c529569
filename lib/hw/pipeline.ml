(* The stage (1-based) of every node: delay-balanced against the xcvu9p
   delay model, and never earlier than an operand's stage. *)
let compute_stages ~stages (c : Netlist.t) =
  if stages < 1 then invalid_arg "Pipeline: stages must be positive";
  if Array.exists Netlist.is_reg c.nodes || Array.length c.mems > 0 then
    invalid_arg "Pipeline.retime: circuit must be combinational";
  let n = Netlist.num_nodes c in
  let arrival = Array.make n 0. in
  let order = Netlist.comb_order c in
  let total = ref 0. in
  let base = ref 0. in
  let later _ op = base := Float.max !base arrival.(op) in
  Array.iter
    (fun u ->
      let nd = Netlist.node c u in
      let d = Timing.node_delay Device.xcvu9p ~use_dsp:true c nd in
      base := 0.;
      Netlist.iter_edges later nd;
      arrival.(u) <- !base +. d;
      if arrival.(u) > !total then total := arrival.(u))
    order;
  let budget = Float.max (!total /. float_of_int stages) 1e-9 in
  let stage = Array.make n 1 in
  let by_deps = ref 1 in
  let after _ op = by_deps := max !by_deps stage.(op) in
  Array.iter
    (fun u ->
      let by_delay =
        let s = int_of_float (ceil (arrival.(u) /. budget -. 1e-9)) in
        min stages (max 1 s)
      in
      by_deps := 1;
      Netlist.iter_edges after (Netlist.node c u);
      stage.(u) <- max by_delay !by_deps)
    order;
  stage

let retime ~stages (c : Netlist.t) =
  let stage = compute_stages ~stages c in
  let b = Builder.create (c.Netlist.circuit_name ^ "_pipelined") in
  let n = Netlist.num_nodes c in
  (* raw.(u) is node u's uid in the new circuit, at its own stage; a
     consumer at a later stage requests delay registers, and
     delayed.(u).(s - own - 1) is the one that holds u at stage s (-1
     until made).  Only delayed nodes get an array. *)
  let raw = Array.make n (-1) in
  let delayed = Array.make n [||] in
  let is_const u =
    match (Netlist.node c u).kind with Netlist.Const _ -> true | _ -> false
  in
  let rec at_stage u s =
    let own = stage.(u) in
    if is_const u || s = own then Builder.signal b raw.(u)
    else if s < own then failwith "Pipeline: consumer before producer"
    else begin
      if Array.length delayed.(u) = 0 then
        delayed.(u) <- Array.make (stages - own) (-1);
      let d = delayed.(u) in
      if d.(s - own - 1) >= 0 then Builder.signal b d.(s - own - 1)
      else begin
        let prev = at_stage u (s - 1) in
        let r = Builder.reg_next b ~name:(Printf.sprintf "p%d_s%d" u s) prev in
        d.(s - own - 1) <- Builder.uid r;
        r
      end
    end
  in
  let order = Netlist.comb_order c in
  Array.iter
    (fun u ->
      let nd = Netlist.node c u in
      let s = stage.(u) in
      let op x = at_stage x s in
      let sig_ =
        match nd.kind with
        | Netlist.Input name -> Builder.input b name nd.width
        | Netlist.Const k -> Builder.constb b k
        | Netlist.Unop (Netlist.Not, a) -> Builder.not_ b (op a)
        | Netlist.Unop (Netlist.Neg, a) -> Builder.neg b (op a)
        | Netlist.Binop (o, x, y) ->
            let sx = op x in
            Builder.binop b o sx (op y)
        | Netlist.Mux (sel, x, y) -> Builder.mux b (op sel) (op x) (op y)
        | Netlist.Slice (x, hi, lo) -> Builder.slice b (op x) ~hi ~lo
        | Netlist.Concat (x, y) -> Builder.concat b (op x) (op y)
        | Netlist.Uext x -> Builder.uext b (op x) nd.width
        | Netlist.Sext x -> Builder.sext b (op x) nd.width
        | Netlist.Reg _ | Netlist.Mem_read _ -> assert false
      in
      raw.(u) <- Builder.uid sig_)
    order;
  (* Outputs pass through the remaining ranks plus a final output rank. *)
  List.iter
    (fun (name, u) ->
      let tail = at_stage u stages in
      let final = Builder.reg_next b ~name:(name ^ "_q") tail in
      Builder.output b name final)
    c.Netlist.outputs;
  Builder.finalize b
