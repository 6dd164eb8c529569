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
  Array.iter
    (fun u ->
      let nd = Netlist.node c u in
      let d = Timing.node_delay Device.xcvu9p ~use_dsp:true c nd in
      let base =
        List.fold_left
          (fun acc op -> Float.max acc arrival.(op))
          0. (Netlist.operands nd)
      in
      arrival.(u) <- base +. d;
      if arrival.(u) > !total then total := arrival.(u))
    order;
  let budget = Float.max (!total /. float_of_int stages) 1e-9 in
  let stage = Array.make n 1 in
  Array.iter
    (fun u ->
      let nd = Netlist.node c u in
      let by_delay =
        let s = int_of_float (ceil (arrival.(u) /. budget -. 1e-9)) in
        min stages (max 1 s)
      in
      let by_deps =
        List.fold_left
          (fun acc op -> max acc stage.(op))
          1 (Netlist.operands nd)
      in
      stage.(u) <- max by_delay by_deps)
    order;
  stage

let retime ~stages (c : Netlist.t) =
  let stage = compute_stages ~stages c in
  let b = Builder.create (c.Netlist.circuit_name ^ "_pipelined") in
  let n = Netlist.num_nodes c in
  (* delayed.(u) holds the signal for node u as seen at its own stage; a
     consumer at a later stage requests extra delay registers. *)
  let raw = Array.make n None in
  let delayed : (int, Builder.s) Hashtbl.t array =
    Array.init n (fun _ -> Hashtbl.create 2)
  in
  let is_const u =
    match (Netlist.node c u).kind with Netlist.Const _ -> true | _ -> false
  in
  let rec at_stage u s =
    let own = stage.(u) in
    if is_const u then Option.get raw.(u)
    else if s < own then failwith "Pipeline: consumer before producer"
    else if s = own then Option.get raw.(u)
    else
      match Hashtbl.find_opt delayed.(u) s with
      | Some sig_ -> sig_
      | None ->
          let prev = at_stage u (s - 1) in
          let r =
            Builder.reg_next b
              ~name:(Printf.sprintf "p%d_s%d" u s)
              prev
          in
          Hashtbl.replace delayed.(u) s r;
          r
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
        | Netlist.Binop (o, x, y) -> (
            let sx = op x and sy = op y in
            match o with
            | Netlist.Add -> Builder.add b sx sy
            | Netlist.Sub -> Builder.sub b sx sy
            | Netlist.Mul -> Builder.mul b sx sy
            | Netlist.And -> Builder.and_ b sx sy
            | Netlist.Or -> Builder.or_ b sx sy
            | Netlist.Xor -> Builder.xor_ b sx sy
            | Netlist.Shl -> Builder.shl b sx sy
            | Netlist.Shr -> Builder.shr b sx sy
            | Netlist.Sra -> Builder.sra b sx sy
            | Netlist.Eq -> Builder.eq b sx sy
            | Netlist.Ne -> Builder.ne b sx sy
            | Netlist.Lt sg -> Builder.lt b ~signed:(sg = Netlist.Signed) sx sy
            | Netlist.Le sg -> Builder.le b ~signed:(sg = Netlist.Signed) sx sy)
        | Netlist.Mux (sel, x, y) -> Builder.mux b (op sel) (op x) (op y)
        | Netlist.Slice (x, hi, lo) -> Builder.slice b (op x) ~hi ~lo
        | Netlist.Concat (x, y) -> Builder.concat b (op x) (op y)
        | Netlist.Uext x -> Builder.uext b (op x) nd.width
        | Netlist.Sext x -> Builder.sext b (op x) nd.width
        | Netlist.Reg _ | Netlist.Mem_read _ -> assert false
      in
      raw.(u) <- Some sig_)
    order;
  (* Outputs pass through the remaining ranks plus a final output rank. *)
  List.iter
    (fun (name, u) ->
      let tail = at_stage u stages in
      let final = Builder.reg_next b ~name:(name ^ "_q") tail in
      Builder.output b name final)
    c.Netlist.outputs;
  Builder.finalize b
