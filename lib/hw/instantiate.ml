let stamp b (inst : Netlist.t) ~inputs =
  let n = Netlist.num_nodes inst in
  let map = Array.make n None in
  let mem_map =
    Array.map
      (fun (m : Netlist.mem) ->
        Builder.mem b (m.Netlist.mem_name ^ "_i") ~size:m.Netlist.mem_size
          ~width:m.Netlist.mem_width)
      inst.mems
  in
  let get u =
    match map.(u) with
    | Some s -> s
    | None -> failwith "Instantiate.stamp: node mapped out of order"
  in
  (* Registers first so combinational feedback through them resolves. *)
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Reg { init; _ } ->
          let name =
            Option.value nd.name ~default:(Printf.sprintf "i%d" nd.uid)
          in
          map.(nd.uid) <-
            Some (Builder.reg b ~init:(Bits.to_int init) ~width:nd.width name)
      | _ -> ())
    inst.nodes;
  let order = Netlist.comb_order inst in
  Array.iter
    (fun u ->
      let nd = Netlist.node inst u in
      match nd.kind with
      | Netlist.Reg _ -> ()
      | Netlist.Input name ->
          let s =
            match List.assoc_opt name inputs with
            | Some s -> s
            | None ->
                failwith
                  (Printf.sprintf "Instantiate.stamp: input %s not bound" name)
          in
          if Builder.width s <> nd.width then
            failwith
              (Printf.sprintf
                 "Instantiate.stamp: input %s width mismatch (%d vs %d)" name
                 (Builder.width s) nd.width);
          map.(u) <- Some s
      | Netlist.Const k -> map.(u) <- Some (Builder.constb b k)
      | Netlist.Unop (Netlist.Not, a) -> map.(u) <- Some (Builder.not_ b (get a))
      | Netlist.Unop (Netlist.Neg, a) -> map.(u) <- Some (Builder.neg b (get a))
      | Netlist.Binop (op, x, y) ->
          let sx = get x and sy = get y in
          let s =
            match op with
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
            | Netlist.Le sg -> Builder.le b ~signed:(sg = Netlist.Signed) sx sy
          in
          map.(u) <- Some s
      | Netlist.Mux (s, x, y) ->
          map.(u) <- Some (Builder.mux b (get s) (get x) (get y))
      | Netlist.Slice (x, hi, lo) ->
          map.(u) <- Some (Builder.slice b (get x) ~hi ~lo)
      | Netlist.Concat (x, y) -> map.(u) <- Some (Builder.concat b (get x) (get y))
      | Netlist.Uext x -> map.(u) <- Some (Builder.uext b (get x) nd.width)
      | Netlist.Sext x -> map.(u) <- Some (Builder.sext b (get x) nd.width)
      | Netlist.Mem_read (m, a) ->
          map.(u) <- Some (Builder.mem_read b mem_map.(m) (get a)))
    order;
  Array.iteri
    (fun mi (m : Netlist.mem) ->
      List.iter
        (fun (w : Netlist.write_port) ->
          Builder.mem_write b mem_map.(mi) ~enable:(get w.Netlist.w_enable)
            ~addr:(get w.Netlist.w_addr) ~data:(get w.Netlist.w_data))
        m.Netlist.mem_writes)
    inst.mems;
  (* Connect the registers. *)
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Reg { d; enable = en; _ } ->
          let q = get nd.uid in
          Builder.connect b q
            (match en with
            | None -> get d
            | Some e -> Builder.mux b (get e) (get d) q)
      | _ -> ())
    inst.nodes;
  List.map (fun (name, u) -> (name, get u)) inst.outputs
