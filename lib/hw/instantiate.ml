let stamp b (inst : Netlist.t) ~inputs =
  let n = Netlist.num_nodes inst in
  (* map.(u) is the uid in [b] of instance node [u], -1 until mapped. *)
  let map = Array.make n (-1) in
  let bound = Hashtbl.create 64 in
  List.iter (fun (name, s) -> Hashtbl.replace bound name s) (List.rev inputs);
  let mem_map =
    Array.map
      (fun (m : Netlist.mem) ->
        Builder.mem b (m.Netlist.mem_name ^ "_i") ~size:m.Netlist.mem_size
          ~width:m.Netlist.mem_width)
      inst.mems
  in
  let get u =
    if map.(u) < 0 then failwith "Instantiate.stamp: node mapped out of order";
    Builder.signal b map.(u)
  in
  let set u s = map.(u) <- Builder.uid s in
  (* Registers first so combinational feedback through them resolves. *)
  Array.iter
    (fun (nd : Netlist.node) ->
      match nd.kind with
      | Netlist.Reg { init; _ } ->
          let name =
            Option.value nd.name ~default:(Printf.sprintf "i%d" nd.uid)
          in
          set nd.uid (Builder.reg b ~init:(Bits.to_int init) ~width:nd.width name)
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
            match Hashtbl.find_opt bound name with
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
          set u s
      | Netlist.Const k -> set u (Builder.constb b k)
      | Netlist.Unop (Netlist.Not, a) -> set u (Builder.not_ b (get a))
      | Netlist.Unop (Netlist.Neg, a) -> set u (Builder.neg b (get a))
      | Netlist.Binop (op, x, y) ->
          let sx = get x in
          set u (Builder.binop b op sx (get y))
      | Netlist.Mux (s, x, y) ->
          set u (Builder.mux b (get s) (get x) (get y))
      | Netlist.Slice (x, hi, lo) ->
          set u (Builder.slice b (get x) ~hi ~lo)
      | Netlist.Concat (x, y) -> set u (Builder.concat b (get x) (get y))
      | Netlist.Uext x -> set u (Builder.uext b (get x) nd.width)
      | Netlist.Sext x -> set u (Builder.sext b (get x) nd.width)
      | Netlist.Mem_read (m, a) ->
          set u (Builder.mem_read b mem_map.(m) (get a)))
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
