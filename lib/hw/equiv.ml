type result =
  | Equivalent
  | Mismatch of { cycle : int; port : string; a : int; b : int }

(* Uniform w-bit draw composed from 30-bit chunks.  [Random.State.int]
   cannot produce bounds >= 2^30 (it raises) and would in any case leave
   bits >= 30 of a wide port permanently at 0 — exactly the width band
   where masking bugs live — so wide ports compose several [bits] draws. *)
let rec draw rng w =
  if w <= 30 then Random.State.bits rng land ((1 lsl w) - 1)
  else (draw rng (w - 30) lsl 30) lor Random.State.bits rng

let check ?(cycles = 64) ?(seed = 42) (ca : Netlist.t)
    (cb : Netlist.t) =
  let ports c =
    List.map (fun (nm, u) -> (nm, (Netlist.node c u).Netlist.width)) c.Netlist.inputs
  in
  if ports ca <> ports cb then
    invalid_arg "Equiv.check: input ports differ";
  let outs c =
    List.map (fun (nm, u) -> (nm, (Netlist.node c u).Netlist.width)) c.Netlist.outputs
  in
  if outs ca <> outs cb then invalid_arg "Equiv.check: output ports differ";
  let sa = Sim.create ca and sb = Sim.create cb in
  (* Ports are resolved once; the loop then moves integers only. *)
  let ins =
    Array.of_list
      (List.map
         (fun (nm, w) -> (w, Sim.in_port sa nm, Sim.in_port sb nm))
         (ports ca))
  in
  let outs =
    Array.of_list
      (List.map
         (fun (nm, _) -> (nm, Sim.out_port sa nm, Sim.out_port sb nm))
         (outs ca))
  in
  let rng = Random.State.make [| seed |] in
  let result = ref Equivalent in
  (try
     for cycle = 0 to cycles - 1 do
       Array.iter
         (fun (w, pa, pb) ->
           let v = draw rng w in
           Sim.set_port sa pa ~lane:0 v;
           Sim.set_port sb pb ~lane:0 v)
         ins;
       Array.iter
         (fun (nm, pa, pb) ->
           let a = Sim.get_port sa pa ~lane:0
           and b = Sim.get_port sb pb ~lane:0 in
           if a <> b then begin
             result := Mismatch { cycle; port = nm; a; b };
             raise Exit
           end)
         outs;
       Sim.step sa;
       Sim.step sb
     done
   with Exit -> ());
  !result

(* Shared stimulus for the crosschecks: 62 random bits with occasional
   all-ones / sign-bit extremes (the engines mask to port width on set). *)
let wide_random rng =
  match Random.State.int rng 8 with
  | 0 -> -1
  | 1 -> 1 lsl 61
  | _ ->
      Random.State.bits rng
      lor (Random.State.bits rng lsl 30)
      lor (Random.State.bits rng lsl 60)

(* Random cross-check of the levelized engine against the reference
   interpreter on ONE circuit: one [Sim] instance with [lanes] lanes
   against one [Interp] instance with [lanes] lanes, each lane driven by
   its own random stream.  Outputs and register state are compared every
   cycle, every node (including logic the levelized engine eliminated as
   dead) and all memory words at the end.  Several lanes also catch
   lane-indexing bugs (cross-lane bleed, shared state that should be
   per-lane).  The stimulus mixes activity levels, since the sweep skips
   rows whose operands did not change, at any lane count: a seeded
   schedule holds every input on a quarter of the cycles, redraws one
   lane on another quarter and all lanes on the rest, and halfway through
   resets the engine and the interpreter alike (on a held cycle: both
   keep their inputs). *)
let crosscheck ?(cycles = 1000) ?(seed = 7) ?(lanes = 1) (c : Netlist.t) =
  if lanes < 1 then invalid_arg "Equiv.crosscheck: lanes must be >= 1";
  let sc = Sim.create ~batch:lanes c in
  let itp = Interp.create ~lanes c in
  let rngs =
    Array.init lanes (fun l -> Random.State.make [| seed; 0x5eed; l |])
  in
  let schedule = Random.State.make [| seed; 0xac7 |] in
  let ins = List.map fst c.Netlist.inputs in
  let redraw l =
    List.iter
      (fun nm ->
        let v = wide_random rngs.(l) in
        Interp.set ~lane:l itp nm v;
        Sim.set ~lane:l sc nm v)
      ins
  in
  let reset_at = cycles / 2 in
  let outs =
    Array.of_list
      (List.map (fun (nm, _) -> (nm, Sim.out_port sc nm)) c.Netlist.outputs)
  in
  let regs = Netlist.reg_uids c in
  let result = ref Equivalent in
  (* The interpreter value is the reference [a], the levelized engine's
     [b]; the label is only built on a mismatch. *)
  let mismatch cycle l label a b =
    let port =
      if lanes = 1 then label else Printf.sprintf "%s [lane %d]" label l
    in
    result := Mismatch { cycle; port; a; b };
    raise Exit
  in
  (try
     for cycle = 0 to cycles - 1 do
       (if cycle = reset_at then begin
          Sim.reset sc;
          Interp.reset itp
        end
        else
          match Random.State.int schedule 4 with
          | 0 -> ()
          | 1 -> redraw (Random.State.int schedule lanes)
          | _ ->
              for l = 0 to lanes - 1 do
                redraw l
              done);
       for l = 0 to lanes - 1 do
         let lane = Some l in
         for i = 0 to Array.length outs - 1 do
           let nm, p = outs.(i) in
           let a = Interp.get ?lane itp nm and b = Sim.get_port sc p ~lane:l in
           if a <> b then mismatch cycle l nm a b
         done;
         for i = 0 to Array.length regs - 1 do
           let u = regs.(i) in
           let a = Interp.peek ?lane itp u and b = Sim.peek ?lane sc u in
           if a <> b then mismatch cycle l (Printf.sprintf "reg n%d" u) a b
         done
       done;
       Interp.step itp;
       Sim.step sc
     done;
     (* Final architectural and combinational state, node by node — this
        exercises the levelized engine's on-demand path for dead nodes. *)
     for l = 0 to lanes - 1 do
       let lane = Some l in
       let got = Sim.peek_all ?lane sc in
       for u = 0 to Netlist.num_nodes c - 1 do
         let a = Interp.peek ?lane itp u in
         if a <> got.(u) then
           mismatch cycles l (Printf.sprintf "n%d" u) a got.(u)
       done;
       Array.iteri
         (fun mi (m : Netlist.mem) ->
           for addr = 0 to m.Netlist.mem_size - 1 do
             let a = Interp.mem_word ?lane itp mi addr
             and b = Sim.mem_word ?lane sc mi addr in
             if a <> b then
               mismatch cycles l
                 (Printf.sprintf "%s[%d]" m.Netlist.mem_name addr)
                 a b
           done)
         c.Netlist.mems
     done
   with Exit -> ());
  !result

let pp_result ppf = function
  | Equivalent -> Format.fprintf ppf "equivalent"
  | Mismatch { cycle; port; a; b } ->
      Format.fprintf ppf "mismatch at cycle %d on %s: %d vs %d" cycle port a b
