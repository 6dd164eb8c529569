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

let check ?(cycles = 64) ?(seed = 42) ?(settle = 0) (ca : Netlist.t)
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
  let rng = Random.State.make [| seed |] in
  let result = ref Equivalent in
  (try
     for cycle = 0 to cycles - 1 do
       List.iter
         (fun (nm, w) ->
           let v = draw rng w in
           Sim.set sa nm v;
           Sim.set sb nm v)
         (ports ca);
       if cycle >= settle then
         List.iter
           (fun (nm, _) ->
             let a = Sim.get sa nm and b = Sim.get sb nm in
             if a <> b then begin
               result := Mismatch { cycle; port = nm; a; b };
               raise Exit
             end)
           (outs ca);
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
   against [lanes] independent [Interp] instances, each lane driven by its
   own random stream.  Outputs and register state are compared every
   cycle, every node (including logic the levelized engine eliminated as
   dead) and all memory words at the end.  Several lanes also catch
   lane-indexing bugs (cross-lane bleed, shared state that should be
   per-lane). *)
let crosscheck ?(cycles = 1000) ?(seed = 7) ?(lanes = 1) (c : Netlist.t) =
  if lanes < 1 then invalid_arg "Equiv.crosscheck: lanes must be >= 1";
  let sc = Sim.create ~batch:lanes c in
  let refs = Array.init lanes (fun _ -> Interp.create c) in
  let rngs =
    Array.init lanes (fun l -> Random.State.make [| seed; 0x5eed; l |])
  in
  let ins = List.map fst c.Netlist.inputs in
  let outs = List.map fst c.Netlist.outputs in
  let regs =
    Array.to_list c.Netlist.nodes
    |> List.filter Netlist.is_reg
    |> List.map (fun (nd : Netlist.node) -> nd.Netlist.uid)
  in
  let result = ref Equivalent in
  (* The interpreter value is the reference [a], the levelized engine's
     [b]; the label is only built on a mismatch. *)
  let compare cycle l label a b =
    if a <> b then begin
      let port =
        if lanes = 1 then label ()
        else Printf.sprintf "%s [lane %d]" (label ()) l
      in
      result := Mismatch { cycle; port; a; b };
      raise Exit
    end
  in
  (try
     for cycle = 0 to cycles - 1 do
       for l = 0 to lanes - 1 do
         List.iter
           (fun nm ->
             let v = wide_random rngs.(l) in
             Interp.set refs.(l) nm v;
             Sim.set ~lane:l sc nm v)
           ins
       done;
       for l = 0 to lanes - 1 do
         List.iter
           (fun nm ->
             compare cycle l (fun () -> nm) (Interp.get refs.(l) nm)
               (Sim.get ~lane:l sc nm))
           outs;
         List.iter
           (fun u ->
             compare cycle l
               (fun () -> Printf.sprintf "reg n%d" u)
               (Interp.peek refs.(l) u) (Sim.peek ~lane:l sc u))
           regs
       done;
       Array.iter Interp.step refs;
       Sim.step sc
     done;
     (* Final architectural and combinational state, node by node — this
        exercises the levelized engine's on-demand path for dead nodes. *)
     for l = 0 to lanes - 1 do
       for u = 0 to Netlist.num_nodes c - 1 do
         compare cycles l
           (fun () -> Printf.sprintf "n%d" u)
           (Interp.peek refs.(l) u) (Sim.peek ~lane:l sc u)
       done;
       Array.iteri
         (fun mi (m : Netlist.mem) ->
           for a = 0 to m.Netlist.mem_size - 1 do
             compare cycles l
               (fun () -> Printf.sprintf "%s[%d]" m.Netlist.mem_name a)
               (Interp.mem_word refs.(l) mi a)
               (Sim.mem_word ~lane:l sc mi a)
           done)
         c.Netlist.mems
     done
   with Exit -> ());
  !result

let pp_result ppf = function
  | Equivalent -> Format.fprintf ppf "equivalent"
  | Mismatch { cycle; port; a; b } ->
      Format.fprintf ppf "mismatch at cycle %d on %s: %d vs %d" cycle port a b
