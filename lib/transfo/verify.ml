open Hw

type obligation =
  | Cycle_exact
  | Delayed of int
  | Replicated of int
  | Stream_blocks

let obligation_name = function
  | Cycle_exact -> "cycle-exact"
  | Delayed n -> Printf.sprintf "delayed %d" n
  | Replicated n -> Printf.sprintf "replicated x%d" n
  | Stream_blocks -> "stream-blocks"

(* Full-width random draw (the Equiv stimulus idiom): values wider than
   30 bits are composed from 30-bit chunks so high datapath bits are
   exercised too. *)
let rec draw rng w =
  if w <= 30 then Random.State.bits rng land ((1 lsl w) - 1)
  else (draw rng (w - 30) lsl 30) lor Random.State.bits rng

let port_widths (c : Netlist.t) ports =
  List.map (fun (nm, u) -> (nm, (Netlist.node c u).Netlist.width)) ports

let cycle_exact ~cycles ~seed (a : Netlist.t) (b : Netlist.t) =
  match Equiv.check ~cycles ~seed a b with
  | Equiv.Equivalent -> Ok ()
  | Equiv.Mismatch _ as r -> Error (Format.asprintf "%a" Equiv.pp_result r)
  | exception Invalid_argument msg -> Error msg

(* b's outputs must reproduce a's outputs [lat] cycles later, under one
   shared input stream. *)
let delayed ~cycles ~seed ~lat (a : Netlist.t) (b : Netlist.t) =
  let ins = port_widths a a.Netlist.inputs in
  let outs = port_widths a a.Netlist.outputs in
  if port_widths b b.Netlist.inputs <> ins then
    Error "input ports differ between the circuits"
  else if port_widths b b.Netlist.outputs <> outs then
    Error "output ports differ between the circuits"
  else begin
    let sa = Sim.create a and sb = Sim.create b in
    Sim.reset sa;
    Sim.reset sb;
    let ins =
      Array.of_list
        (List.map (fun (nm, w) -> (w, Sim.in_port sa nm, Sim.in_port sb nm)) ins)
    in
    let outs =
      Array.of_list
        (List.map
           (fun (nm, _) -> (nm, Sim.out_port sa nm, Sim.out_port sb nm))
           outs)
    in
    let rng = Random.State.make [| seed; 0x7A5F |] in
    let total = cycles + lat in
    let hist = Array.make_matrix total (Array.length outs) 0 in
    let result = ref (Ok ()) in
    (try
       for t = 0 to total - 1 do
         Array.iter
           (fun (w, pa, pb) ->
             let v = draw rng w in
             Sim.set_port sa pa ~lane:0 v;
             Sim.set_port sb pb ~lane:0 v)
           ins;
         Array.iteri
           (fun i (_, pa, _) -> hist.(t).(i) <- Sim.get_port sa pa ~lane:0)
           outs;
         if t >= lat then
           Array.iteri
             (fun i (nm, _, pb) ->
               let expect = hist.(t - lat).(i) in
               let got = Sim.get_port sb pb ~lane:0 in
               if got <> expect then begin
                 result :=
                   Error
                     (Printf.sprintf
                        "delayed-by-%d mismatch: output %s at cycle %d: \
                         original %d, transformed %d"
                        lat nm t expect got);
                 raise Exit
               end)
             outs;
         Sim.step sa;
         Sim.step sb
       done
     with Exit -> ());
    !result
  end

(* b holds [k] copies of a with ports suffixed "_r<j>"; each copy must
   match a fresh run of a under its own stimulus. *)
let replicated ~cycles ~seed ~k (a : Netlist.t) (b : Netlist.t) =
  let ins = Array.of_list (port_widths a a.Netlist.inputs) in
  let outs = Array.of_list (port_widths a a.Netlist.outputs) in
  let sa = Sim.create a and sb = Sim.create b in
  Sim.reset sa;
  Sim.reset sb;
  (* Copy [j]'s port of each name, resolved once, copy by copy: the first
     port [b] lacks is the one the first cycle's [Sim.set]/[Sim.get] by
     name met first, and it is reported as they reported it. *)
  let copy_ports dir resolve ~caller ports =
    Array.init k (fun j ->
        Array.map
          (fun (nm, _) ->
            let name = Printf.sprintf "%s_r%d" nm j in
            try resolve sb name
            with Invalid_argument _ -> Netlist.port_error b dir ~caller name)
          ports)
  in
  let b_ins = copy_ports `In Sim.in_port ~caller:"Sim.set" ins in
  let b_outs = copy_ports `Out Sim.out_port ~caller:"Sim.get" outs in
  let a_ins = Array.map (fun (nm, _) -> Sim.in_port sa nm) ins in
  let a_outs = Array.map (fun (nm, _) -> Sim.out_port sa nm) outs in
  let rng = Random.State.make [| seed; 0x4E9B |] in
  let stim = Array.make_matrix k (Array.length ins) 0 in
  let result = ref (Ok ()) in
  (try
     for t = 0 to cycles - 1 do
       Array.iter
         (fun vals -> Array.iteri (fun i (_, w) -> vals.(i) <- draw rng w) ins)
         stim;
       Array.iteri
         (fun j vals ->
           Array.iteri (fun i v -> Sim.set_port sb b_ins.(j).(i) ~lane:0 v) vals)
         stim;
       Array.iteri
         (fun j vals ->
           (* the original is purely combinational (the transformation's
              precondition), so one instance re-driven per lane suffices *)
           Array.iteri (fun i v -> Sim.set_port sa a_ins.(i) ~lane:0 v) vals;
           Array.iteri
             (fun i (nm, _) ->
               let expect = Sim.get_port sa a_outs.(i) ~lane:0 in
               let got = Sim.get_port sb b_outs.(j).(i) ~lane:0 in
               if got <> expect then begin
                 result :=
                   Error
                     (Printf.sprintf
                        "replicated mismatch: lane %d output %s at cycle %d: \
                         original %d, copy %d"
                        j nm t expect got);
                 raise Exit
               end)
             outs)
         stim;
       Sim.step sb
     done
   with Exit -> ());
  !result

let stream_blocks ~seed ~blocks (a : Netlist.t) (b : Netlist.t) =
  let half = 1 lsl (Axis.Stream.in_width - 1) in
  let st = Axis.Block.Rand.create ~seed () in
  let bs =
    List.init blocks (fun _ ->
        Axis.Block.Rand.block st ~lo:(-half) ~hi:(half - 1))
  in
  match
    ( Axis.Driver.transform_batch a bs,
      Axis.Driver.transform_batch b bs )
  with
  | oa, ob ->
      let rec cmp i = function
        | [], [] -> Ok ()
        | x :: xs, y :: ys ->
            if Axis.Block.equal x y then cmp (i + 1) (xs, ys)
            else
              Error
                (Printf.sprintf
                   "stream mismatch: block %d differs between the %s and %s \
                    architectures"
                   i a.Netlist.circuit_name b.Netlist.circuit_name)
        | _ -> Error "stream mismatch: different block counts"
      in
      cmp 0 (oa, ob)
  | exception Failure msg -> Error ("stream testbench: " ^ msg)
  | exception Axis.Driver.Protocol_violation v ->
      Error
        (Format.asprintf "stream testbench: violates AXI-Stream: %a"
           Axis.Monitor.pp_violation v)

let discharge ?(cycles = 256) ?(seed = 7) ?(blocks = 4) ob ~before ~after =
  let a = before.Subject.circuit and b = after.Subject.circuit in
  match ob with
  | Cycle_exact -> cycle_exact ~cycles ~seed a b
  | Delayed lat -> delayed ~cycles ~seed ~lat a b
  | Replicated k -> replicated ~cycles ~seed ~k a b
  | Stream_blocks -> stream_blocks ~seed ~blocks a b
