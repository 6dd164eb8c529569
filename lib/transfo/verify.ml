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
    let rng = Random.State.make [| seed; 0x7A5F |] in
    let total = cycles + lat in
    let hist = Array.make total [] in
    let result = ref (Ok ()) in
    (try
       for t = 0 to total - 1 do
         List.iter
           (fun (nm, w) ->
             let v = draw rng w in
             Sim.set sa nm v;
             Sim.set sb nm v)
           ins;
         hist.(t) <- List.map (fun (nm, _) -> (nm, Sim.get sa nm)) outs;
         if t >= lat then
           List.iter2
             (fun (nm, _) (_, expect) ->
               let got = Sim.get sb nm in
               if got <> expect then begin
                 result :=
                   Error
                     (Printf.sprintf
                        "delayed-by-%d mismatch: output %s at cycle %d: \
                         original %d, transformed %d"
                        lat nm t expect got);
                 raise Exit
               end)
             outs
             hist.(t - lat);
         Sim.step sa;
         Sim.step sb
       done
     with Exit -> ());
    !result
  end

(* b holds [k] copies of a with ports suffixed "_r<j>"; each copy must
   match a fresh run of a under its own stimulus. *)
let replicated ~cycles ~seed ~k (a : Netlist.t) (b : Netlist.t) =
  let ins = port_widths a a.Netlist.inputs in
  let outs = port_widths a a.Netlist.outputs in
  let sa = Sim.create a and sb = Sim.create b in
  Sim.reset sa;
  Sim.reset sb;
  let rng = Random.State.make [| seed; 0x4E9B |] in
  let result = ref (Ok ()) in
  (try
     for t = 0 to cycles - 1 do
       let stim =
         Array.init k (fun _ -> List.map (fun (nm, w) -> (nm, draw rng w)) ins)
       in
       Array.iteri
         (fun j vals ->
           List.iter
             (fun (nm, v) -> Sim.set sb (Printf.sprintf "%s_r%d" nm j) v)
             vals)
         stim;
       Array.iteri
         (fun j vals ->
           (* the original is purely combinational (the transformation's
              precondition), so one instance re-driven per lane suffices *)
           List.iter (fun (nm, v) -> Sim.set sa nm v) vals;
           List.iter
             (fun (nm, _) ->
               let expect = Sim.get sa nm in
               let got = Sim.get sb (Printf.sprintf "%s_r%d" nm j) in
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
