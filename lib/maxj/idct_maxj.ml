open Hw

let w1 = Idct.Chenwang.w1
let w2 = Idct.Chenwang.w2
let w3 = Idct.Chenwang.w3
let w5 = Idct.Chenwang.w5
let w6 = Idct.Chenwang.w6
let w7 = Idct.Chenwang.w7

(* Chen-Wang passes over kernel streams. *)
let row_pass k ins =
  let add = Kernel.add k and sub = Kernel.sub k in
  let mulc = Kernel.mulc k and shl = Kernel.shl k and asr_ = Kernel.asr_ k in
  let lit v = Kernel.const k ~width:(Bits.width_for_signed_range v v) v in
  let x0 = add (shl ins.(0) 11) (lit 128) in
  let x1 = shl ins.(4) 11 in
  let x2 = ins.(6) and x3 = ins.(2) and x4 = ins.(1) in
  let x5 = ins.(7) and x6 = ins.(5) and x7 = ins.(3) in
  let x8 = mulc w7 (add x4 x5) in
  let x4 = add x8 (mulc (w1 - w7) x4) in
  let x5 = sub x8 (mulc (w1 + w7) x5) in
  let x8 = mulc w3 (add x6 x7) in
  let x6 = sub x8 (mulc (w3 - w5) x6) in
  let x7 = sub x8 (mulc (w3 + w5) x7) in
  let x8 = add x0 x1 in
  let x0 = sub x0 x1 in
  let x1 = mulc w6 (add x3 x2) in
  let x2 = sub x1 (mulc (w2 + w6) x2) in
  let x3 = add x1 (mulc (w2 - w6) x3) in
  let x1 = add x4 x6 in
  let x4 = sub x4 x6 in
  let x6 = add x5 x7 in
  let x5 = sub x5 x7 in
  let x7 = add x8 x3 in
  let x8 = sub x8 x3 in
  let x3 = add x0 x2 in
  let x0 = sub x0 x2 in
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (lit 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (lit 128)) 8 in
  Array.map
    (fun e -> Kernel.cast k e 16)
    [|
      asr_ (add x7 x1) 8;
      asr_ (add x3 x2) 8;
      asr_ (add x0 x4) 8;
      asr_ (add x8 x6) 8;
      asr_ (sub x8 x6) 8;
      asr_ (sub x0 x4) 8;
      asr_ (sub x3 x2) 8;
      asr_ (sub x7 x1) 8;
    |]

let col_pass k ins =
  let add = Kernel.add k and sub = Kernel.sub k in
  let mulc = Kernel.mulc k and shl = Kernel.shl k and asr_ = Kernel.asr_ k in
  let lit v = Kernel.const k ~width:(Bits.width_for_signed_range v v) v in
  let iclip e = Kernel.clamp k ~lo:(-256) ~hi:255 e in
  let x0 = add (shl ins.(0) 8) (lit 8192) in
  let x1 = shl ins.(4) 8 in
  let x2 = ins.(6) and x3 = ins.(2) and x4 = ins.(1) in
  let x5 = ins.(7) and x6 = ins.(5) and x7 = ins.(3) in
  let x8 = add (mulc w7 (add x4 x5)) (lit 4) in
  let x4 = asr_ (add x8 (mulc (w1 - w7) x4)) 3 in
  let x5 = asr_ (sub x8 (mulc (w1 + w7) x5)) 3 in
  let x8 = add (mulc w3 (add x6 x7)) (lit 4) in
  let x6 = asr_ (sub x8 (mulc (w3 - w5) x6)) 3 in
  let x7 = asr_ (sub x8 (mulc (w3 + w5) x7)) 3 in
  let x8 = add x0 x1 in
  let x0 = sub x0 x1 in
  let x1 = add (mulc w6 (add x3 x2)) (lit 4) in
  let x2 = asr_ (sub x1 (mulc (w2 + w6) x2)) 3 in
  let x3 = asr_ (add x1 (mulc (w2 - w6) x3)) 3 in
  let x1 = add x4 x6 in
  let x4 = sub x4 x6 in
  let x6 = add x5 x7 in
  let x5 = sub x5 x7 in
  let x7 = add x8 x3 in
  let x8 = sub x8 x3 in
  let x3 = add x0 x2 in
  let x0 = sub x0 x2 in
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (lit 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (lit 128)) 8 in
  [|
    iclip (asr_ (add x7 x1) 14);
    iclip (asr_ (add x3 x2) 14);
    iclip (asr_ (add x0 x4) 14);
    iclip (asr_ (add x8 x6) 14);
    iclip (asr_ (sub x8 x6) 14);
    iclip (asr_ (sub x0 x4) 14);
    iclip (asr_ (sub x3 x2) 14);
    iclip (asr_ (sub x7 x1) 14);
  |]

(* ------------------------------------------------------------------ *)
(* Initial kernel: a whole matrix per tick                             *)
(* ------------------------------------------------------------------ *)

let initial_kernel () =
  let k = Kernel.create "idct_matrix" in
  let m =
    Array.init 64 (fun i -> Kernel.input k (Printf.sprintf "m_%d" i) 12)
  in
  let rows =
    Array.init 8 (fun r ->
        row_pass k (Array.init 8 (fun c -> m.((r * 8) + c))))
  in
  let cols =
    Array.init 8 (fun c ->
        col_pass k (Array.init 8 (fun r -> rows.(r).(c))))
  in
  for r = 0 to 7 do
    for c = 0 to 7 do
      Kernel.output k (Printf.sprintf "out_%d" ((r * 8) + c)) cols.(c).(r)
    done
  done;
  Kernel.finalize k

let initial_system () = Manager.build ~kernel:(initial_kernel ()) ~ticks_per_op:1 ()

(* ------------------------------------------------------------------ *)
(* Optimized kernel: a row per tick, on-chip transpose buffer          *)
(* ------------------------------------------------------------------ *)

(* Stand-alone retimed row/col units, stamped into the streaming engine. *)
let unit_circuit name pass in_width =
  let k = Kernel.create name in
  let ins =
    Array.init 8 (fun i -> Kernel.input k (Printf.sprintf "u_%d" i) in_width)
  in
  let outs = pass k ins in
  Array.iteri
    (fun i s -> Kernel.output k (Printf.sprintf "q_%d" i) s)
    outs;
  Kernel.finalize k

let build_opt () =
  let row_net = unit_circuit "maxj_row" row_pass 12 in
  let col_net = unit_circuit "maxj_col" col_pass 16 in
  let kr = Kernel.pipeline_depth row_net in
  let kc = Kernel.pipeline_depth col_net in
  let b = Builder.create "idct_rowstream" in
  let ins = Array.init 8 (fun i -> Builder.input b (Printf.sprintf "m_%d" i) 12) in
  (* Tick counter and its image delayed by the row-unit depth. *)
  let cnt16 = Builder.reg b ~width:4 "cnt16" in
  Builder.connect b cnt16 (Builder.add b cnt16 (Builder.const b ~width:4 1));
  let rec delay s n =
    if n = 0 then s else delay (Builder.reg_next b ~name:"dly" s) (n - 1)
  in
  let wcnt = delay cnt16 kr in
  let wrow = Builder.slice b wcnt ~hi:2 ~lo:0 in
  let wbank = Builder.bit b wcnt 3 in
  let row_outs =
    Instantiate.stamp b row_net
      ~inputs:
        (Array.to_list
           (Array.mapi (fun i s -> (Printf.sprintf "u_%d" i, s)) ins))
  in
  let row_res =
    Array.init 8 (fun i -> List.assoc (Printf.sprintf "q_%d" i) row_outs)
  in
  (* Double-banked transpose buffer of stream holds. *)
  let mid =
    Array.init 2 (fun bank ->
        Array.init 8 (fun r ->
            Array.init 8 (fun c ->
                let en =
                  Builder.and_ b
                    (Builder.eq b wrow (Builder.const b ~width:3 r))
                    (Builder.eq b wbank (Builder.const b ~width:1 bank))
                in
                let q =
                  Builder.reg b ~enable:en ~width:16
                    (Printf.sprintf "mid%d_%d_%d" bank r c)
                in
                Builder.connect b q row_res.(c);
                q)))
  in
  (* Column scan of the bank written during the previous phase. *)
  let col_in =
    Array.init 8 (fun r ->
        let pick bank =
          Builder.mux_list b wrow (Array.to_list mid.(bank).(r))
        in
        Builder.mux b wbank (pick 0) (pick 1))
  in
  let col_outs =
    Instantiate.stamp b col_net
      ~inputs:
        (Array.to_list
           (Array.mapi (fun i s -> (Printf.sprintf "u_%d" i, s)) col_in))
  in
  for r = 0 to 7 do
    Builder.output b (Printf.sprintf "out_%d" r)
      (List.assoc (Printf.sprintf "q_%d" r) col_outs)
  done;
  (* The manager uses this to know which column a tick carries. *)
  Builder.output b "out_col" (Builder.slice b (delay wcnt kc) ~hi:2 ~lo:0);
  (Builder.finalize b, kr, kc)

(* The manager's depth is the row and column passes' latency plus this
   many ticks of transpose-buffer slack; [simulate_opt] reads the pass
   latency back from the system. *)
let opt_slack = 16

let opt_kernel () = let c, _, _ = build_opt () in c
let opt_system () =
  let c, kr, kc = build_opt () in
  Manager.build ~depth:(kr + kc + opt_slack) ~kernel:c ~ticks_per_op:8 ()

(* ------------------------------------------------------------------ *)
(* Bit-true simulation                                                  *)
(* ------------------------------------------------------------------ *)

let simulate_initial (s : Manager.system) blocks =
  let c = s.Manager.kernel and depth = s.Manager.depth in
  let sim = Sim.create c in
  Sim.reset sim;
  let n = List.length blocks in
  let inputs = Array.of_list blocks in
  let outs = ref [] in
  for t = 0 to n + depth - 1 do
    if t < n then
      Array.iteri (fun i v -> Sim.set sim (Printf.sprintf "m_%d" i) v) inputs.(t);
    if t >= depth then begin
      let blk = Axis.Block.create () in
      for i = 0 to 63 do
        let v = Sim.get sim (Printf.sprintf "out_%d" i) in
        let v = if v land 0x100 <> 0 then v - 512 else v in
        blk.(i) <- v
      done;
      outs := blk :: !outs
    end;
    Sim.step sim
  done;
  List.rev !outs

let simulate_opt (s : Manager.system) blocks =
  let c = s.Manager.kernel and passes = s.Manager.depth - opt_slack in
  let sim = Sim.create c in
  Sim.reset sim;
  let inputs = Array.of_list blocks in
  let n = Array.length inputs in
  let results = Array.init n (fun _ -> Axis.Block.create ()) in
  let got = Array.make n 0 in
  let total_ticks = (8 * (n + 2)) + s.Manager.depth in
  for t = 0 to total_ticks - 1 do
    let m = t / 8 and r = t mod 8 in
    if m < n then
      for cidx = 0 to 7 do
        Sim.set sim (Printf.sprintf "m_%d" cidx)
          (Axis.Block.get inputs.(m) ~row:r ~col:cidx)
      done;
    (* The column emerging now belongs to matrix [(t - passes)/8 - 1]. *)
    let u = t - passes in
    if u >= 8 then begin
      let src = (u / 8) - 1 and col = u mod 8 in
      if src >= 0 && src < n then begin
        for r' = 0 to 7 do
          let v = Sim.get sim (Printf.sprintf "out_%d" r') in
          let v = if v land 0x100 <> 0 then v - 512 else v in
          Axis.Block.set results.(src) ~row:r' ~col v
        done;
        got.(src) <- got.(src) + 1
      end
    end;
    Sim.step sim
  done;
  Array.iteri
    (fun i g -> if g <> 8 then failwith (Printf.sprintf "matrix %d: %d columns" i g))
    got;
  Array.to_list results
