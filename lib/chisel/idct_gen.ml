open Hw

type mode = Fixed of int * int | Inferred

let verilog_mode = Fixed (32, 16)

let w1 = Idct.Chenwang.w1
let w2 = Idct.Chenwang.w2
let w3 = Idct.Chenwang.w3
let w5 = Idct.Chenwang.w5
let w6 = Idct.Chenwang.w6
let w7 = Idct.Chenwang.w7

(* Each width discipline provides its own operator kit.  Fixed mode works
   at a single arithmetic width with wrap-around, like C [int] arithmetic
   and the paper's 32-bit Verilog; Inferred mode lets the Dsl grow widths
   minimally, like Chisel. *)
type kit = {
  add : Dsl.t -> Dsl.t -> Dsl.t;
  sub : Dsl.t -> Dsl.t -> Dsl.t;
  mulc : int -> Dsl.t -> Dsl.t;
  shl : Dsl.t -> int -> Dsl.t;
  asr_ : Dsl.t -> int -> Dsl.t;
  lit : int -> Dsl.t;
  iclip : Dsl.t -> Dsl.t;
}

let make_kit mode b =
  match mode with
  | Inferred ->
      {
        add = Dsl.add b;
        sub = Dsl.sub b;
        mulc = Dsl.mulc b;
        shl = Dsl.shl b;
        asr_ = Dsl.asr_ b;
        lit = Dsl.lit b;
        iclip = Dsl.clamp b ~lo:(-256) ~hi:255;
      }
  | Fixed (arith, _) ->
      let at x = Dsl.resize b x arith in
      {
        add = (fun x y -> Dsl.of_raw (Builder.add b (Dsl.raw (at x)) (Dsl.raw (at y))));
        sub = (fun x y -> Dsl.of_raw (Builder.sub b (Dsl.raw (at x)) (Dsl.raw (at y))));
        mulc =
          (fun c x ->
            Dsl.of_raw
              (Builder.mul b (Builder.const b ~width:arith c) (Dsl.raw (at x))));
        shl = (fun x n -> Dsl.of_raw (Builder.shl_const b (Dsl.raw (at x)) n));
        asr_ = (fun x n -> Dsl.of_raw (Builder.sra_const b (Dsl.raw (at x)) n));
        lit = (fun v -> Dsl.of_raw (Builder.const b ~width:arith v));
        iclip = Dsl.clamp b ~lo:(-256) ~hi:255;
      }

let row_datapath mode b ins =
  let { add; sub; mulc; shl; asr_; lit; iclip = _ } = make_kit mode b in
  let mulc c x = mulc c x in
  let x0 = add (shl ins.(0) 11) (lit 128) in
  let x1 = shl ins.(4) 11 in
  let x2 = ins.(6) and x3 = ins.(2) and x4 = ins.(1) in
  let x5 = ins.(7) and x6 = ins.(5) and x7 = ins.(3) in
  (* first stage *)
  let x8 = mulc w7 (add x4 x5) in
  let x4 = add x8 (mulc (w1 - w7) x4) in
  let x5 = sub x8 (mulc (w1 + w7) x5) in
  let x8 = mulc w3 (add x6 x7) in
  let x6 = sub x8 (mulc (w3 - w5) x6) in
  let x7 = sub x8 (mulc (w3 + w5) x7) in
  (* second stage *)
  let x8 = add x0 x1 in
  let x0 = sub x0 x1 in
  let x1 = mulc w6 (add x3 x2) in
  let x2 = sub x1 (mulc (w2 + w6) x2) in
  let x3 = add x1 (mulc (w2 - w6) x3) in
  let x1 = add x4 x6 in
  let x4 = sub x4 x6 in
  let x6 = add x5 x7 in
  let x5 = sub x5 x7 in
  (* third stage *)
  let x7 = add x8 x3 in
  let x8 = sub x8 x3 in
  let x3 = add x0 x2 in
  let x0 = sub x0 x2 in
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (lit 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (lit 128)) 8 in
  (* fourth stage *)
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

let col_datapath mode b ins =
  let { add; sub; mulc; shl; asr_; lit; iclip } = make_kit mode b in
  let x0 = add (shl ins.(0) 8) (lit 8192) in
  let x1 = shl ins.(4) 8 in
  let x2 = ins.(6) and x3 = ins.(2) and x4 = ins.(1) in
  let x5 = ins.(7) and x6 = ins.(5) and x7 = ins.(3) in
  (* first stage *)
  let x8 = add (mulc w7 (add x4 x5)) (lit 4) in
  let x4 = asr_ (add x8 (mulc (w1 - w7) x4)) 3 in
  let x5 = asr_ (sub x8 (mulc (w1 + w7) x5)) 3 in
  let x8 = add (mulc w3 (add x6 x7)) (lit 4) in
  let x6 = asr_ (sub x8 (mulc (w3 - w5) x6)) 3 in
  let x7 = asr_ (sub x8 (mulc (w3 + w5) x7)) 3 in
  (* second stage *)
  let x8 = add x0 x1 in
  let x0 = sub x0 x1 in
  let x1 = add (mulc w6 (add x3 x2)) (lit 4) in
  let x2 = asr_ (sub x1 (mulc (w2 + w6) x2)) 3 in
  let x3 = asr_ (add x1 (mulc (w2 - w6) x3)) 3 in
  let x1 = add x4 x6 in
  let x4 = sub x4 x6 in
  let x6 = add x5 x7 in
  let x5 = sub x5 x7 in
  (* third stage *)
  let x7 = add x8 x3 in
  let x8 = sub x8 x3 in
  let x3 = add x0 x2 in
  let x0 = sub x0 x2 in
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (lit 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (lit 128)) 8 in
  (* fourth stage *)
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

(* A dry run of the row datapath on a scratch builder (well under a
   millisecond), so every caller computes it afresh. *)
let inferred_mid_width () =
  let b = Builder.create "dryrun" in
  let ins =
    Array.init 8 (fun i ->
        Dsl.of_raw (Builder.input b (Printf.sprintf "i%d" i) Axis.Stream.in_width))
  in
  let outs = row_datapath Inferred b ins in
  Array.fold_left (fun acc s -> max acc (Dsl.width s)) 1 outs

let mid_width = function
  | Fixed (_, store) -> store
  | Inferred -> inferred_mid_width ()

let row_unit mode b raw_ins =
  let ins = Array.map Dsl.of_raw raw_ins in
  let outs = row_datapath mode b ins in
  let w = mid_width mode in
  Array.map (fun s -> Dsl.raw (Dsl.resize b s w)) outs

let col_unit mode b raw_ins =
  let ins = Array.map Dsl.of_raw raw_ins in
  let outs = col_datapath mode b ins in
  Array.map (fun s -> Dsl.raw (Dsl.resize b s Axis.Stream.out_width)) outs

let kernel_full mode b mid =
  let lanes = Axis.Stream.lanes in
  (* 8 row units, one per stored row. *)
  let rows =
    Array.init lanes (fun r ->
        row_unit mode b (Array.init lanes (fun c -> mid.((r * lanes) + c))))
  in
  (* 8 column units over the wiring transpose. *)
  let cols =
    Array.init lanes (fun c ->
        col_unit mode b (Array.init lanes (fun r -> rows.(r).(c))))
  in
  Array.init (lanes * lanes) (fun i -> cols.(i mod lanes).(i / lanes))

let design_comb mode ~name =
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:0 ~kernel:(kernel_full mode)
    ()

let design_row8col mode ~name =
  let kernel b mid =
    let lanes = Axis.Stream.lanes in
    let cols =
      Array.init lanes (fun c ->
          col_unit mode b (Array.init lanes (fun r -> mid.((r * lanes) + c))))
    in
    Array.init (lanes * lanes) (fun i -> cols.(i mod lanes).(i / lanes))
  in
  Axis.Adapter.wrap_matrix_kernel ~name ~beat_map:(row_unit mode)
    ~mid_width:(mid_width mode) ~latency:0 ~kernel ()

let design_rowcol mode ~name =
  Axis.Adapter.wrap_row_col ~name ~row_unit:(row_unit mode)
    ~mid_width:(mid_width mode) ~col_unit:(col_unit mode) ()

let arch mode ~name () =
  {
    Transfo.Subject.arch_name = name;
    stage = Transfo.Subject.Flat;
    row = row_unit mode;
    col = col_unit mode;
    arch_mid = mid_width mode;
  }

let row_comb mode ~name =
  let b = Builder.create name in
  let ins =
    Array.init Axis.Stream.lanes (fun i ->
        Builder.input b (Printf.sprintf "i%d" i) Axis.Stream.in_width)
  in
  let outs = row_unit mode b ins in
  Array.iteri (fun i s -> Builder.output b (Printf.sprintf "o%d" i) s) outs;
  Builder.finalize b
