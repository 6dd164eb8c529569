open Lang

(* ------------------------------------------------------------------ *)
(* Chen-Wang datapath in expression form (32-bit arithmetic, like the
   C original the paper's BSV design was translated from).            *)
(* ------------------------------------------------------------------ *)

let aw = 32
let c32 v = cst aw v
let sx e = if width e >= aw then e else sext e aw
let add a b = binop Hw.Netlist.Add (sx a) (sx b)
let sub a b = binop Hw.Netlist.Sub (sx a) (sx b)
let mulc k x = binop Hw.Netlist.Mul (c32 k) (sx x)
let shl x n = binop Hw.Netlist.Shl (sx x) (cst 6 n)
let asr_ x n = binop Hw.Netlist.Sra (sx x) (cst 6 n)

let iclip x =
  let x = sx x in
  let lo = c32 (-256) and hi = c32 255 in
  let too_lo = binop (Hw.Netlist.Lt Hw.Netlist.Signed) x lo in
  let too_hi = binop (Hw.Netlist.Lt Hw.Netlist.Signed) hi x in
  slice (mux too_lo lo (mux too_hi hi x)) 8 0

let w1 = Idct.Chenwang.w1
let w2 = Idct.Chenwang.w2
let w3 = Idct.Chenwang.w3
let w5 = Idct.Chenwang.w5
let w6 = Idct.Chenwang.w6
let w7 = Idct.Chenwang.w7

let row_pass ins =
  let x0 = add (shl ins.(0) 11) (c32 128) in
  let x1 = shl ins.(4) 11 in
  let x2 = sx ins.(6) and x3 = sx ins.(2) and x4 = sx ins.(1) in
  let x5 = sx ins.(7) and x6 = sx ins.(5) and x7 = sx ins.(3) in
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
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (c32 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (c32 128)) 8 in
  (* Row results are stored in 16 bits (the C original's short). *)
  let store e = slice e 15 0 in
  [|
    store (asr_ (add x7 x1) 8);
    store (asr_ (add x3 x2) 8);
    store (asr_ (add x0 x4) 8);
    store (asr_ (add x8 x6) 8);
    store (asr_ (sub x8 x6) 8);
    store (asr_ (sub x0 x4) 8);
    store (asr_ (sub x3 x2) 8);
    store (asr_ (sub x7 x1) 8);
  |]

let col_pass ins =
  let x0 = add (shl ins.(0) 8) (c32 8192) in
  let x1 = shl ins.(4) 8 in
  let x2 = sx ins.(6) and x3 = sx ins.(2) and x4 = sx ins.(1) in
  let x5 = sx ins.(7) and x6 = sx ins.(5) and x7 = sx ins.(3) in
  let x8 = add (mulc w7 (add x4 x5)) (c32 4) in
  let x4 = asr_ (add x8 (mulc (w1 - w7) x4)) 3 in
  let x5 = asr_ (sub x8 (mulc (w1 + w7) x5)) 3 in
  let x8 = add (mulc w3 (add x6 x7)) (c32 4) in
  let x6 = asr_ (sub x8 (mulc (w3 - w5) x6)) 3 in
  let x7 = asr_ (sub x8 (mulc (w3 + w5) x7)) 3 in
  let x8 = add x0 x1 in
  let x0 = sub x0 x1 in
  let x1 = add (mulc w6 (add x3 x2)) (c32 4) in
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
  let x2 = asr_ (add (mulc 181 (add x4 x5)) (c32 128)) 8 in
  let x4 = asr_ (add (mulc 181 (sub x4 x5)) (c32 128)) 8 in
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
(* Common AXI-Stream plumbing                                          *)
(* ------------------------------------------------------------------ *)

let lanes = Axis.Stream.lanes
let in_w = Axis.Stream.in_width
let out_w = Axis.Stream.out_width
let mid_w = 16

let declare_stream_inputs bld =
  let s_valid = mk_input bld Axis.Stream.s_valid 1 in
  let _s_last = mk_input bld Axis.Stream.s_last 1 in
  let s_data = Array.init lanes (fun i -> mk_input bld (Axis.Stream.s_data i) in_w) in
  let m_ready = mk_input bld Axis.Stream.m_ready 1 in
  (s_valid, s_data, m_ready)

(* An 8:1 selection expression over a register matrix. *)
let select_row regs sel r_of_i =
  Array.init lanes (fun c ->
      let rec pick i =
        if i = lanes - 1 then read regs.(r_of_i i).(c)
        else mux (sel ==: cst 3 i) (read regs.(r_of_i i).(c)) (pick (i + 1))
      in
      pick 0)

(* ------------------------------------------------------------------ *)
(* Initial design: direct translation of the C program                 *)
(* ------------------------------------------------------------------ *)

let initial_design () =
  let bld = builder "bsv_idct_initial" in
  let s_valid, s_data, m_ready = declare_stream_inputs bld in
  let matrix name w =
    Array.init lanes (fun r ->
        Array.init lanes (fun c ->
            mk_reg bld (Printf.sprintf "%s_%d_%d" name r c) w))
  in
  let inb = matrix "inb" in_w in
  let mid = matrix "mid" mid_w in
  let outb = matrix "outb" out_w in
  let ld_cnt = mk_reg bld "ld_cnt" 3 in
  let ld_done = mk_reg bld "ld_done" 1 in
  let mid_full = mk_reg bld "mid_full" 1 in
  let out_busy = mk_reg bld "out_busy" 1 in
  let ocnt = mk_reg bld "ocnt" 3 in
  let r = read in

  (* Collect one row per beat. *)
  let load_guard = s_valid &&: not_ (r ld_done) in
  let load_actions =
    List.concat
      (List.init lanes (fun row ->
           List.init lanes (fun c ->
               assign
                 ~when_:(r ld_cnt ==: cst 3 row)
                 inb.(row).(c) s_data.(c))))
    @ [
        assign ld_cnt (r ld_cnt +: cst 3 1);
        assign ~when_:(r ld_cnt ==: cst 3 (lanes - 1)) ld_done (cst 1 1);
      ]
  in
  mk_rule bld "load" ~guard:load_guard load_actions;

  (* All eight row passes at once (the unrolled C loop). *)
  let rows_guard = r ld_done &&: not_ (r mid_full) in
  let rows_actions =
    List.concat
      (List.init lanes (fun row ->
           let res = row_pass (Array.map read inb.(row)) in
           List.init lanes (fun c -> assign mid.(row).(c) res.(c))))
    @ [ assign mid_full (cst 1 1); assign ld_done (cst 1 0);
        assign ld_cnt (cst 3 0) ]
  in
  mk_rule bld "row_passes" ~guard:rows_guard rows_actions;

  (* All eight column passes at once. *)
  let cols_guard = r mid_full &&: not_ (r out_busy) in
  let cols_actions =
    List.concat
      (List.init lanes (fun col ->
           let res =
             col_pass (Array.init lanes (fun row -> read mid.(row).(col)))
           in
           List.init lanes (fun row -> assign outb.(row).(col) res.(row))))
    @ [ assign out_busy (cst 1 1); assign mid_full (cst 1 0) ]
  in
  mk_rule bld "col_passes" ~guard:cols_guard cols_actions;

  (* Drain one row per beat. *)
  let drain_guard = r out_busy &&: m_ready in
  let drain_actions =
    [
      assign ocnt (r ocnt +: cst 3 1);
      assign ~when_:(r ocnt ==: cst 3 (lanes - 1)) out_busy (cst 1 0);
    ]
  in
  mk_rule bld "drain" ~guard:drain_guard drain_actions;

  mk_output bld Axis.Stream.s_ready (not_ (r ld_done));
  mk_output bld Axis.Stream.m_valid (r out_busy);
  mk_output bld Axis.Stream.m_last (r out_busy &&: (r ocnt ==: cst 3 (lanes - 1)));
  let out_row = select_row outb (r ocnt) (fun i -> i) in
  Array.iteri
    (fun c e -> mk_output bld (Axis.Stream.m_data c) e)
    out_row;
  mk_module bld

(* ------------------------------------------------------------------ *)
(* Optimized design: macro-pipeline with produced/consumed counters    *)
(* ------------------------------------------------------------------ *)

let optimized_design () =
  let bld = builder "bsv_idct_opt" in
  let s_valid, s_data, m_ready = declare_stream_inputs bld in
  let bank_matrix name w =
    Array.init 2 (fun k ->
        Array.init lanes (fun r ->
            Array.init lanes (fun c ->
                mk_reg bld (Printf.sprintf "%s%d_%d_%d" name k r c) w)))
  in
  let mid = bank_matrix "mid" mid_w in
  let outb = bank_matrix "out" out_w in
  let fcnt = mk_reg bld "fcnt" 4 in
  let ccnt = mk_reg bld "ccnt" 4 in
  let dcnt = mk_reg bld "dcnt" 4 in
  let p1 = mk_reg bld "p1" 2 in
  let p2 = mk_reg bld "p2" 2 in
  let p3 = mk_reg bld "p3" 2 in
  let r = read in
  let occ a b = r a -: r b in
  let bank_of p = slice (read p) 0 0 in
  let cnt3 c = slice (read c) 2 0 in
  let le_u = binop (Hw.Netlist.Le Hw.Netlist.Unsigned) in

  (* Stage 1: row pass on the arriving beat, into mid[p1 mod 2]. *)
  let row_res = row_pass s_data in
  let load_guard =
    s_valid
    &&: le_u (r fcnt) (cst 4 7)
    &&: (occ p1 p2 <>: cst 2 2)
  in
  let load_actions =
    List.concat
      (List.init 2 (fun k ->
           List.concat
             (List.init lanes (fun row ->
                  List.init lanes (fun c ->
                      assign
                        ~when_:
                          ((cnt3 fcnt ==: cst 3 row)
                          &&: (bank_of p1 ==: cst 1 k))
                        mid.(k).(row).(c) row_res.(c))))))
    @ [ assign fcnt (r fcnt +: cst 4 1) ]
  in
  mk_rule bld "load" ~guard:load_guard load_actions;
  mk_rule bld "load_commit"
    ~guard:(r fcnt ==: cst 4 8)
    [ assign fcnt (cst 4 0); assign p1 (r p1 +: cst 2 1) ];

  (* Stage 2: one column pass per cycle over mid[p2 mod 2].  A single
     column unit is fed through bank/column selection muxes. *)
  let mid_col =
    Array.init lanes (fun row ->
        let pick k =
          let rec go col =
            if col = lanes - 1 then read mid.(k).(row).(col)
            else
              mux (cnt3 ccnt ==: cst 3 col) (read mid.(k).(row).(col))
                (go (col + 1))
          in
          go 0
        in
        mux (bank_of p2) (pick 1) (pick 0))
  in
  let col_res = col_pass mid_col in
  let colpass_guard =
    le_u (r ccnt) (cst 4 7)
    &&: (occ p1 p2 <>: cst 2 0)
    &&: (occ p2 p3 <>: cst 2 2)
  in
  let colpass_actions =
    List.concat
      (List.init 2 (fun k ->
           List.concat
             (List.init lanes (fun col ->
                  List.init lanes (fun row ->
                      assign
                        ~when_:
                          ((cnt3 ccnt ==: cst 3 col)
                          &&: (bank_of p2 ==: cst 1 k))
                        outb.(k).(row).(col) col_res.(row))))))
    @ [ assign ccnt (r ccnt +: cst 4 1) ]
  in
  mk_rule bld "col_pass" ~guard:colpass_guard colpass_actions;
  mk_rule bld "col_commit"
    ~guard:(r ccnt ==: cst 4 8)
    [ assign ccnt (cst 4 0); assign p2 (r p2 +: cst 2 1) ];

  (* Stage 3: drain one row per beat from out[p3 mod 2]. *)
  let drain_guard =
    le_u (r dcnt) (cst 4 7)
    &&: (occ p2 p3 <>: cst 2 0)
    &&: m_ready
  in
  mk_rule bld "drain" ~guard:drain_guard
    [ assign dcnt (r dcnt +: cst 4 1) ];
  mk_rule bld "drain_commit"
    ~guard:(r dcnt ==: cst 4 8)
    [ assign dcnt (cst 4 0); assign p3 (r p3 +: cst 2 1) ];

  mk_output bld Axis.Stream.s_ready
    (le_u (r fcnt) (cst 4 7)
    &&: (occ p1 p2 <>: cst 2 2));
  let m_valid_e =
    le_u (r dcnt) (cst 4 7)
    &&: (occ p2 p3 <>: cst 2 0)
  in
  mk_output bld Axis.Stream.m_valid m_valid_e;
  let drow = cnt3 dcnt in
  mk_output bld Axis.Stream.m_last (m_valid_e &&: (drow ==: cst 3 7));
  let out_row k = select_row outb.(k) drow (fun i -> i) in
  let row1 = out_row 1 and row0 = out_row 0 in
  Array.iteri
    (fun c e -> mk_output bld (Axis.Stream.m_data c) e)
    (Array.init lanes (fun c -> mux (bank_of p3) row1.(c) row0.(c)));
  mk_module bld

let circuit ?options m = Compile.compile ?options m
