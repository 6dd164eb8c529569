open Ir

(* AST construction sugar (32-bit arithmetic with explicit casts, like the
   XLS example the paper adapted). *)
let aw = 32
let v x = Var x
let l v = Lit { width = aw; value = v }
let li v = Lit { width = 32; value = v } (* loop/index literals *)
let ( +: ) a b = Bin (Hw.Netlist.Add, a, b)
let ( -: ) a b = Bin (Hw.Netlist.Sub, a, b)
let ( *: ) a b = Bin (Hw.Netlist.Mul, a, b)
let shl a n = Bin (Hw.Netlist.Shl, a, Lit { width = 6; value = n })
let asr_ a n = Bin (Hw.Netlist.Sra, a, Lit { width = 6; value = n })
let s32 e = Cast (e, aw, `Signed)
let lets bindings final =
  List.fold_right (fun (x, e) acc -> Let (x, e, acc)) bindings final

let w1 = Idct.Chenwang.w1
let w2 = Idct.Chenwang.w2
let w3 = Idct.Chenwang.w3
let w5 = Idct.Chenwang.w5
let w6 = Idct.Chenwang.w6
let w7 = Idct.Chenwang.w7

(* The shared butterfly (stages one to three).  [pre] differs between the
   row pass and the column pass, as do the output shift and clipping. *)
let butterfly ~x0_init ~round4 body =
  lets
    ([
       ("x2", s32 (Index (v "x", li 6)));
       ("x3", s32 (Index (v "x", li 2)));
       ("x4", s32 (Index (v "x", li 1)));
       ("x5", s32 (Index (v "x", li 7)));
       ("x6", s32 (Index (v "x", li 5)));
       ("x7", s32 (Index (v "x", li 3)));
       ("x0", x0_init);
       ("t8", (l w7 *: (v "x4" +: v "x5")) +: l round4);
       ("x4a", v "t8" +: (l (w1 - w7) *: v "x4"));
       ("x5a", v "t8" -: (l (w1 + w7) *: v "x5"));
       ("t8b", (l w3 *: (v "x6" +: v "x7")) +: l round4);
       ("x6a", v "t8b" -: (l (w3 - w5) *: v "x6"));
       ("x7a", v "t8b" -: (l (w3 + w5) *: v "x7"));
     ]
    @ body)
    (ArrayLit
       [ v "o0"; v "o1"; v "o2"; v "o3"; v "o4"; v "o5"; v "o6"; v "o7" ])

let stage234 ~shift3 =
  let sh e = if shift3 then asr_ e 3 else e in
  [
    ("x4b", sh (v "x4a"));
    ("x5b", sh (v "x5a"));
    ("x6b", sh (v "x6a"));
    ("x7b", sh (v "x7a"));
    ("x8", v "x0" +: v "x1");
    ("x0a", v "x0" -: v "x1");
    ("t1", (l w6 *: (v "x3" +: v "x2")) +: l (if shift3 then 4 else 0));
    ("x2a", sh (v "t1" -: (l (w2 + w6) *: v "x2")));
    ("x3a", sh (v "t1" +: (l (w2 - w6) *: v "x3")));
    ("x1a", v "x4b" +: v "x6b");
    ("x4c", v "x4b" -: v "x6b");
    ("x6c", v "x5b" +: v "x7b");
    ("x5c", v "x5b" -: v "x7b");
    ("x7c", v "x8" +: v "x3a");
    ("x8a", v "x8" -: v "x3a");
    ("x3b", v "x0a" +: v "x2a");
    ("x0b", v "x0a" -: v "x2a");
    ("x2b", asr_ ((l 181 *: (v "x4c" +: v "x5c")) +: l 128) 8);
    ("x4d", asr_ ((l 181 *: (v "x4c" -: v "x5c")) +: l 128) 8);
  ]

let row_fn =
  let out c e = (c, Cast (e, 16, `Signed)) in
  {
    fname = "row_pass";
    params = [ { pname = "x"; pty = Array (Bits 12, 8) } ];
    ret = Array (Bits 16, 8);
    body =
      butterfly
        ~x0_init:(shl (s32 (Index (v "x", li 0))) 11 +: l 128)
        ~round4:0
        (("x1", shl (s32 (Index (v "x", li 4))) 11)
         :: stage234 ~shift3:false
        @ [
            out "o0" (asr_ (v "x7c" +: v "x1a") 8);
            out "o1" (asr_ (v "x3b" +: v "x2b") 8);
            out "o2" (asr_ (v "x0b" +: v "x4d") 8);
            out "o3" (asr_ (v "x8a" +: v "x6c") 8);
            out "o4" (asr_ (v "x8a" -: v "x6c") 8);
            out "o5" (asr_ (v "x0b" -: v "x4d") 8);
            out "o6" (asr_ (v "x3b" -: v "x2b") 8);
            out "o7" (asr_ (v "x7c" -: v "x1a") 8);
          ]);
  }

let col_fn =
  let iclip e =
    Cast
      ( If
          ( Bin (Hw.Netlist.Lt Hw.Netlist.Signed, e, l (-256)),
            l (-256),
            If (Bin (Hw.Netlist.Lt Hw.Netlist.Signed, l 255, e), l 255, e) ),
        9,
        `Signed )
  in
  let out c e = (c, iclip (asr_ e 14)) in
  {
    fname = "col_pass";
    params = [ { pname = "x"; pty = Array (Bits 16, 8) } ];
    ret = Array (Bits 9, 8);
    body =
      butterfly
        ~x0_init:(shl (s32 (Index (v "x", li 0))) 8 +: l 8192)
        ~round4:4
        (("x1", shl (s32 (Index (v "x", li 4))) 8)
         :: stage234 ~shift3:true
        @ [
            out "o0" (v "x7c" +: v "x1a");
            out "o1" (v "x3b" +: v "x2b");
            out "o2" (v "x0b" +: v "x4d");
            out "o3" (v "x8a" +: v "x6c");
            out "o4" (v "x8a" -: v "x6c");
            out "o5" (v "x0b" -: v "x4d");
            out "o6" (v "x3b" -: v "x2b");
            out "o7" (v "x7c" -: v "x1a");
          ]);
  }

(* m[r*8 + c] with one of the two factors a loop variable. *)
let at base row col =
  let term x = match x with `V name -> v name | `I k -> li k in
  Index
    ( v base,
      Bin
        ( Hw.Netlist.Add,
          Bin (Hw.Netlist.Mul, term row, li 8),
          term col ) )

let zeros w n = ArrayLit (List.init n (fun _ -> Lit { width = w; value = 0 }))

let top_fn =
  {
    fname = "idct";
    params = [ { pname = "m"; pty = Array (Bits 12, 64) } ];
    ret = Array (Bits 9, 64);
    body =
      Let
        ( "mid",
          For
            {
              var = "r";
              count = 8;
              acc = "mid_acc";
              init = zeros 16 64;
              body =
                Let
                  ( "row",
                    Call
                      ( "row_pass",
                        [ ArrayLit (List.init 8 (fun c -> at "m" (`V "r") (`I c))) ] ),
                    For
                      {
                        var = "c";
                        count = 8;
                        acc = "acc2";
                        init = v "mid_acc";
                        body =
                          Update
                            ( v "acc2",
                              Bin
                                ( Hw.Netlist.Add,
                                  Bin (Hw.Netlist.Mul, v "r", li 8),
                                  v "c" ),
                              Index (v "row", v "c") );
                      } );
            },
          For
            {
              var = "c";
              count = 8;
              acc = "out_acc";
              init = zeros 9 64;
              body =
                Let
                  ( "col",
                    Call
                      ( "col_pass",
                        [ ArrayLit (List.init 8 (fun r -> at "mid" (`I r) (`V "c"))) ] ),
                    For
                      {
                        var = "r";
                        count = 8;
                        acc = "acc3";
                        init = v "out_acc";
                        body =
                          Update
                            ( v "acc3",
                              Bin
                                ( Hw.Netlist.Add,
                                  Bin (Hw.Netlist.Mul, v "r", li 8),
                                  v "c" ),
                              Index (v "col", v "r") );
                      } );
            } );
  }

let program = { fns = [ row_fn; col_fn; top_fn ]; top = "idct" }

let kernel_circuit () =
  (match Typecheck.check_program program with
  | Ok () -> ()
  | Error e -> failwith ("dslx idct does not typecheck: " ^ e));
  Lower.circuit program

let design ?(stages = 0) ~kernel ~name () =
  let kernel_net =
    if stages = 0 then kernel else Hw.Pipeline.retime ~stages kernel
  in
  let kernel b (mid : Hw.Builder.s array) =
    let inputs =
      Array.to_list (Array.mapi (fun i s -> (Printf.sprintf "m_%d" i, s)) mid)
    in
    let outs = Hw.Instantiate.stamp b kernel_net ~inputs in
    (* The outputs are out_0 .. out_63, in declaration order. *)
    Array.of_list (List.map snd outs)
  in
  Axis.Adapter.wrap_matrix_kernel ~name ~latency:stages ~kernel ()
