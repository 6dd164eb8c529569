(* Additional substrate tests: constant-shift helpers, comparison sugar,
   the equivalence checker, VCD waves, device capacity and report sanity. *)

open Hw

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---------------- builder op sugar vs Bits semantics ---------------- *)

let const_shift_props =
  let gen = QCheck.(triple (int_range 2 24) int (int_range 0 30)) in
  let build f w v n =
    let b = Builder.create "p" in
    let x = Builder.const b ~width:w v in
    Builder.output b "o" (f b x n);
    let sim = Sim.create (Builder.finalize b) in
    Sim.get sim "o"
  in
  [
    QCheck.Test.make ~name:"shl_const = Bits.shift_left" ~count:200 gen
      (fun (w, v, n) ->
        build Builder.shl_const w v n
        = Bits.to_int (Bits.shift_left (Bits.create ~width:w v) (Bits.create ~width:6 (min n 63))));
    QCheck.Test.make ~name:"shr_const = Bits.shift_right_logical" ~count:200 gen
      (fun (w, v, n) ->
        build Builder.shr_const w v n
        = Bits.to_int
            (Bits.shift_right_logical (Bits.create ~width:w v) (Bits.create ~width:6 (min n 63))));
    QCheck.Test.make ~name:"sra_const = Bits.shift_right_arith" ~count:200 gen
      (fun (w, v, n) ->
        build Builder.sra_const w v n
        = Bits.to_int
            (Bits.shift_right_arith (Bits.create ~width:w v) (Bits.create ~width:6 (min n 63))));
  ]

let test_cmp_sugar () =
  let b = Builder.create "cmp" in
  let x = Builder.input b "x" 8 and y = Builder.input b "y" 8 in
  Builder.output b "gt" (Builder.gt b ~signed:true x y);
  Builder.output b "ge" (Builder.ge b ~signed:true x y);
  let sim = Sim.create (Builder.finalize b) in
  Sim.set sim "x" 0xFF (* -1 *);
  Sim.set sim "y" 1;
  check int "-1 > 1 signed" 0 (Sim.get sim "gt");
  Sim.set sim "y" 0xFE (* -2 *);
  check int "-1 > -2" 1 (Sim.get sim "gt");
  Sim.set sim "y" 0xFF;
  check int "-1 >= -1" 1 (Sim.get sim "ge")

let test_concat_list () =
  let b = Builder.create "cl" in
  let parts = List.map (fun v -> Builder.const b ~width:4 v) [ 0xA; 0xB; 0xC ] in
  Builder.output b "o" (Builder.concat_list b parts);
  let sim = Sim.create (Builder.finalize b) in
  check int "abc" 0xABC (Sim.get sim "o");
  (* A fused concat of constants only: its row runs on the first sweep
     and never again. *)
  check int "one row, run once" 1 (Sim.evaluations sim);
  Sim.step sim;
  check int "abc after a step" 0xABC (Sim.get sim "o");
  check int "still run once" 1 (Sim.evaluations sim)

let test_mux_list_narrow_select () =
  let b = Builder.create "ml" in
  let sel = Builder.input b "s" 1 in
  (match Builder.mux_list b sel (List.init 4 (fun i -> Builder.const b ~width:4 i)) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected select-width failure")

(* ---------------- equivalence checker ---------------- *)

let adder w name =
  let b = Builder.create name in
  let x = Builder.input b "x" w and y = Builder.input b "y" w in
  Builder.output b "s" (Builder.add b x y);
  Builder.finalize b

let test_equiv_accepts () =
  match Equiv.check (adder 8 "a") (adder 8 "b") with
  | Equiv.Equivalent -> ()
  | r -> Alcotest.fail (Format.asprintf "unexpected %a" Equiv.pp_result r)

let test_equiv_detects () =
  let broken =
    let b = Builder.create "broken" in
    let x = Builder.input b "x" 8 and y = Builder.input b "y" 8 in
    Builder.output b "s" (Builder.sub b x y);
    Builder.finalize b
  in
  (match Equiv.check (adder 8 "a") broken with
  | Equiv.Mismatch { port = "s"; _ } -> ()
  | Equiv.Mismatch _ | Equiv.Equivalent -> Alcotest.fail "expected mismatch on s")

let test_equiv_port_check () =
  match Equiv.check (adder 8 "a") (adder 9 "b") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected port width rejection"

(* Regression for the wide-port stimulus blind spot: the checker used to
   draw inputs with [Random.State.int rng (1 lsl min w 30)], which raises
   for w >= 30 on a 64-bit runtime and — had it not raised — would never
   have driven bits 30 and up.  Two circuits that differ only in how they
   treat the high bits of a 40-bit input must be distinguished. *)
let test_equiv_wide_port_blindness () =
  let ident =
    let b = Builder.create "wide_id" in
    let x = Builder.input b "x" 40 in
    Builder.output b "o" x;
    Builder.finalize b
  in
  let low30_only =
    let b = Builder.create "wide_tr" in
    let x = Builder.input b "x" 40 in
    (* keeps the low 30 bits, zeroes bits 30..39 — indistinguishable from
       [ident] under any stimulus confined below bit 30 *)
    Builder.output b "o"
      (Builder.and_ b x (Builder.const b ~width:40 ((1 lsl 30) - 1)));
    Builder.finalize b
  in
  (match Equiv.check ident low30_only with
  | Equiv.Mismatch { port = "o"; _ } -> ()
  | Equiv.Mismatch _ | Equiv.Equivalent ->
      Alcotest.fail "high-bit truncation went undetected");
  (* and the full 62-bit width must be drivable without an exception *)
  match Equiv.check (adder 62 "a") (adder 62 "b") with
  | Equiv.Equivalent -> ()
  | r -> Alcotest.fail (Format.asprintf "62-bit check: unexpected %a" Equiv.pp_result r)

let test_equiv_settle () =
  (* A 1-deep pipeline of the adder is equivalent after one cycle when
     inputs are held... it is not cycle-identical, and Equiv.check, which
     compares from the first cycle on, must catch that. *)
  let piped =
    let b = Builder.create "p" in
    let x = Builder.input b "x" 8 and y = Builder.input b "y" 8 in
    Builder.output b "s" (Builder.reg_next b (Builder.add b x y));
    Builder.finalize b
  in
  (match Equiv.check (adder 8 "a") piped with
  | Equiv.Mismatch _ -> ()
  | Equiv.Equivalent -> Alcotest.fail "registered adder is not cycle-identical")

(* ---------------- waves ---------------- *)

let test_vcd () =
  let b = Builder.create "wave" in
  let q = Builder.reg b ~width:4 "count" in
  Builder.connect b q (Builder.add b q (Builder.one b 4));
  Builder.output b "o" q;
  let sim = Sim.create (Builder.finalize b) in
  let w = Waves.create sim in
  Waves.run w 5;
  let vcd = Waves.to_string w in
  check bool "has timescale" true (contains vcd "$timescale");
  check bool "declares count" true (contains vcd "count $end");
  check bool "has time 5" true (contains vcd "#5");
  check bool "records 0101 at some point" true (contains vcd "b0101 ");
  check int "sim advanced" 5 (Sim.cycle_count sim)

(* ---------------- device / synth ---------------- *)

let test_capacity_check () =
  let tiny =
    { Device.xcvu9p with Device.lut_capacity = 10; device_name = "tiny" }
  in
  let big =
    let b = Builder.create "big" in
    let x = Builder.input b "x" 32 and y = Builder.input b "y" 32 in
    Builder.output b "o" (Builder.mul b x y);
    Builder.finalize b
  in
  let r = Synth.run ~device:tiny big in
  check bool "over capacity detected" true
    (Result.is_error (Synth.check_fits tiny r));
  check bool "fits the real device" true
    (Result.is_ok (Synth.check_fits Device.xcvu9p r))

let test_utilization () =
  let u = Device.utilization Device.xcvu9p ~luts:1_182_240 ~ffs:0 ~dsps:0 in
  check bool "full LUTs = 1.0" true (abs_float (u -. 1.0) < 1e-9);
  let u2 = Device.utilization Device.xcvu9p ~luts:0 ~ffs:0 ~dsps:6840 in
  check bool "full DSPs = 1.0" true (abs_float (u2 -. 1.0) < 1e-9)

let test_io_bits () =
  let b = Builder.create "io" in
  let x = Builder.input b "x" 12 in
  Builder.output b "o" (Builder.reg_next b x);
  let c = Builder.finalize b in
  check int "12 in + 12 out + clk + rst" 26 (Techmap.io_bits c)

let test_netlist_stats () =
  let b = Builder.create "st" in
  let x = Builder.input b "x" 8 in
  Builder.output b "o" (Builder.add b x (Builder.reg_next b x));
  let stats = Netlist.stats (Builder.finalize b) in
  check int "one add" 1 (List.assoc "add" stats);
  check int "one reg" 1 (List.assoc "reg" stats);
  check int "one input" 1 (List.assoc "input" stats)

let test_mem_read_costed_as_lutram () =
  let b = Builder.create "ram" in
  let m = Builder.mem b "ram" ~size:64 ~width:16 in
  let a = Builder.input b "a" 6 in
  Builder.mem_write b m ~enable:(Builder.input b "we" 1) ~addr:a
    ~data:(Builder.input b "d" 16);
  Builder.output b "q" (Builder.mem_read b m a);
  let r = Synth.run (Builder.finalize b) in
  check bool "a 64x16 LUTRAM costs tens of LUTs, not thousands" true
    (r.Synth.luts > 0 && r.Synth.luts < 100);
  check int "no flip-flops for the array" 0 r.Synth.ffs

(* ---------------- simulation engines ---------------- *)

let umask w = if w >= 62 then max_int else (1 lsl w) - 1

(* The full 62-bit width used to be truncated to 61 bits by the old
   [-1 lsr 2] mask; exercise every width at the top of the native range. *)
let test_width_boundary () =
  List.iter
    (fun w ->
      let b = Builder.create (Printf.sprintf "wide%d" w) in
      let x = Builder.input b "x" w in
      Builder.output b "id" x;
      Builder.output b "sum" (Builder.add b x x);
      Builder.output b "sra" (Builder.sra_const b x 1);
      let sim = Sim.create (Builder.finalize b) in
      let m = umask w in
      Sim.set sim "x" (-1);
      check int (Printf.sprintf "w=%d all-ones" w) m (Sim.get sim "id");
      check int
        (Printf.sprintf "w=%d signed all-ones" w)
        (-1) (Sim.get_signed sim "id");
      check int (Printf.sprintf "w=%d x+x wraps" w) (m - 1) (Sim.get sim "sum");
      check int (Printf.sprintf "w=%d sra keeps sign" w) m (Sim.get sim "sra"))
    [ 60; 61; 62 ];
  match Bits.create ~width:63 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "width 63 must be rejected"

let test_write_port_order () =
  (* [k]/[r]/[u]: a constant, a register with a non-zero init and an input
     nobody drives — the interpreter's sources, which it loads rather than
     evaluates. *)
  let k = ref 0 and r = ref 0 and u = ref 0 and r1 = ref 0 in
  let c =
    let b = Builder.create "wconf" in
    let m = Builder.mem b "m" ~size:8 ~width:8 in
    let we0 = Builder.input b "we0" 1 and we1 = Builder.input b "we1" 1 in
    let addr = Builder.input b "a" 3 in
    let unset = Builder.input b "unset" 5 in
    let kaa = Builder.const b ~width:8 0xAA in
    Builder.mem_write b m ~enable:we0 ~addr ~data:kaa;
    Builder.mem_write b m ~enable:we1 ~addr
      ~data:(Builder.const b ~width:8 0x55);
    Builder.output b "q" (Builder.mem_read b m addr);
    let cnt = Builder.reg b ~init:0x3E ~width:6 "cnt" in
    let next = Builder.add b cnt (Builder.one b 6) in
    Builder.connect b cnt next;
    Builder.output b "cnt" cnt;
    Builder.output b "u" unset;
    k := Builder.uid kaa;
    r := Builder.uid cnt;
    u := Builder.uid unset;
    r1 := Builder.uid next;
    Builder.finalize b
  in
  let sources what si ~cnt =
    check int (what ^ ": constant") 0xAA (Interp.peek si !k);
    check int (what ^ ": register") cnt (Interp.peek si !r);
    check int (what ^ ": register + 1") ((cnt + 1) land 63) (Interp.peek si !r1);
    check int (what ^ ": unset input") 0 (Interp.peek si !u)
  in
  let si = Interp.create c in
  sources "after create" si ~cnt:0x3E;
  Interp.set si "a" 3;
  sources "after set" si ~cnt:0x3E;
  Interp.step si;
  sources "after step" si ~cnt:0x3F;
  Interp.step si;
  sources "after a wrapping step" si ~cnt:0;
  let drive set step get =
    set "we0" 1;
    set "we1" 1;
    set "a" 3;
    step ();
    get "q"
  in
  let sim = Sim.create c in
  check int "compiled: later-declared port wins" 0x55
    (drive (Sim.set sim) (fun () -> Sim.step sim) (Sim.get sim));
  let si = Interp.create c in
  check int "interp: later-declared port wins" 0x55
    (drive (Interp.set si) (fun () -> Interp.step si) (Interp.get si))

let test_port_errors () =
  let sim = Sim.create (adder 8 "perr") in
  (match Sim.set sim "zzz" 1 with
  | exception Invalid_argument msg ->
      check bool "names the missing input" true
        (contains msg "no input port zzz");
      check bool "lists the available ports" true (contains msg "has: x, y")
  | () -> Alcotest.fail "expected Invalid_argument from set");
  match Sim.get sim "nope" with
  | exception Invalid_argument msg ->
      check bool "names the missing output" true
        (contains msg "no output port nope")
  | _ -> Alcotest.fail "expected Invalid_argument from get"

let test_port_handles () =
  (* A handle resolves once and keeps the string API's diagnostics:
     unknown names list the ports, lanes are range-checked per call. *)
  let c = adder 8 "ph" in
  let sim = Sim.create ~batch:2 c in
  let raises_with what needle f =
    match f () with
    | exception Invalid_argument msg ->
        check bool (what ^ ": " ^ msg) true (contains msg needle)
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  in
  raises_with "unknown input" "no input port zzz (circuit ph has: x, y)"
    (fun () -> Sim.in_port sim "zzz");
  raises_with "unknown output" "no output port nope" (fun () ->
      Sim.out_port sim "nope");
  raises_with "interp unknown input" "no input port zzz" (fun () ->
      Interp.set (Interp.create c) "zzz" 1);
  let x = Sim.in_port sim "x" and y = Sim.in_port sim "y" in
  let s = Sim.out_port sim "s" in
  raises_with "lane too high" "lane 2 out of range (batch 2)" (fun () ->
      Sim.set_port sim x ~lane:2 1);
  raises_with "negative lane" "lane -1 out of range" (fun () ->
      Sim.get_port sim s ~lane:(-1));
  Sim.set_port sim x ~lane:1 200;
  Sim.set_port sim y ~lane:1 100;
  check int "lane 1 sums through handles (masked)" 44 (Sim.get_port sim s ~lane:1);
  check int "lane 0 untouched" 0 (Sim.get_port sim s ~lane:0);
  check int "string API reads the same slot" 44 (Sim.get sim ~lane:1 "s")

(* A shift result may be declared wider than the shifted operand; the
   shift-out guard must compare against the result width, not the operand
   width (which used to zero any amount >= the operand width).  [Builder]
   never emits this shape, so construct the netlist by hand. *)
let test_shl_wider_result () =
  let node uid width kind = { Netlist.uid; width; kind; name = None } in
  let c =
    {
      Netlist.circuit_name = "shlwide";
      nodes =
        [|
          node 0 8 (Netlist.Input "x");
          node 1 4 (Netlist.Input "n");
          node 2 16 (Netlist.Binop (Netlist.Shl, 0, 1));
        |];
      mems = [||];
      inputs = [ ("x", 0); ("n", 1) ];
      outputs = [ ("o", 2) ];
    }
  in
  let sim = Sim.create c and si = Interp.create c in
  Sim.set sim "x" 3;
  Sim.set sim "n" 10;
  Interp.set si "x" 3;
  Interp.set si "n" 10;
  check int "compiled shl past operand width" 3072 (Sim.get sim "o");
  check int "interp shl past operand width" 3072 (Interp.get si "o");
  Sim.set sim "n" 15;
  check int "shifts out the top" 0x8000 (Sim.get sim "o")

(* Random closed circuits for the engine cross-check: wide and narrow
   widths, registers with enables, a two-write-port memory, and plenty of
   dead logic (unreferenced pool entries) to exercise the compiled
   engine's elimination and [Sim.peek]'s on-demand evaluation of the
   nodes left out of the schedule. *)
let random_circuit seed =
  let rng = Random.State.make [| seed; 0xC1AC |] in
  let widths = [| 1; 2; 3; 7; 8; 12; 16; 31; 32; 33; 45; 60; 61; 62 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let b = Builder.create (Printf.sprintf "rand%d" seed) in
  let pool = ref [] in
  let push s = pool := s :: !pool in
  let any () = List.nth !pool (Random.State.int rng (List.length !pool)) in
  let coerce w s =
    let ws = Builder.width s in
    if ws = w then s
    else if ws > w then Builder.slice b s ~hi:(w - 1) ~lo:0
    else if Random.State.bool rng then Builder.uext b s w
    else Builder.sext b s w
  in
  for i = 0 to 1 + Random.State.int rng 4 do
    push (Builder.input b (Printf.sprintf "i%d" i) (pick widths))
  done;
  let regs =
    List.init
      (1 + Random.State.int rng 4)
      (fun i ->
        let w = pick widths in
        let enable =
          if Random.State.bool rng then Some (coerce 1 (any ())) else None
        in
        let init = Random.State.int rng (1 lsl min w 16) in
        let q =
          Builder.reg b ?enable ~init ~width:w (Printf.sprintf "r%d" i)
        in
        push q;
        (q, w))
  in
  (* memory words wider than 31 bits, so the engines' memory paths are
     exercised past the old narrow-stimulus range *)
  let m = Builder.mem b "m" ~size:8 ~width:33 in
  (* two write ports on purpose: same-cycle conflicts must resolve the
     same way (later-declared wins) in both engines *)
  for _ = 1 to 2 do
    Builder.mem_write b m ~enable:(coerce 1 (any ())) ~addr:(coerce 3 (any ()))
      ~data:(coerce 33 (any ()))
  done;
  push (Builder.mem_read b m (coerce 3 (any ())));
  for _ = 1 to 25 + Random.State.int rng 25 do
    let w = pick widths in
    let x () = coerce w (any ()) and y () = coerce w (any ()) in
    push
      (match Random.State.int rng 16 with
      | 0 -> Builder.add b (x ()) (y ())
      | 1 -> Builder.sub b (x ()) (y ())
      | 2 -> Builder.mul b (x ()) (y ())
      | 3 -> Builder.and_ b (x ()) (y ())
      | 4 -> Builder.or_ b (x ()) (y ())
      | 5 -> Builder.xor_ b (x ()) (y ())
      | 6 -> Builder.not_ b (x ())
      | 7 -> Builder.neg b (x ())
      | 8 -> Builder.shl b (x ()) (coerce 6 (any ()))
      | 9 -> Builder.shr b (x ()) (coerce 6 (any ()))
      | 10 -> Builder.sra b (x ()) (coerce 6 (any ()))
      | 11 -> Builder.eq b (x ()) (y ())
      | 12 -> Builder.lt b ~signed:(Random.State.bool rng) (x ()) (y ())
      | 13 -> Builder.le b ~signed:(Random.State.bool rng) (x ()) (y ())
      | 14 -> Builder.mux b (coerce 1 (any ())) (x ()) (y ())
      | _ ->
          if w <= 30 then Builder.concat b (x ()) (y ())
          else Builder.add b (x ()) (y ()))
  done;
  List.iter (fun (q, w) -> Builder.connect b q (coerce w (any ()))) regs;
  List.iteri
    (fun i s -> Builder.output b (Printf.sprintf "o%d" i) s)
    (List.filteri (fun i _ -> i land 3 = 0) !pool);
  Builder.finalize b

(* [crosscheck] runs the levelized engine behind Hw.Sim against the
   reference interpreter, lane by lane. *)
let crosscheck_prop ~name ~count ~cycles lanes =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 10_000)
    (fun seed ->
      match Equiv.crosscheck ~cycles ~seed ~lanes (random_circuit seed) with
      | Equiv.Equivalent -> true
      | Equiv.Mismatch _ as r ->
          QCheck.Test.fail_reportf "%a" Equiv.pp_result r)

(* Nodes outside the schedule in a known shape: [inner] is a concat whose
   only consumer is a concat (fused into it), and [dead] reads the
   register but feeds nothing. *)
let off_schedule_circuit () =
  let b = Builder.create "off_schedule" in
  let x = Builder.input b "x" 8 in
  let r = Builder.reg b ~width:8 "r" in
  Builder.connect b r (Builder.add b r x);
  let inner = Builder.concat b x r in
  Builder.output b "o" (Builder.concat b inner (Builder.slice b r ~hi:3 ~lo:0));
  ignore (Builder.mul b (Builder.xor_ b r x) r);
  Builder.finalize b

(* [Sim.peek] of every node in every lane, against one interpreter per
   lane, before and after the inputs change within a cycle, every fifth
   cycle and right after a reset: a node outside the schedule must read
   the current state, never a value computed before a state change.
   [crosscheck] peeks such nodes only after its last cycle. *)
let test_peek_every_node () =
  let c0 = off_schedule_circuit () in
  check int "adder, slice and apex scheduled; fused and dead nodes not" 3
    (Sim.compiled_nodes (Sim.create c0));
  let lanes = 3 in
  List.iter
    (fun c ->
      let sim = Sim.create ~batch:lanes c in
      let refs = Array.init lanes (fun _ -> Interp.create c) in
      let rng = Random.State.make [| 0x9ee7 |] in
      let compare_all cycle =
        for l = 0 to lanes - 1 do
          for u = 0 to Netlist.num_nodes c - 1 do
            let want = Interp.peek refs.(l) u
            and got = Sim.peek ~lane:l sim u in
            if want <> got then
              Alcotest.failf "%s: n%d lane %d cycle %d: interpreter %d, sim %d"
                c.Netlist.circuit_name u l cycle want got
          done
        done
      in
      for cycle = 0 to 40 do
        if cycle = 20 then begin
          Sim.reset sim;
          Array.iter Interp.reset refs
        end;
        let probe = cycle mod 5 = 0 in
        if probe then compare_all cycle;
        Array.iteri
          (fun l r ->
            if l = cycle mod lanes || Random.State.bool rng then
              List.iter
                (fun (nm, _) ->
                  let v =
                    Random.State.bits rng lor (Random.State.bits rng lsl 30)
                  in
                  Interp.set r nm v;
                  Sim.set ~lane:l sim nm v)
                c.Netlist.inputs)
          refs;
        if probe then compare_all cycle;
        Array.iter Interp.step refs;
        Sim.step sim
      done)
    (c0 :: List.init 12 random_circuit)

(* [Sim.set_row]/[Sim.get_row] against per-lane [set_port]/[get_port]:
   two instances of one circuit, one driven a row at a time and one a
   lane at a time, with values that differ per lane (and some lanes
   kept from the previous cycle), must read the same outputs in every
   lane, mid-cycle and after a step, before and after a reset, and
   evaluate the same number of schedule rows. *)
let test_rows_match_ports () =
  List.iter
    (fun lanes ->
      List.iter
        (fun c ->
          let by_row = Sim.create ~batch:lanes c
          and by_lane = Sim.create ~batch:lanes c in
          let rng = Random.State.make [| lanes; 0x20e5 |] in
          let ins =
            List.map (fun (nm, _) -> Sim.in_port by_row nm) c.Netlist.inputs
          and outs =
            List.map (fun (nm, _) -> Sim.out_port by_row nm) c.Netlist.outputs
          in
          let row = Array.make lanes 0 in
          let compare_outputs cycle =
            List.iter
              (fun p ->
                Sim.get_row by_row p row;
                Array.iteri
                  (fun l got ->
                    let want = Sim.get_port by_lane p ~lane:l in
                    if got <> want then
                      Alcotest.failf
                        "%s, %d lanes: lane %d cycle %d: row %d, port %d"
                        c.Netlist.circuit_name lanes l cycle got want)
                  row)
              outs
          in
          let current = List.map (fun _ -> Array.make lanes 0) ins in
          for cycle = 0 to 30 do
            if cycle = 15 then begin
              Sim.reset by_row;
              Sim.reset by_lane
            end;
            List.iter2
              (fun p cur ->
                for l = 0 to lanes - 1 do
                  if Random.State.int rng 3 > 0 then
                    cur.(l) <-
                      (Random.State.bits rng lor (Random.State.bits rng lsl 30))
                      * if Random.State.bool rng then 1 else -1
                done;
                Sim.set_row by_row p cur;
                Array.iteri (fun l v -> Sim.set_port by_lane p ~lane:l v) cur)
              ins current;
            compare_outputs cycle;
            Sim.step by_row;
            Sim.step by_lane;
            if cycle mod 4 = 0 then compare_outputs cycle
          done;
          check int
            (Printf.sprintf "%s, %d lanes: same rows evaluated"
               c.Netlist.circuit_name lanes)
            (Sim.evaluations by_lane) (Sim.evaluations by_row))
        (List.init 6 random_circuit))
    [ 1; 3; 64 ];
  let sim = Sim.create ~batch:3 (random_circuit 0) in
  let p = Sim.in_port sim (fst (List.hd (random_circuit 0).Netlist.inputs)) in
  match Sim.set_row sim p (Array.make 2 0) with
  | exception Invalid_argument msg ->
      check bool ("short row: " ^ msg) true
        (contains msg "row of 2 lanes (batch 3)")
  | () -> Alcotest.fail "a row of the wrong width must be refused"

(* The activity check is the same at one lane as at many: a batch-1
   instance and a batch-4 instance whose lanes all carry the same input
   schedule (each input held or redrawn per cycle) evaluate the same rows
   on every sweep.  A sweep after which no input and no register changed
   evaluates no row, at either lane count. *)
let test_single_lane_activity () =
  let lanes = 4 in
  List.iter
    (fun c ->
      let one = Sim.create c and many = Sim.create ~batch:lanes c in
      let rng = Random.State.make [| 0x51a1 |] in
      let ins =
        List.map (fun (nm, _) -> Sim.in_port one nm) c.Netlist.inputs
      in
      for cycle = 0 to 40 do
        List.iter
          (fun p ->
            if cycle = 0 || Random.State.int rng 3 = 0 then begin
              let v =
                Random.State.bits rng lor (Random.State.bits rng lsl 30)
              in
              Sim.set_port one p ~lane:0 v;
              Sim.set_row many p (Array.make lanes v)
            end)
          ins;
        Sim.step one;
        Sim.step many;
        check int
          (Printf.sprintf "%s cycle %d: 1 and %d lanes evaluate the same rows"
             c.Netlist.circuit_name cycle lanes)
          (Sim.evaluations many) (Sim.evaluations one)
      done)
    (List.init 6 random_circuit);
  (* [r] accumulates [x] while [en] is high; with [en] low and [x] held,
     two sweeps later nothing changes any more. *)
  let b = Builder.create "hold" in
  let x = Builder.input b "x" 8 and en = Builder.input b "en" 1 in
  let r = Builder.reg b ~enable:en ~width:8 "r" in
  Builder.connect b r (Builder.add b r x);
  Builder.output b "o" (Builder.xor_ b r (Builder.not_ b x));
  let c = Builder.finalize b in
  List.iter
    (fun batch ->
      let sim = Sim.create ~batch c in
      Sim.set sim "x" 3;
      Sim.set sim "en" 1;
      Sim.step_n sim 2;
      Sim.set sim "en" 0;
      Sim.step_n sim 2;
      let before = Sim.evaluations sim in
      Sim.step_n sim 3;
      check int (Printf.sprintf "batch %d: quiet sweeps evaluate no row" batch)
        before (Sim.evaluations sim);
      check int (Printf.sprintf "batch %d: r held" batch) 6
        (Sim.get sim "o" lxor 0xFC))
    [ 1; lanes ]

(* The interpreter's lanes are independent: one [Interp] with three
   lanes against three one-lane interpreters, each lane fed its own
   stream of wide values under a seeded schedule that holds every input,
   redraws one lane or redraws all lanes, with a reset halfway.  Every
   node and every memory word of every lane must agree on every cycle. *)
let test_interp_lanes_independent () =
  let lanes = 3 in
  List.iter
    (fun c ->
      let many = Interp.create ~lanes c in
      let ones = Array.init lanes (fun _ -> Interp.create c) in
      let rngs =
        Array.init lanes (fun l -> Random.State.make [| 0x1a4e; l |])
      in
      let schedule = Random.State.make [| 0x5c4e |] in
      let redraw l =
        List.iter
          (fun (nm, _) ->
            let r = rngs.(l) in
            let v =
              Random.State.bits r
              lor (Random.State.bits r lsl 30)
              lor (Random.State.bits r lsl 60)
            in
            Interp.set ~lane:l many nm v;
            Interp.set ones.(l) nm v)
          c.Netlist.inputs
      in
      let fail what l cycle want got =
        Alcotest.failf "%s: %s lane %d cycle %d: one-lane %d, lockstep %d"
          c.Netlist.circuit_name what l cycle want got
      in
      for cycle = 0 to 40 do
        (if cycle = 20 then begin
           Interp.reset many;
           Array.iter Interp.reset ones
         end
         else
           match Random.State.int schedule 3 with
           | 0 -> ()
           | 1 -> redraw (Random.State.int schedule lanes)
           | _ ->
               for l = 0 to lanes - 1 do
                 redraw l
               done);
        Array.iteri
          (fun l one ->
            for u = 0 to Netlist.num_nodes c - 1 do
              let want = Interp.peek one u
              and got = Interp.peek ~lane:l many u in
              if want <> got then fail (Printf.sprintf "n%d" u) l cycle want got
            done;
            Array.iteri
              (fun mi (m : Netlist.mem) ->
                for a = 0 to m.Netlist.mem_size - 1 do
                  let want = Interp.mem_word one mi a
                  and got = Interp.mem_word ~lane:l many mi a in
                  if want <> got then
                    fail (Printf.sprintf "%s[%d]" m.Netlist.mem_name a) l cycle
                      want got
                done)
              c.Netlist.mems)
          ones;
        Interp.step many;
        Array.iter Interp.step ones
      done)
    (List.init 8 random_circuit);
  let c = random_circuit 0 in
  let itp = Interp.create ~lanes c in
  let input = fst (List.hd c.Netlist.inputs)
  and output = fst (List.hd c.Netlist.outputs) in
  List.iter
    (fun (what, f) ->
      match f () with
      | exception Invalid_argument msg ->
          check bool (what ^ ": " ^ msg) true (contains msg "out of range")
      | _ -> Alcotest.failf "%s: expected Invalid_argument" what)
    [
      ("set lane 3", fun () -> Interp.set ~lane:3 itp input 1; 0);
      ("get lane -1", fun () -> Interp.get ~lane:(-1) itp output);
      ("peek lane 3", fun () -> Interp.peek ~lane:3 itp 0);
      ("mem_word lane 3", fun () -> Interp.mem_word ~lane:3 itp 0 0);
    ]

(* A fused concat of six input leaves is one leaf-table row; changing
   any single leaf, one at a time, must re-run it, at one lane and at
   two. *)
let test_leaf_table_every_leaf () =
  let b = Builder.create "leaves" in
  let xs = List.init 6 (fun i -> Builder.input b (Printf.sprintf "x%d" i) 4) in
  Builder.output b "o" (Builder.concat_list b xs);
  let c = Builder.finalize b in
  check int "one scheduled row" 1 (Sim.compiled_nodes (Sim.create c));
  List.iter
    (fun batch ->
      let sim = Sim.create ~batch c in
      let cur = Array.make 6 0 in
      for k = 1 to 24 do
        let i = k mod 6 in
        cur.(i) <- (cur.(i) + k) land 15;
        Sim.set ~lane:(batch - 1) sim (Printf.sprintf "x%d" i) cur.(i);
        let want = Array.fold_left (fun acc v -> (acc lsl 4) lor v) 0 cur in
        check int
          (Printf.sprintf "batch %d, leaf %d changed" batch i)
          want
          (Sim.get ~lane:(batch - 1) sim "o");
        Sim.step sim
      done)
    [ 1; 2 ]

(* Producers mark only on a change: driving an input with the value it
   already holds marks nothing, so the sweeps that steps force run no
   row; a changed value re-runs its one reader. *)
let test_unchanged_input_runs_nothing () =
  let b = Builder.create "idle" in
  let x = Builder.input b "x" 8 and y = Builder.input b "y" 8 in
  Builder.output b "o" (Builder.add b x y);
  let c = Builder.finalize b in
  List.iter
    (fun batch ->
      let sim = Sim.create ~batch c in
      let y = Sim.in_port sim "y" in
      Sim.set ~lane:(batch - 1) sim "x" 5;
      Sim.set_row sim y (Array.make batch 7);
      check int "settled" 12 (Sim.get ~lane:(batch - 1) sim "o");
      let settled = Sim.evaluations sim in
      for _ = 1 to 4 do
        Sim.set ~lane:(batch - 1) sim "x" 5;
        Sim.set_row sim y (Array.make batch 7);
        Sim.step sim;
        ignore (Sim.get sim "o")
      done;
      check int
        (Printf.sprintf "batch %d: unchanged inputs run no row" batch)
        settled (Sim.evaluations sim);
      Sim.set ~lane:(batch - 1) sim "x" 6;
      check int "a changed input re-runs its reader" 13
        (Sim.get ~lane:(batch - 1) sim "o");
      check int "one row ran" (settled + 1) (Sim.evaluations sim))
    [ 1; 2 ]

(* An applied memory write marks the memory's readers whether or not the
   word changed, and only an applied write does. *)
let test_rewritten_word_reruns_readers () =
  let b = Builder.create "rewrite" in
  let m = Builder.mem b "ram" ~size:16 ~width:8 in
  let we = Builder.input b "we" 1 in
  let addr = Builder.input b "addr" 4 in
  Builder.mem_write b m ~enable:we ~addr ~data:(Builder.const b ~width:8 77);
  Builder.output b "q" (Builder.mem_read b m addr);
  let c = Builder.finalize b in
  List.iter
    (fun batch ->
      let sim = Sim.create ~batch c in
      Sim.set sim "we" 1;
      Sim.set sim "addr" 3;
      Sim.step sim;
      check int "written" 77 (Sim.get sim "q");
      let runs () =
        let e = Sim.evaluations sim in
        Sim.step sim;
        ignore (Sim.get sim "q");
        Sim.evaluations sim - e
      in
      for k = 1 to 3 do
        check int
          (Printf.sprintf "batch %d, rewrite %d re-runs the read" batch k)
          1 (runs ())
      done;
      Sim.set sim "we" 0;
      check int "a step without a write runs nothing" 0 (runs ());
      check int "word kept" 77 (Sim.get sim "q"))
    [ 1; 2 ]

let engine_crosscheck_prop =
  crosscheck_prop ~name:"interpreter == levelized" ~count:15 ~cycles:1000 1

let batch_crosscheck_prop lanes =
  crosscheck_prop
    ~name:(Printf.sprintf "batched engine, %d lanes == %d interpreters" lanes lanes)
    ~count:8 ~cycles:400 lanes

let () =
  Alcotest.run "hw-extra"
    [
      ( "builder-sugar",
        Alcotest.test_case "signed gt/ge" `Quick test_cmp_sugar
        :: Alcotest.test_case "concat_list" `Quick test_concat_list
        :: Alcotest.test_case "mux_list narrow select" `Quick test_mux_list_narrow_select
        :: List.map QCheck_alcotest.to_alcotest const_shift_props );
      ( "equiv",
        [
          Alcotest.test_case "accepts equals" `Quick test_equiv_accepts;
          Alcotest.test_case "detects difference" `Quick test_equiv_detects;
          Alcotest.test_case "port discipline" `Quick test_equiv_port_check;
          Alcotest.test_case "wide ports get real stimulus" `Quick
            test_equiv_wide_port_blindness;
          Alcotest.test_case "cycle-exact by default" `Quick test_equiv_settle;
        ] );
      ("waves", [ Alcotest.test_case "vcd output" `Quick test_vcd ]);
      ( "sim-engines",
        Alcotest.test_case "width boundary 60..62" `Quick test_width_boundary
        :: Alcotest.test_case "write ports apply in declared order" `Quick
             test_write_port_order
        :: Alcotest.test_case "port error messages" `Quick test_port_errors
        :: Alcotest.test_case "shl result wider than operand" `Quick
             test_shl_wider_result
        :: QCheck_alcotest.to_alcotest engine_crosscheck_prop
        :: [
             QCheck_alcotest.to_alcotest (batch_crosscheck_prop 3);
             QCheck_alcotest.to_alcotest (batch_crosscheck_prop 8);
             Alcotest.test_case "port handles" `Quick test_port_handles;
             Alcotest.test_case "peek every node mid-run" `Quick
               test_peek_every_node;
             Alcotest.test_case "rows agree with per-lane ports" `Quick
               test_rows_match_ports;
             Alcotest.test_case "one lane skips rows like many" `Quick
               test_single_lane_activity;
             Alcotest.test_case "interpreter lanes are independent" `Quick
               test_interp_lanes_independent;
             Alcotest.test_case "leaf-table concat sees every leaf" `Quick
               test_leaf_table_every_leaf;
             Alcotest.test_case "an unchanged input runs no row" `Quick
               test_unchanged_input_runs_nothing;
             Alcotest.test_case "a rewritten word re-runs its readers" `Quick
               test_rewritten_word_reruns_readers;
           ] );
      ( "device",
        [
          Alcotest.test_case "capacity check" `Quick test_capacity_check;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "io bits" `Quick test_io_bits;
          Alcotest.test_case "netlist stats" `Quick test_netlist_stats;
          Alcotest.test_case "LUTRAM cost" `Quick test_mem_read_costed_as_lutram;
        ] );
    ]
