(* Tests for the hardware substrate: bit vectors, netlist, builder,
   simulator, technology mapping, timing, pipelining, instantiation and
   Verilog emission. *)

open Hw

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ---------------- Bits ---------------- *)

let test_bits_create () =
  check int "mask" 0xF (Bits.to_int (Bits.create ~width:4 0xFF));
  check int "negative wraps" 0xF (Bits.to_int (Bits.create ~width:4 (-1)));
  check int "signed view" (-1) (Bits.to_signed_int (Bits.create ~width:4 0xF));
  check int "signed positive" 7 (Bits.to_signed_int (Bits.create ~width:4 7));
  Alcotest.check_raises "width 0" (Invalid_argument "Bits.create: width 0 out of [1..62]")
    (fun () -> ignore (Bits.create ~width:0 1))

let test_bits_arith () =
  let b8 v = Bits.create ~width:8 v in
  check int "add wraps" 4 (Bits.to_int (Bits.add (b8 250) (b8 10)));
  check int "sub wraps" 246 (Bits.to_int (Bits.sub (b8 0) (b8 10)));
  check int "mul" 100 (Bits.to_int (Bits.mul (b8 10) (b8 10)));
  check int "neg" 246 (Bits.to_int (Bits.neg (b8 10)));
  check int "mul wide"
    (0x7FFF * 3 land ((1 lsl 40) - 1))
    (Bits.to_int (Bits.mul (Bits.create ~width:40 0x7FFF) (Bits.create ~width:40 3)))

let test_bits_shifts () =
  let b8 v = Bits.create ~width:8 v in
  check int "shl" 0xF0 (Bits.to_int (Bits.shift_left (b8 0x0F) (b8 4)));
  check int "shl overflow" 0 (Bits.to_int (Bits.shift_left (b8 1) (b8 9)));
  check int "shr" 0x0F (Bits.to_int (Bits.shift_right_logical (b8 0xF0) (b8 4)));
  check int "sra keeps sign" (-1)
    (Bits.to_signed_int (Bits.shift_right_arith (b8 0x80) (b8 7)));
  check int "sra past width" (-1)
    (Bits.to_signed_int (Bits.shift_right_arith (b8 0x80) (b8 100)))

let test_bits_cmp () =
  let b4 v = Bits.create ~width:4 v in
  check int "unsigned lt" 1 (Bits.to_int (Bits.lt ~signed:false (b4 2) (b4 14)));
  check int "signed lt" 0 (Bits.to_int (Bits.lt ~signed:true (b4 2) (b4 14)));
  check int "eq" 1 (Bits.to_int (Bits.eq (b4 5) (b4 5)));
  check int "le equal" 1 (Bits.to_int (Bits.le ~signed:true (b4 9) (b4 9)))

let test_bits_structure () =
  let v = Bits.create ~width:8 0b10110100 in
  check int "slice" 0b101 (Bits.to_int (Bits.slice v ~hi:4 ~lo:2));
  check bool "msb" true (Bits.msb v);
  check int "concat"
    0b1011010011
    (Bits.to_int (Bits.concat v (Bits.create ~width:2 0b11)));
  check int "uext" 0b10110100 (Bits.to_int (Bits.uext v 12));
  check int "sext" (-76) (Bits.to_signed_int (Bits.sext v 12));
  check int "range width" 9 (Bits.width_for_signed_range (-256) 255);
  check int "range width small" 1 (Bits.width_for_signed_range (-1) 0)

let bits_props =
  let gen = QCheck.(pair (int_range 1 30) int) in
  [
    QCheck.Test.make ~name:"add is modular" ~count:500 gen (fun (w, v) ->
        let a = Bits.create ~width:w v and b = Bits.create ~width:w (v * 7) in
        Bits.to_int (Bits.add a b) = (Bits.to_int a + Bits.to_int b) land ((1 lsl w) - 1));
    QCheck.Test.make ~name:"neg + add = sub" ~count:500 gen (fun (w, v) ->
        let a = Bits.create ~width:w (v + 3) and b = Bits.create ~width:w v in
        Bits.equal (Bits.sub a b) (Bits.add a (Bits.neg b)));
    QCheck.Test.make ~name:"sext preserves signed value" ~count:500 gen
      (fun (w, v) ->
        let a = Bits.create ~width:w v in
        Bits.to_signed_int (Bits.sext a (w + 10)) = Bits.to_signed_int a);
    QCheck.Test.make ~name:"slice o concat = id" ~count:500 gen (fun (w, v) ->
        let a = Bits.create ~width:w v and b = Bits.create ~width:w (v lxor 5) in
        let c = Bits.concat a b in
        Bits.equal (Bits.slice c ~hi:((2 * w) - 1) ~lo:w) a
        && Bits.equal (Bits.slice c ~hi:(w - 1) ~lo:0) b);
  ]

(* ---------------- Builder & Netlist ---------------- *)

let test_builder_fold () =
  let b = Builder.create "fold" in
  let x = Builder.add b (Builder.const b ~width:8 3) (Builder.const b ~width:8 4) in
  Builder.output b "o" x;
  let c = Builder.finalize b in
  (* constant folding leaves a single const node plus input-free graph *)
  let sim = Sim.create c in
  check int "const folded value" 7 (Sim.get sim "o");
  check bool "no binop survives"
    true
    (Array.for_all
       (fun (n : Netlist.node) ->
         match n.kind with Netlist.Binop _ -> false | _ -> true)
       c.Netlist.nodes)

let test_builder_hashcons () =
  let b = Builder.create "cse" in
  let x = Builder.input b "x" 8 in
  let a1 = Builder.add b x x in
  let a2 = Builder.add b x x in
  check int "same node" (Builder.uid a1) (Builder.uid a2);
  let e1 = Builder.sext b x 16 and e2 = Builder.sext b x 12 in
  check bool "different widths differ" true (Builder.uid e1 <> Builder.uid e2)

let test_builder_mux_list () =
  let b = Builder.create "muxl" in
  let sel = Builder.input b "sel" 3 in
  let cases = List.init 8 (fun i -> Builder.const b ~width:8 (10 + i)) in
  Builder.output b "o" (Builder.mux_list b sel cases);
  let sim = Sim.create (Builder.finalize b) in
  for i = 0 to 7 do
    Sim.set sim "sel" i;
    check int (Printf.sprintf "case %d" i) (10 + i) (Sim.get sim "o")
  done

let test_builder_unconnected () =
  let b = Builder.create "bad" in
  let _q = Builder.reg b ~width:4 "q" in
  (match Builder.finalize b with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure for unconnected register")

let test_builder_unconnected_names_latest () =
  let b = Builder.create "bad2" in
  let q1 = Builder.reg b ~width:4 "q1" in
  let _q2 = Builder.reg b ~width:4 "q2" in
  let _q3 = Builder.reg b ~width:4 "q3" in
  let q4 = Builder.reg b ~width:4 "q4" in
  Builder.connect b q1 q1;
  Builder.connect b q4 q1;
  (match Builder.connect b q1 q4 with
  | exception Failure msg ->
      check Alcotest.string "second connect" "Builder.connect: register already connected" msg
  | () -> Alcotest.fail "expected failure connecting a register twice");
  match Builder.finalize b with
  | exception Failure msg ->
      check Alcotest.string "names the later unconnected register"
        "Builder.finalize(bad2): register q3 never connected" msg
  | _ -> Alcotest.fail "expected failure for unconnected registers"

let test_comb_cycle_detect () =
  (* A combinational cycle through two wires must be rejected. *)
  let b = Builder.create "loop" in
  let q = Builder.reg b ~width:4 "q" in
  Builder.connect b q q;
  Builder.output b "o" q;
  ignore (Builder.finalize b);
  (* self-loop through a register is fine; a pure comb cycle is not
     constructible through the builder API (nodes reference only existing
     nodes), which is itself the guarantee this test documents. *)
  ()

let test_sim_counter () =
  let b = Builder.create "cnt" in
  let en = Builder.input b "en" 1 in
  let q = Builder.reg b ~enable:en ~width:4 "q" in
  Builder.connect b q (Builder.add b q (Builder.one b 4));
  Builder.output b "q" q;
  let sim = Sim.create (Builder.finalize b) in
  Sim.set sim "en" 1;
  Sim.step_n sim 5;
  check int "counts" 5 (Sim.get sim "q");
  Sim.set sim "en" 0;
  Sim.step_n sim 3;
  check int "enable holds" 5 (Sim.get sim "q");
  Sim.reset sim;
  check int "reset" 0 (Sim.get sim "q")

let test_sim_mem () =
  let b = Builder.create "memtest" in
  let m = Builder.mem b "ram" ~size:16 ~width:8 in
  let we = Builder.input b "we" 1 in
  let addr = Builder.input b "addr" 4 in
  let data = Builder.input b "data" 8 in
  Builder.mem_write b m ~enable:we ~addr ~data;
  Builder.output b "q" (Builder.mem_read b m addr);
  let sim = Sim.create (Builder.finalize b) in
  Sim.set sim "we" 1;
  Sim.set sim "addr" 3;
  Sim.set sim "data" 77;
  check int "read-before-write" 0 (Sim.get sim "q");
  Sim.step sim;
  Sim.set sim "we" 0;
  check int "written" 77 (Sim.get sim "q");
  Sim.set sim "addr" 4;
  check int "other address" 0 (Sim.get sim "q");
  Sim.reset sim;
  Sim.set sim "addr" 3;
  check int "reset clears memory" 0 (Sim.get sim "q")

(* ---------------- Techmap & Timing ---------------- *)

let test_csd () =
  check int "csd 0" 0 (Techmap.csd_adders 0);
  check int "csd 1" 0 (Techmap.csd_adders 1);
  check int "csd 2" 0 (Techmap.csd_adders 2);
  check int "csd 3" 1 (Techmap.csd_adders 3);
  check int "csd 7 uses NAF" 1 (Techmap.csd_adders 7);
  check int "csd 2841" (Techmap.csd_adders 2841) (Techmap.csd_adders (-2841));
  check bool "csd 181 small" true (Techmap.csd_adders 181 <= 4)

let test_const_mult_cost () =
  let b = Builder.create "cm" in
  let x = Builder.input b "x" 16 in
  let k = Builder.const b ~width:16 2841 in
  Builder.output b "o" (Builder.mul b k x);
  let c = Builder.finalize b in
  let with_dsp = Techmap.circuit_cost Device.xcvu9p ~use_dsp:true c in
  let without = Techmap.circuit_cost Device.xcvu9p ~use_dsp:false c in
  check int "const mult maps to one DSP" 1 with_dsp.Techmap.dsps;
  check int "no DSP when disabled" 0 without.Techmap.dsps;
  check bool "shift-add LUTs" true (without.Techmap.luts > 0);
  check bool "cheaper than generic" true (without.Techmap.luts < 16 * 16)

let test_pow2_mult_free () =
  let b = Builder.create "p2" in
  let x = Builder.input b "x" 16 in
  Builder.output b "o" (Builder.mul b (Builder.const b ~width:16 8) x);
  let c = Builder.finalize b in
  let cost = Techmap.circuit_cost Device.xcvu9p ~use_dsp:false c in
  check int "power-of-two mult is wiring" 0 cost.Techmap.luts

let test_timing_monotonic () =
  (* A chain of two adders is slower than one. *)
  let mk n =
    let b = Builder.create "chain" in
    let x = ref (Builder.input b "x" 32) in
    for _ = 1 to n do
      x := Builder.add b !x (Builder.const b ~width:32 1)
    done;
    Builder.output b "o" !x;
    Builder.finalize b
  in
  let t1 = Timing.analyze Device.xcvu9p (mk 1) in
  let t4 = Timing.analyze Device.xcvu9p (mk 4) in
  check bool "longer chain is slower" true
    (t4.Timing.period_ns > t1.Timing.period_ns);
  check bool "critical path nonempty" true (List.length t4.Timing.critical_path > 0)

let test_synth_report () =
  let b = Builder.create "rep" in
  let x = Builder.input b "x" 8 in
  let q = Builder.reg_next b x in
  Builder.output b "o" q;
  let r = Synth.run (Builder.finalize b) in
  check int "ffs" 8 r.Synth.ffs;
  check int "ios" (8 + 8 + 2) r.Synth.ios;
  check bool "fits device" true (Result.is_ok (Synth.check_fits Device.xcvu9p r))

(* ---------------- Pipeline ---------------- *)

let random_comb_circuit seed =
  (* A random feed-forward circuit over two inputs. *)
  let rng = Random.State.make [| seed |] in
  let b = Builder.create "rand" in
  let nodes = ref [ Builder.input b "a" 16; Builder.input b "b" 16 ] in
  for _ = 1 to 25 do
    let pick () = List.nth !nodes (Random.State.int rng (List.length !nodes)) in
    let x = pick () and y = pick () in
    let n =
      match Random.State.int rng 6 with
      | 0 -> Builder.add b x y
      | 1 -> Builder.sub b x y
      | 2 -> Builder.and_ b x y
      | 3 -> Builder.xor_ b x y
      | 4 -> Builder.mux b (Builder.bit b x 0) x y
      | _ -> Builder.mul b (Builder.const b ~width:16 (1 + Random.State.int rng 200)) x
    in
    nodes := n :: !nodes
  done;
  Builder.output b "o" (List.hd !nodes);
  Builder.finalize b

let pipeline_props =
  [
    QCheck.Test.make ~name:"retime preserves function" ~count:30
      QCheck.(pair (int_range 0 1000) (int_range 1 6))
      (fun (seed, stages) ->
        let c = random_comb_circuit seed in
        let p = Hw.Pipeline.retime ~stages c in
        let sc = Sim.create c and sp = Sim.create p in
        let ok = ref true in
        for i = 0 to 5 do
          let a = (seed * 131) + i and b = (seed * 17) + (3 * i) in
          Sim.set sc "a" a;
          Sim.set sc "b" b;
          Sim.set sp "a" a;
          Sim.set sp "b" b;
          (* flush the pipeline with constant inputs *)
          Sim.step_n sp (stages + 1);
          if Sim.get sc "o" <> Sim.get sp "o" then ok := false
        done;
        !ok);
  ]

let test_pipeline_latency () =
  let c = random_comb_circuit 42 in
  let stages = 4 in
  let p = Hw.Pipeline.retime ~stages c in
  let regs =
    Array.fold_left
      (fun acc n -> if Netlist.is_reg n then acc + 1 else acc)
      0 p.Netlist.nodes
  in
  check bool "has registers" true (regs > 0);
  (* after [stages] cycles with steady inputs the output equals comb *)
  let sc = Sim.create c and sp = Sim.create p in
  Sim.set sc "a" 123;
  Sim.set sc "b" 456;
  Sim.set sp "a" 123;
  Sim.set sp "b" 456;
  Sim.step_n sp stages;
  check int "latency = stages" (Sim.get sc "o") (Sim.get sp "o")

let test_pipeline_rejects_regs () =
  let b = Builder.create "seq" in
  let q = Builder.reg_next b (Builder.input b "x" 4) in
  Builder.output b "o" q;
  let c = Builder.finalize b in
  (match Hw.Pipeline.retime ~stages:2 c with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

(* ---------------- Instantiate ---------------- *)

let test_stamp_comb () =
  let inner =
    let b = Builder.create "inner" in
    let x = Builder.input b "x" 8 in
    Builder.output b "y" (Builder.add b x (Builder.const b ~width:8 5));
    Builder.finalize b
  in
  let b = Builder.create "outer" in
  let x = Builder.input b "x" 8 in
  let o1 = Instantiate.stamp b inner ~inputs:[ ("x", x) ] in
  let o2 = Instantiate.stamp b inner ~inputs:[ ("x", List.assoc "y" o1) ] in
  Builder.output b "y" (List.assoc "y" o2);
  let sim = Sim.create (Builder.finalize b) in
  Sim.set sim "x" 1;
  check int "two instances compose" 11 (Sim.get sim "y")

let test_stamp_seq () =
  (* A counter gated by its own enable port: each stamped instance keeps
     the gate and its own state. *)
  let inner =
    let b = Builder.create "cnt" in
    let en = Builder.input b "en" 1 in
    let q = Builder.reg b ~enable:en ~width:8 "q" in
    Builder.connect b q (Builder.add b q (Builder.one b 8));
    Builder.output b "q" q;
    Builder.finalize b
  in
  let b = Builder.create "outer" in
  let en = Builder.input b "en" 1 in
  let gated = Instantiate.stamp b inner ~inputs:[ ("en", en) ] in
  let free = Instantiate.stamp b inner ~inputs:[ ("en", Builder.one b 1) ] in
  Builder.output b "gated" (List.assoc "q" gated);
  Builder.output b "free" (List.assoc "q" free);
  let sim = Sim.create (Builder.finalize b) in
  Sim.set sim "en" 1;
  Sim.step_n sim 4;
  Sim.set sim "en" 0;
  Sim.step_n sim 4;
  check int "gated instance counter" 4 (Sim.get sim "gated");
  check int "independent instance counter" 8 (Sim.get sim "free")

(* ---------------- Verilog emission round-trip ---------------- *)

let test_verilog_roundtrip () =
  (* Emit a sequential circuit as Verilog, re-parse it with the Vlog front
     end, and check cycle-accurate equivalence. *)
  let b = Builder.create "roundtrip" in
  let x = Builder.input b "x" 12 in
  let acc = Builder.reg b ~width:16 "acc" in
  Builder.connect b acc (Builder.add b acc (Builder.sext b x 16));
  let scaled = Builder.mul b (Builder.const b ~width:16 181) acc in
  Builder.output b "y" (Builder.sra_const b scaled 2);
  let c = Builder.finalize b in
  let src = Verilog.emit c in
  let c2 = Vlog.Elaborate.circuit_of_string src in
  let s1 = Sim.create c and s2 = Sim.create c2 in
  for i = 0 to 20 do
    let v = (i * 37) land 0xFFF in
    Sim.set s1 "x" v;
    Sim.set s2 "x" v;
    check int (Printf.sprintf "cycle %d" i) (Sim.get s1 "y") (Sim.get s2 "y");
    Sim.step s1;
    Sim.step s2
  done

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_verilog_emit_mem () =
  let b = Builder.create "memv" in
  let m = Builder.mem b "ram" ~size:8 ~width:4 in
  let a = Builder.input b "a" 3 in
  Builder.mem_write b m ~enable:(Builder.input b "we" 1) ~addr:a
    ~data:(Builder.input b "d" 4);
  Builder.output b "q" (Builder.mem_read b m a);
  let src = Verilog.emit (Builder.finalize b) in
  check bool "declares memory" true (contains src "ram [0:7];")

(* [comb_order] is computed once per netlist and shared: the engines that
   compact it into their schedules must leave the shared order alone. *)
let test_comb_order_shared () =
  let b = Builder.create "order" in
  let x = Builder.input b "x" 8 in
  let r = Builder.reg b ~width:8 "r" in
  Builder.connect b r (Builder.add b x r);
  ignore (Builder.not_ b x);
  Builder.output b "o" (Builder.concat b (Builder.slice b r ~hi:3 ~lo:0) x);
  let c = Builder.finalize b in
  let before = Array.copy (Netlist.comb_order c) in
  ignore (Sim.create c);
  ignore (Interp.create ~lanes:2 c);
  check (Alcotest.array int) "order unchanged by Sim/Interp" before
    (Netlist.comb_order c);
  check bool "each call owns its copy" true
    (Netlist.comb_order c != Netlist.comb_order c)

(* [Builder] hash-conses on integer cells; the reference below keys an
   association list on the [(kind, width)] pair with polymorphic
   equality, which is the structural key the netlist means.  Random op
   sequences avoid constant folding (no operator sees only constants), so
   both builders must make the same nodes in the same order. *)
module Ref_builder = struct
  type t = {
    mutable nodes : (Netlist.kind * int) list;      (* newest first *)
    mutable count : int;
    mutable table : ((Netlist.kind * int) * int) list;
    mutable names : (int * string) list;
    mutable ins : (string * int) list;
    mutable outs : (string * int) list;
  }

  let create () =
    { nodes = []; count = 0; table = []; names = []; ins = []; outs = [] }

  let add t kind w =
    t.nodes <- (kind, w) :: t.nodes;
    t.count <- t.count + 1;
    t.count - 1

  let pure t kind w =
    match List.assoc_opt (kind, w) t.table with
    | Some u -> u
    | None ->
        let u = add t kind w in
        t.table <- ((kind, w), u) :: t.table;
        u

  let name t u n = t.names <- (u, n) :: t.names

  let finalize t cname mems : Netlist.t =
    let nodes =
      Array.of_list (List.rev t.nodes)
      |> Array.mapi (fun uid (kind, width) ->
             { Netlist.uid; width; kind; name = List.assoc_opt uid t.names })
    in
    { circuit_name = cname; nodes; mems; inputs = List.rev t.ins;
      outputs = List.rev t.outs }
end

let builder_random_ops seed =
  let rng = Random.State.make [| seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let b = Builder.create "key" and r = Ref_builder.create () in
  (* The pool: each signal with its reference uid and whether it is a
     constant. *)
  let pool = ref [] and regs = ref [] in
  let push s u const =
    check int "same uid" u (Builder.uid s);
    pool := (s, const) :: !pool
  in
  let input w =
    let nm = Printf.sprintf "i%d" (List.length r.Ref_builder.ins) in
    let s = Builder.input b nm w in
    let u = Ref_builder.add r (Netlist.Input nm) w in
    Ref_builder.name r u nm;
    r.Ref_builder.ins <- (nm, u) :: r.Ref_builder.ins;
    push s u false
  in
  let const w =
    let v = Random.State.int rng 4 in
    let s = Builder.const b ~width:w v in
    push s (Ref_builder.pure r (Netlist.Const (Bits.create ~width:w v)) w) true
  in
  let m = Builder.mem b "m" ~size:4 ~width:3 in
  let mem =
    { Netlist.mem_id = 0; mem_name = "m"; mem_size = 4; mem_width = 3;
      mem_writes = [] }
  in
  List.iter input [ 1; 2; 2; 3 ];
  List.iter const [ 1; 2; 3 ];
  let variable w =
    List.filter (fun (s, c) -> (not c) && Builder.width s = w) !pool
  in
  let any w = List.filter (fun (s, _) -> Builder.width s = w) !pool in
  for _ = 1 to 80 do
    let w = 1 + Random.State.int rng 3 in
    let u s = Builder.uid s in
    (match (Random.State.int rng 10, variable w) with
    | 0, _ -> input w
    | 1, _ -> const w
    | 2, _ ->
        let init = Random.State.int rng 64 in
        let q = Builder.reg b ~init ~width:w "q" in
        let rq =
          Ref_builder.add r
            (Netlist.Reg { d = -1; enable = None; init = Bits.create ~width:w init })
            w
        in
        Ref_builder.name r rq "q";
        regs := (q, rq) :: !regs;
        push q rq false
    | _, [] -> input w
    | 3, vs ->
        let x, _ = pick vs in
        let o = pick [ Netlist.Not; Netlist.Neg ] in
        let s = (if o = Netlist.Not then Builder.not_ else Builder.neg) b x in
        push s (Ref_builder.pure r (Netlist.Unop (o, u x)) w) false
    | 4, vs ->
        let x, _ = pick vs and y, _ = pick (any w) in
        let o =
          pick
            Netlist.
              [ Add; Sub; Mul; And; Or; Xor; Shl; Shr; Sra; Eq; Ne; Lt Signed;
                Lt Unsigned; Le Signed; Le Unsigned ]
        in
        let x, y = if Random.State.bool rng then (x, y) else (y, x) in
        let wr =
          match o with Netlist.Eq | Ne | Lt _ | Le _ -> 1 | _ -> w
        in
        push (Builder.binop b o x y)
          (Ref_builder.pure r (Netlist.Binop (o, u x, u y)) wr)
          false
    | 5, _ when variable 1 <> [] ->
        let sel, _ = pick (variable 1) and x, _ = pick (any w) and y, _ = pick (any w) in
        push (Builder.mux b sel x y)
          (Ref_builder.pure r (Netlist.Mux (u sel, u x, u y)) w)
          false
    | 6, vs when w > 1 ->
        let x, _ = pick vs in
        let lo = Random.State.int rng w in
        let hi = lo + Random.State.int rng (w - lo) in
        if hi - lo + 1 < w then
          push (Builder.slice b x ~hi ~lo)
            (Ref_builder.pure r (Netlist.Slice (u x, hi, lo)) (hi - lo + 1))
            false
    | 7, _ ->
        let x, _ = pick !pool and y, _ = pick !pool in
        let wr = Builder.width x + Builder.width y in
        if wr <= 3 then
          push (Builder.concat b x y)
            (Ref_builder.pure r (Netlist.Concat (u x, u y)) wr)
            false
    | 8, vs ->
        let x, _ = pick vs in
        let wr = w + 1 + Random.State.int rng 2 in
        let sx = Random.State.bool rng in
        push
          ((if sx then Builder.sext else Builder.uext) b x wr)
          (Ref_builder.pure r
             (if sx then Netlist.Sext (u x) else Netlist.Uext (u x))
             wr)
          false
    | _, _ -> (
        match variable 2 with
        | [] -> ()
        | vs ->
            let a, _ = pick vs in
            push (Builder.mem_read b m a)
              (Ref_builder.pure r (Netlist.Mem_read (0, u a)) 3)
              false));
    if Random.State.int rng 4 = 0 then begin
      let s, _ = pick !pool in
      let n = Printf.sprintf "n%d" (Random.State.int rng 100) in
      ignore (Builder.name b s n);
      Ref_builder.name r (Builder.uid s) n
    end
  done;
  let nodes = Array.of_list (List.rev r.Ref_builder.nodes) in
  List.iter
    (fun (q, rq) ->
      Builder.connect b q q;
      match nodes.(rq) with
      | Netlist.Reg reg, w -> nodes.(rq) <- (Netlist.Reg { reg with d = rq }, w)
      | _ -> assert false)
    !regs;
  r.Ref_builder.nodes <- List.rev (Array.to_list nodes);
  List.iteri
    (fun i (s, _) ->
      let nm = Printf.sprintf "o%d" i in
      Builder.output b nm s;
      r.Ref_builder.outs <- (nm, Builder.uid s) :: r.Ref_builder.outs)
    !pool;
  check bool
    (Printf.sprintf "seed %d: same netlist" seed)
    true
    (Builder.finalize b = Ref_builder.finalize r "key" [| mem |])

let test_builder_structural_key () =
  for seed = 1 to 200 do
    builder_random_ops seed
  done;
  let b = Builder.create "edges" in
  let x = Builder.input b "x" 4 and x' = Builder.input b "x" 4 in
  check bool "inputs never shared" true (Builder.uid x <> Builder.uid x');
  let q = Builder.reg b ~width:4 "q" and q' = Builder.reg b ~width:4 "q" in
  check bool "registers never shared" true (Builder.uid q <> Builder.uid q');
  let c4 = Builder.const b ~width:4 5 and c8 = Builder.const b ~width:8 5 in
  check bool "a const of another width is a new node" true
    (Builder.uid c4 <> Builder.uid c8);
  check int "a const of equal value and width is shared" (Builder.uid c4)
    (Builder.uid (Builder.const b ~width:4 (5 + 16)));
  let lts = Builder.lt b ~signed:true x x' and ltu = Builder.lt b ~signed:false x x' in
  check bool "Lt Signed <> Lt Unsigned" true (Builder.uid lts <> Builder.uid ltu);
  ignore (Builder.name b lts "first");
  ignore (Builder.name b lts "second");
  let r = Builder.reg b ~init:0x1f ~width:4 "r" in
  Builder.connect b q x;
  Builder.connect b q' x';
  Builder.connect b r x;
  Builder.output b "o" c8;
  let c = Builder.finalize b in
  check (Alcotest.option Alcotest.string) "the later name wins" (Some "second")
    (Netlist.node c (Builder.uid lts)).name;
  match (Netlist.node c (Builder.uid r)).kind with
  | Netlist.Reg { init; _ } ->
      check int "register init masked to its width" 0xf (Bits.to_int init)
  | _ -> Alcotest.fail "not a register"

let () =
  let qsuite name props = (name, List.map QCheck_alcotest.to_alcotest props) in
  Alcotest.run "hw"
    [
      ( "bits",
        [
          Alcotest.test_case "create/mask" `Quick test_bits_create;
          Alcotest.test_case "arithmetic" `Quick test_bits_arith;
          Alcotest.test_case "shifts" `Quick test_bits_shifts;
          Alcotest.test_case "comparisons" `Quick test_bits_cmp;
          Alcotest.test_case "structure" `Quick test_bits_structure;
        ] );
      qsuite "bits-properties" bits_props;
      ( "builder",
        [
          Alcotest.test_case "constant folding" `Quick test_builder_fold;
          Alcotest.test_case "hash-consing" `Quick test_builder_hashcons;
          Alcotest.test_case "mux_list" `Quick test_builder_mux_list;
          Alcotest.test_case "unconnected register" `Quick test_builder_unconnected;
          Alcotest.test_case "unconnected names the latest" `Quick
            test_builder_unconnected_names_latest;
          Alcotest.test_case "register self-loop ok" `Quick test_comb_cycle_detect;
        ] );
      ( "sim",
        [
          Alcotest.test_case "counter with enable" `Quick test_sim_counter;
          Alcotest.test_case "memory read/write" `Quick test_sim_mem;
        ] );
      ( "techmap",
        [
          Alcotest.test_case "csd recoding" `Quick test_csd;
          Alcotest.test_case "const mult cost" `Quick test_const_mult_cost;
          Alcotest.test_case "pow2 mult free" `Quick test_pow2_mult_free;
        ] );
      ( "timing",
        [
          Alcotest.test_case "monotonic" `Quick test_timing_monotonic;
          Alcotest.test_case "synth report" `Quick test_synth_report;
        ] );
      ( "pipeline",
        Alcotest.test_case "latency" `Quick test_pipeline_latency
        :: Alcotest.test_case "rejects sequential" `Quick test_pipeline_rejects_regs
        :: List.map QCheck_alcotest.to_alcotest pipeline_props );
      ( "instantiate",
        [
          Alcotest.test_case "combinational stamp" `Quick test_stamp_comb;
          Alcotest.test_case "sequential stamp with enable" `Quick test_stamp_seq;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "emit/parse round trip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "memory emission" `Quick test_verilog_emit_mem;
        ] );
      ( "netlist-memo",
        [
          Alcotest.test_case "comb_order survives the engines" `Quick
            test_comb_order_shared;
        ] );
      ( "builder-key",
        [
          Alcotest.test_case "builder hash-conses like the structural key"
            `Quick test_builder_structural_key;
        ] );
    ]
