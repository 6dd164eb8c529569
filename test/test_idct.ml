(* Tests for the IDCT benchmark library: blocks, reference transforms,
   the fixed-point Chen-Wang model and the IEEE 1180-1990 harness. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_block_ops () =
  let b = Axis.Block.create () in
  Axis.Block.set b ~row:2 ~col:3 42;
  check int "get/set" 42 (Axis.Block.get b ~row:2 ~col:3);
  check int "row extraction" 42 (Axis.Block.row b 2).(3);
  check int "col extraction" 42 (Axis.Block.col b 3).(2);
  let t = Axis.Block.transpose b in
  check int "transpose" 42 (Axis.Block.get t ~row:3 ~col:2);
  check bool "transpose involutive" true
    (Axis.Block.equal b (Axis.Block.transpose t))

let test_clamps () =
  check int "input clamp hi" 2047 (Axis.Block.clamp_input 5000);
  check int "input clamp lo" (-2048) (Axis.Block.clamp_input (-5000));
  check int "output clamp hi" 255 (Axis.Block.clamp_output 300);
  check int "output clamp lo" (-256) (Axis.Block.clamp_output (-300))

let test_rand_deterministic () =
  let a = Axis.Block.Rand.create ~seed:1 () in
  let b = Axis.Block.Rand.create ~seed:1 () in
  check bool "same seed, same stream" true
    (Axis.Block.equal (Axis.Block.Rand.block a ~lo:(-256) ~hi:255)
       (Axis.Block.Rand.block b ~lo:(-256) ~hi:255))

let test_rand_range () =
  let s = Axis.Block.Rand.create () in
  for _ = 1 to 1000 do
    let v = Axis.Block.Rand.uniform s ~lo:(-5) ~hi:5 in
    check bool "in range" true (v >= -5 && v <= 5)
  done

let test_dc_only () =
  (* A DC-only coefficient block reconstructs to a flat block. *)
  let blk = Axis.Block.create () in
  Axis.Block.set blk ~row:0 ~col:0 64;
  let out = Idct.Chenwang.idct blk in
  let first = out.(0) in
  check int "dc level" 8 first;
  check bool "flat" true (Array.for_all (fun v -> v = first) out)

let test_zero_in_zero_out () =
  let out = Idct.Chenwang.idct (Axis.Block.create ()) in
  check bool "all zero" true (Array.for_all (fun v -> v = 0) out)

let test_matches_reference_closely () =
  (* The fixed-point result stays within one LSB of the real-valued IDCT. *)
  let rng = Axis.Block.Rand.create ~seed:5 () in
  for _ = 1 to 200 do
    let coeffs = Idct.Reference.fdct (Axis.Block.Rand.block rng ~lo:(-256) ~hi:255) in
    let fixed = Idct.Chenwang.idct coeffs in
    let real = Idct.Reference.idct coeffs in
    Array.iteri
      (fun i v -> check bool "within 1" true (abs (v - real.(i)) <= 1))
      fixed
  done

let test_row_dc_shortcut_identity () =
  (* The C reference short-circuits all-AC-zero rows; the full butterfly
     must compute the identical value (the reason hardware can drop it). *)
  for dc = -2048 to 2047 do
    if dc mod 17 = 0 then begin
      let row = Array.make 8 0 in
      row.(0) <- dc;
      let out = Idct.Chenwang.idct_row row in
      Array.iter (fun v -> check int "shortcut identity" (dc * 8) v) out
    end
  done

let test_col_dc_shortcut_identity () =
  for dc = -2048 to 2047 do
    if dc mod 29 = 0 then begin
      let col = Array.make 8 0 in
      col.(0) <- dc;
      let out = Idct.Chenwang.idct_col col in
      let expect = Idct.Chenwang.iclip ((dc + 32) asr 6) in
      Array.iter (fun v -> check int "col shortcut identity" expect v) out
    end
  done

let test_ieee1180_pass () =
  List.iter
    (fun (_, _, (v : Idct.Ieee1180.verdict)) ->
      check bool "compliant" true v.passed)
    (Idct.Ieee1180.run ~blocks:500 (List.map Idct.Chenwang.idct))

(* An implementation with a systematic bias. *)
let biased blk =
  Array.map (fun v -> Axis.Block.clamp_output (v + 1)) (Idct.Chenwang.idct blk)

let test_ieee1180_detects_bad () =
  (* An implementation with a systematic bias must fail. *)
  check bool "biased fails" false (Idct.Ieee1180.compliant ~blocks:100 (List.map biased));
  (* An implementation computing the forward transform must fail hard. *)
  check bool "wrong transform fails" false
    (Idct.Ieee1180.compliant ~blocks:20 (List.map Idct.Reference.fdct))

let test_ieee1180_zero_rule () =
  let sneaky blk =
    let out = Idct.Chenwang.idct blk in
    if Array.for_all (fun v -> v = 0) blk then Array.map (fun _ -> 1) out else out
  in
  let _, s, v = List.hd (Idct.Ieee1180.run ~blocks:50 (List.map sneaky)) in
  check bool "zero rule violated" false s.Idct.Ieee1180.zero_in_zero_out;
  check bool "fails" false v.Idct.Ieee1180.passed

let test_staged_checker_pure () =
  (* One prepared checker judges a passing and a failing dut, in both
     orders, and every verdict equals a fresh run's: judging never
     writes to the prepared stimulus or reference.  300 blocks is about
     the fewest at which Chen-Wang passes the mean-error criteria. *)
  let blocks = 300 in
  let good = List.map Idct.Chenwang.idct and bad = List.map biased in
  let fresh dut = Idct.Ieee1180.compliant ~blocks dut in
  check bool "fresh: Chen-Wang passes" true (fresh good);
  check bool "fresh: biased fails" false (fresh bad);
  let comply = Core.Flow.idct_spec.Core.Flow.comply ~blocks in
  List.iter
    (fun (name, dut) -> check bool name (fresh dut) (comply dut))
    [ ("good", good); ("bad", bad); ("bad", bad); ("good", good) ];
  (* The same for the statistics of the staged [run]. *)
  let run = Idct.Ieee1180.run ~blocks in
  let bad_first = run bad in
  check bool "good stats after bad" true
    (run good = Idct.Ieee1180.run ~blocks good);
  check bool "bad stats" true (bad_first = Idct.Ieee1180.run ~blocks bad)

(* The double-precision reference, written as the literal quadruple sum
   over a 2-D basis table: the oracle [Reference] must match bit for bit
   (same loop order, each term rounded as [(c * b_ux) * b_vy]). *)
let oracle_basis =
  Array.init 8 (fun u ->
      Array.init 8 (fun x ->
          let cu = if u = 0 then 1.0 /. sqrt 2.0 else 1.0 in
          cu /. 2.0
          *. cos
               (float_of_int ((2 * x) + 1) *. float_of_int u *. Float.pi
              /. 16.0)))

let oracle_idct blk =
  let out = Array.make 64 0.0 in
  for x = 0 to 7 do
    for y = 0 to 7 do
      let acc = ref 0.0 in
      for u = 0 to 7 do
        for v = 0 to 7 do
          acc :=
            !acc
            +. (float_of_int (Axis.Block.get blk ~row:u ~col:v)
               *. oracle_basis.(u).(x)
               *. oracle_basis.(v).(y))
        done
      done;
      out.((x * 8) + y) <- !acc
    done
  done;
  out

let oracle_fdct blk =
  let out = Array.make 64 0.0 in
  for u = 0 to 7 do
    for v = 0 to 7 do
      let acc = ref 0.0 in
      for x = 0 to 7 do
        for y = 0 to 7 do
          acc :=
            !acc
            +. (float_of_int (Axis.Block.get blk ~row:x ~col:y)
               *. oracle_basis.(u).(x)
               *. oracle_basis.(v).(y))
        done
      done;
      out.((u * 8) + v) <- !acc
    done
  done;
  out

let same_bits what want got =
  Array.iteri
    (fun i w ->
      if Int64.bits_of_float w <> Int64.bits_of_float got.(i) then
        Alcotest.failf "%s: element %d is %h, the oracle gives %h" what i
          got.(i) w)
    want

let test_reference_bit_identical () =
  (* Every IEEE 1180 condition's samples through the FDCT, and the
     resulting coefficients through the IDCT, plus the all-zero block
     and blocks at the sample and coefficient extremes. *)
  let check_block b =
    same_bits "fdct_exact" (oracle_fdct b) (Idct.Reference.fdct_exact b);
    same_bits "idct_exact" (oracle_idct b) (Idct.Reference.idct_exact b)
  in
  List.iteri
    (fun k (r : Idct.Ieee1180.range) ->
      let rng = Axis.Block.Rand.create ~seed:(100 + k) () in
      for _ = 1 to 1000 do
        let samples =
          Array.map
            (fun v -> Axis.Block.clamp_output (r.sign * v))
            (Axis.Block.Rand.block rng ~lo:r.lo ~hi:r.hi)
        in
        check_block samples;
        check_block (Idct.Reference.fdct samples)
      done)
    Idct.Ieee1180.standard_ranges;
  let filled f = Array.init 64 f in
  List.iter check_block
    [
      filled (fun _ -> 0);
      filled (fun _ -> 255);
      filled (fun _ -> -256);
      filled (fun _ -> 2047);
      filled (fun _ -> -2048);
      filled (fun i ->
          if ((i / 8) + (i mod 8)) land 1 = 0 then 2047 else -2048);
      filled (fun i -> if i = 0 then 2047 else 0);
    ]

let idct_props =
  [
    QCheck.Test.make ~name:"linearity in DC" ~count:200
      QCheck.(int_range (-200) 200)
      (fun dc ->
        let blk = Axis.Block.create () in
        Axis.Block.set blk ~row:0 ~col:0 (8 * dc);
        let out = Idct.Chenwang.idct blk in
        Array.for_all (fun v -> v = Axis.Block.clamp_output dc) out);
    QCheck.Test.make ~name:"output always in 9-bit range" ~count:200
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Axis.Block.Rand.create ~seed () in
        let blk = Axis.Block.Rand.block rng ~lo:(-2048) ~hi:2047 in
        let out = Idct.Chenwang.idct blk in
        Array.for_all (fun v -> v >= -256 && v <= 255) out);
    QCheck.Test.make ~name:"fdct then idct round-trips" ~count:100
      QCheck.(int_range 0 10000)
      (fun seed ->
        let rng = Axis.Block.Rand.create ~seed () in
        let samples = Axis.Block.Rand.block rng ~lo:(-255) ~hi:255 in
        let back = Idct.Chenwang.idct (Idct.Reference.fdct samples) in
        (* IEEE-grade accuracy: within 1 of the original samples *)
        Array.for_all2 (fun a b -> abs (a - b) <= 1) samples back);
  ]

let () =
  Alcotest.run "idct"
    [
      ( "block",
        [
          Alcotest.test_case "ops" `Quick test_block_ops;
          Alcotest.test_case "clamps" `Quick test_clamps;
          Alcotest.test_case "rand deterministic" `Quick test_rand_deterministic;
          Alcotest.test_case "rand range" `Quick test_rand_range;
        ] );
      ( "chenwang",
        [
          Alcotest.test_case "dc only" `Quick test_dc_only;
          Alcotest.test_case "zero in zero out" `Quick test_zero_in_zero_out;
          Alcotest.test_case "close to real-valued" `Quick test_matches_reference_closely;
          Alcotest.test_case "row dc shortcut identity" `Quick test_row_dc_shortcut_identity;
          Alcotest.test_case "col dc shortcut identity" `Quick test_col_dc_shortcut_identity;
        ] );
      ( "ieee1180",
        [
          Alcotest.test_case "reference passes" `Slow test_ieee1180_pass;
          Alcotest.test_case "detects bias" `Quick test_ieee1180_detects_bad;
          Alcotest.test_case "zero rule" `Quick test_ieee1180_zero_rule;
          Alcotest.test_case "staged checker is pure" `Quick test_staged_checker_pure;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest idct_props);
      ( "reference",
        [
          Alcotest.test_case "bit-identical to the literal sum" `Quick
            test_reference_bit_identical;
        ] );
    ]
