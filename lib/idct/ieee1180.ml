type stats = {
  blocks : int;
  peak_error : int;
  worst_pmse : float;
  omse : float;
  worst_pme : float;
  ome : float;
  zero_in_zero_out : bool;
}

type verdict = { passed : bool; failures : string list }

type range = { lo : int; hi : int; sign : int }

let standard_ranges =
  [
    { lo = -256; hi = 255; sign = 1 };
    { lo = -256; hi = 255; sign = -1 };
    { lo = -5; hi = 5; sign = 1 };
    { lo = -5; hi = 5; sign = -1 };
    { lo = -300; hi = 300; sign = 1 };
    { lo = -300; hi = 300; sign = -1 };
  ]


let stats_of_summary (s : Axis.Accuracy.summary) ~zero =
  {
    blocks = s.Axis.Accuracy.blocks;
    peak_error = s.Axis.Accuracy.peak_error;
    worst_pmse = s.Axis.Accuracy.worst_pmse;
    omse = s.Axis.Accuracy.omse;
    worst_pme = s.Axis.Accuracy.worst_pme;
    ome = s.Axis.Accuracy.ome;
    zero_in_zero_out = zero;
  }

(* One condition's stimulus and reference outputs, drawn once and shared
   read-only by every dut judged against them.  They are stored packed,
   64 [int16] per block (coefficients are 12-bit, reference samples
   9-bit), so a prepared run costs a few hundred kilobytes rather than a
   boxed block list per condition. *)
type packed = (int, Bigarray.int16_signed_elt, Bigarray.c_layout) Bigarray.Array1.t

type prepared = { range : range; p_blocks : int; coeffs : packed; wants : packed }

let n2 = Axis.Block.size * Axis.Block.size

let prepare ?(blocks = 10000) ?(seed = 1) range =
  let rng = Axis.Block.Rand.create ~seed () in
  let packed () = Bigarray.(Array1.create int16_signed c_layout (blocks * n2)) in
  let coeffs = packed () and wants = packed () in
  let store dst k b = Array.iteri (fun i v -> dst.{(k * n2) + i} <- v) b in
  for k = 0 to blocks - 1 do
    let samples = Axis.Block.Rand.block rng ~lo:range.lo ~hi:range.hi in
    let samples =
      if range.sign < 0 then Array.map (fun v -> -v) samples else samples
    in
    (* IEEE 1180 clamps the random samples to the 9-bit range before the
       forward transform (relevant for the (-300,300) condition). *)
    let samples = Array.map Axis.Block.clamp_output samples in
    let c = Reference.fdct samples in
    store coeffs k c;
    store wants k (Reference.idct c)
  done;
  { range; p_blocks = blocks; coeffs; wants }

(* The judge half: the dut sees the whole coefficient list in one call,
   so a stream implementation can spread the blocks across simulation
   lanes.  The error statistics accumulate in draw order, so the verdict
   does not depend on how the dut batches its work.  Nothing here writes
   to [p]. *)
let stats p dut =
  let unpack k = Array.init n2 (fun i -> p.coeffs.{(k * n2) + i}) in
  let gots = dut (List.init p.p_blocks unpack) in
  if List.length gots <> p.p_blocks then
    invalid_arg
      (Printf.sprintf "Ieee1180: the dut returned %d blocks for %d"
         (List.length gots) p.p_blocks);
  let acc = Axis.Accuracy.create () and want = Axis.Block.create () in
  List.iteri
    (fun k got ->
      for i = 0 to n2 - 1 do
        want.(i) <- p.wants.{(k * n2) + i}
      done;
      Axis.Accuracy.add acc ~want ~got)
    gots;
  let zero =
    let z = Axis.Block.create () in
    match dut [ z ] with [ got ] -> Axis.Block.equal got z | _ -> false
  in
  stats_of_summary (Axis.Accuracy.summarize acc) ~zero

(* Each entry point is staged: applying everything but the dut prepares
   the stimulus and reference, and the returned checker only judges. *)
let measure ?blocks ?seed range = stats (prepare ?blocks ?seed range)

let judge s =
  let checks =
    [
      (s.peak_error <= 1, Printf.sprintf "peak error %d > 1" s.peak_error);
      (s.worst_pmse <= 0.06, Printf.sprintf "pmse %.4f > 0.06" s.worst_pmse);
      (s.omse <= 0.02, Printf.sprintf "omse %.4f > 0.02" s.omse);
      (s.worst_pme <= 0.015, Printf.sprintf "pme %.4f > 0.015" s.worst_pme);
      (s.ome <= 0.0015, Printf.sprintf "ome %.5f > 0.0015" s.ome);
      (s.zero_in_zero_out, "zero input does not give zero output");
    ]
  in
  let failures =
    List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks
  in
  { passed = failures = []; failures }

let run ?blocks =
  let ps = List.map (prepare ?blocks) standard_ranges in
  fun dut ->
    List.map
      (fun p ->
        let s = stats p dut in
        (p.range, s, judge s))
      ps

let compliant ?blocks =
  let run = run ?blocks in
  fun dut -> List.for_all (fun (_, _, v) -> v.passed) (run dut)

let pp_stats ppf s =
  Format.fprintf ppf
    "blocks=%d peak=%d pmse=%.4f omse=%.4f pme=%.4f ome=%.5f zero=%b" s.blocks
    s.peak_error s.worst_pmse s.omse s.worst_pme s.ome s.zero_in_zero_out
