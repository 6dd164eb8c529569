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

(* The dut sees the whole coefficient list in one call, so a stream
   implementation can spread the blocks across simulation lanes.  The
   error statistics accumulate in draw order, so the verdict does not
   depend on how the dut batches its work. *)
let measure ?(blocks = 10000) ?(seed = 1) range dut =
  let rng = Axis.Block.Rand.create ~seed () in
  let coeffs_rev = ref [] and wants_rev = ref [] in
  for _ = 1 to blocks do
    let samples = Axis.Block.Rand.block rng ~lo:range.lo ~hi:range.hi in
    let samples =
      if range.sign < 0 then Array.map (fun v -> -v) samples else samples
    in
    (* IEEE 1180 clamps the random samples to the 9-bit range before the
       forward transform (relevant for the (-300,300) condition). *)
    let samples = Array.map Axis.Block.clamp_output samples in
    let coeffs = Reference.fdct samples in
    coeffs_rev := coeffs :: !coeffs_rev;
    wants_rev := Reference.idct coeffs :: !wants_rev
  done;
  let gots = dut (List.rev !coeffs_rev) in
  let acc = Axis.Accuracy.create () in
  List.iter2
    (fun want got -> Axis.Accuracy.add acc ~want ~got)
    (List.rev !wants_rev) gots;
  let zero =
    let z = Axis.Block.create () in
    match dut [ z ] with [ got ] -> Axis.Block.equal got z | _ -> false
  in
  stats_of_summary (Axis.Accuracy.summarize acc) ~zero

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

let run ?blocks dut =
  List.map
    (fun r ->
      let s = measure ?blocks r dut in
      (r, s, judge s))
    standard_ranges

let compliant ?blocks dut =
  List.for_all (fun (_, _, v) -> v.passed) (run ?blocks dut)

let pp_stats ppf s =
  Format.fprintf ppf
    "blocks=%d peak=%d pmse=%.4f omse=%.4f pme=%.4f ome=%.5f zero=%b" s.blocks
    s.peak_error s.worst_pmse s.omse s.worst_pme s.ome s.zero_in_zero_out
