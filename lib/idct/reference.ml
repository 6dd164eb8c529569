let n = Axis.Block.size

(* basis.((u * n) + x) = C(u)/2 * cos((2x+1) u pi / 16) *)
let basis =
  Array.init (n * n) (fun i ->
      let u = i / n and x = i mod n in
      let cu = if u = 0 then 1.0 /. sqrt 2.0 else 1.0 in
      cu /. 2.0
      *. cos (float_of_int ((2 * x) + 1) *. float_of_int u *. Float.pi /. 16.0))

(* [basis] transposed: basis_t.((x * n) + u) = basis.((u * n) + x). *)
let basis_t = Array.init (n * n) (fun i -> basis.((i mod n * n) + (i / n)))

(* Both directions are the literal quadruple sum
   [out.(p, q) = sum_{i, j} (blk.(i, j) * b.(i, p)) * b.(j, q)] over a
   flat basis [b] ([basis] for the IDCT, [basis_t] for the FDCT), summed
   [i]-major, [j]-minor, with each term rounded as written.  The loop
   nest fills one output row [p] at a time in eight accumulators (the
   block size is 8): the product [blk.(i, j) * b.(i, p)] is formed once
   for the eight [q], and the eight sums are independent chains.  Every
   output keeps its summation order and every term its rounding, so the
   bits are those of the one-output-at-a-time sum; a separable
   evaluation or precomputed basis products would change the last
   bits. *)
let transform_exact b blk =
  let c = Array.map float_of_int blk in
  let out = Array.make (n * n) 0.0 in
  for p = 0 to n - 1 do
    let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0
    and a4 = ref 0.0 and a5 = ref 0.0 and a6 = ref 0.0 and a7 = ref 0.0 in
    for i = 0 to n - 1 do
      let bip = b.((i * n) + p) in
      for j = 0 to n - 1 do
        let t = c.((i * n) + j) *. bip and r = j * n in
        a0 := !a0 +. (t *. b.(r));
        a1 := !a1 +. (t *. b.(r + 1));
        a2 := !a2 +. (t *. b.(r + 2));
        a3 := !a3 +. (t *. b.(r + 3));
        a4 := !a4 +. (t *. b.(r + 4));
        a5 := !a5 +. (t *. b.(r + 5));
        a6 := !a6 +. (t *. b.(r + 6));
        a7 := !a7 +. (t *. b.(r + 7))
      done
    done;
    Array.blit [| !a0; !a1; !a2; !a3; !a4; !a5; !a6; !a7 |] 0 out (p * n) n
  done;
  out

let idct_exact = transform_exact basis

let round_half_away x = if x >= 0.0 then floor (x +. 0.5) else ceil (x -. 0.5)

let idct blk =
  let exact = idct_exact blk in
  Array.map (fun v -> Axis.Block.clamp_output (int_of_float (round_half_away v))) exact

let fdct_exact = transform_exact basis_t

let fdct blk =
  let exact = fdct_exact blk in
  Array.map (fun v -> Axis.Block.clamp_input (int_of_float (round_half_away v))) exact
