type t = {
  sq_err : float array;
  sum_err : float array;
  mutable peak : int;
  mutable blocks : int;
}

type summary = {
  blocks : int;
  peak_error : int;
  worst_pmse : float;
  omse : float;
  worst_pme : float;
  ome : float;
}

let n2 = Block.size * Block.size

let create () =
  { sq_err = Array.make n2 0.0; sum_err = Array.make n2 0.0; peak = 0; blocks = 0 }

let add (acc : t) ~want ~got =
  for i = 0 to n2 - 1 do
    let e = got.(i) - want.(i) in
    if abs e > acc.peak then acc.peak <- abs e;
    acc.sq_err.(i) <- acc.sq_err.(i) +. float_of_int (e * e);
    acc.sum_err.(i) <- acc.sum_err.(i) +. float_of_int e
  done;
  acc.blocks <- acc.blocks + 1

let summarize (acc : t) =
  let fb = float_of_int acc.blocks in
  let pmse = Array.map (fun s -> s /. fb) acc.sq_err in
  let pme = Array.map (fun s -> abs_float (s /. fb)) acc.sum_err in
  {
    blocks = acc.blocks;
    peak_error = acc.peak;
    worst_pmse = Array.fold_left Float.max 0.0 pmse;
    omse = Array.fold_left ( +. ) 0.0 pmse /. float_of_int n2;
    worst_pme = Array.fold_left Float.max 0.0 pme;
    ome =
      abs_float
        (Array.fold_left ( +. ) 0.0 acc.sum_err /. (fb *. float_of_int n2));
  }
