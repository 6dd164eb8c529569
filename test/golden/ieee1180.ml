(* The IEEE 1180-1990 statistics of the fixed-point Chen-Wang IDCT at
   500 blocks per condition, one line per condition of
   [Ieee1180.standard_ranges]:

     (LO,HI)xSIGN STATS | HEX

   STATS is [Ieee1180.pp_stats]; HEX repeats the four float statistics
   in hexadecimal, so a change in any bit of the double-precision
   reference (the stimulus comes from [Reference.fdct], the expected
   outputs from [Reference.idct]) shows in the diff. *)

let () =
  List.iter
    (fun ((r : Idct.Ieee1180.range), (s : Idct.Ieee1180.stats), _) ->
      Format.printf "(%d,%d)x%d %a | %h %h %h %h@." r.lo r.hi r.sign
        Idct.Ieee1180.pp_stats s s.worst_pmse s.omse s.worst_pme s.ome)
    (Idct.Ieee1180.run ~blocks:500 (List.map Idct.Chenwang.idct))
