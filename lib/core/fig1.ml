type point = {
  label : string;
  area : int;
  throughput_mops : float;
  fmax_mhz : float;
}

type series = { tool : Design.tool; points : point list }

let point_of (d : Design.t) (m : Metrics.measured) =
  {
    label = d.Design.label;
    area = m.Metrics.area;
    throughput_mops = m.Metrics.throughput_mops;
    fmax_mhz = m.Metrics.fmax_mhz;
  }

(* One flat work list across every tool — ~100 independent measurements
   for the full figure — mapped over the domain pool in one batch so a
   tool with few configurations does not leave domains idle.  Each item
   carries the index of its series; the pool preserves input order, so
   filtering by index reassembles each tool's series exactly as the
   sequential path built them.  A failed point is dropped from its series
   and reported as its typed error, in sweep order. *)
let compute_result ?jobs ?tools ?(kernel = Kernel.idct) () =
  let spec = Kernel.spec kernel in
  let tools =
    match tools with Some ts -> ts | None -> Kernel.tools kernel
  in
  let work =
    List.concat
      (List.mapi
         (fun i t -> List.map (fun d -> (i, d)) (Kernel.sweep kernel t))
         tools)
  in
  let designs = List.map snd work in
  let outcomes = Evaluate.measure_all_result ?jobs ~matrices:3 ~spec designs in
  let results = List.combine work outcomes in
  let series =
    List.mapi
      (fun i tool ->
        let points =
          List.filter_map
            (function
              | (j, d), Ok m when j = i -> Some (point_of d m) | _ -> None)
            results
        in
        { tool; points })
      tools
  in
  (series, Flow.errors outcomes)

let compute ?jobs ?tools ?kernel () =
  Flow.fail_fast (compute_result ?jobs ?tools ?kernel ())

let points ?jobs ?tools ?kernel () =
  List.concat_map
    (fun s -> List.map (fun p -> (s.tool, p)) s.points)
    (compute ?jobs ?tools ?kernel ())

(* Machine-readable Fig. 1: the same point set as the ASCII scatter, one
   JSON object per series, written temp-file + rename so readers never
   observe a truncation. *)
let write_json ?(kernel = Kernel.idct) path series =
  Trace.write_atomic path (fun oc ->
      output_string oc "{\n  \"artifact\": \"fig1\",\n";
      (* the default kernel's JSON stays byte-identical to the pre-kernel
         artifact; other kernels name themselves *)
      if Kernel.name kernel <> "idct" then
        Printf.fprintf oc "  \"kernel\": \"%s\",\n"
          (Trace.json_escape (Kernel.name kernel));
      output_string oc "  \"series\": [\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "    {\"tool\": \"%s\", \"language\": \"%s\", \"points\": [\n"
            (Trace.json_escape (Design.tool_name s.tool))
            (Trace.json_escape (Design.language_name s.tool));
          List.iteri
            (fun j p ->
              Printf.fprintf oc
                "      {\"label\": \"%s\", \"area\": %d, \
                 \"throughput_mops\": %.6f, \"fmax_mhz\": %.6f}%s\n"
                (Trace.json_escape p.label) p.area p.throughput_mops p.fmax_mhz
                (if j = List.length s.points - 1 then "" else ","))
            s.points;
          Printf.fprintf oc "    ]}%s\n"
            (if i = List.length series - 1 then "" else ","))
        series;
      output_string oc "  ]\n}\n")

let caption = "\nPerformance (MOPS, log)  x  Area (LUT*+FF*, log)\n"

let scatter ~legend_suffix kernel points =
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let lx (area, _, _) = log10 (float_of_int (max 1 area)) in
  let ly (_, mops, _) = log10 (Float.max 0.01 mops) in
  let min_x = List.fold_left (fun a p -> Float.min a (lx p)) infinity points in
  let max_x =
    List.fold_left (fun a p -> Float.max a (lx p)) neg_infinity points
  in
  let min_y = List.fold_left (fun a p -> Float.min a (ly p)) infinity points in
  let max_y =
    List.fold_left (fun a p -> Float.max a (ly p)) neg_infinity points
  in
  let w = 72 and h = 24 in
  let grid = Array.make_matrix h w ' ' in
  List.iter
    (fun ((_, _, glyph) as p) ->
      let x =
        int_of_float
          ((lx p -. min_x) /. Float.max 1e-9 (max_x -. min_x)
          *. float_of_int (w - 1))
      in
      let y =
        int_of_float
          ((ly p -. min_y) /. Float.max 1e-9 (max_y -. min_y)
          *. float_of_int (h - 1))
      in
      grid.(h - 1 - y).(x) <- glyph)
    points;
  pr "%s" caption;
  pr "legend: %s%s\n"
    (String.concat " " (List.map Registry.legend (Kernel.tools kernel)))
    legend_suffix;
  for r = 0 to h - 1 do
    pr "|%s|\n" (String.init w (fun c -> grid.(r).(c)))
  done;
  pr "%s\n" (String.make (w + 2) '-');
  if points = [] then pr "area: no points   throughput: no points\n"
  else
    pr "area: %.0f .. %.0f   throughput: %.2f .. %.2f MOPS\n"
      (10. ** min_x) (10. ** max_x) (10. ** min_y) (10. ** max_y);
  Buffer.contents buf

let render_series ?(kernel = Kernel.idct) series =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Data listing. *)
  List.iter
    (fun s ->
      pr "%s (%s, %d configurations):\n"
        (Design.language_name s.tool)
        (Design.tool_name s.tool)
        (List.length s.points);
      List.iter
        (fun p ->
          pr "  %-34s A=%7d  P=%8.2f MOPS  f=%7.2f MHz\n" p.label p.area
            p.throughput_mops p.fmax_mhz)
        s.points)
    series;
  Buffer.add_string buf
    (scatter ~legend_suffix:"" kernel
       (List.concat_map
          (fun s ->
            List.map
              (fun p -> (p.area, p.throughput_mops, Registry.glyph s.tool))
              s.points)
          series));
  Buffer.contents buf
