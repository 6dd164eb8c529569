type chart = {
  chart_axes : Core.Kernel.axis list;
  chart_designs : Core.Design.t array;
}

type t = {
  tool : Core.Design.tool;
  charts : chart list;
  spec : Core.Flow.spec;
}

type candidate = {
  cand_tool : Core.Design.tool;
  cand_chart : int;
  cand_coords : int array;
  cand_axes : Core.Kernel.axis list;
  cand_design : Core.Design.t;
}

let chart_size axes =
  List.fold_left
    (fun n (a : Core.Kernel.axis) -> n * List.length a.Core.Kernel.axis_values)
    1 axes

(* Partition the tool's sweep by the declared chart sizes.  The axes are
   metadata over the same generators that build the sweep, so the product
   sizes must tile the design list exactly — anything else is a
   misregistered space, caught here rather than as a silent shift of
   every later candidate. *)
let of_tool ?(kernel = Core.Kernel.idct) tool =
  let sweep = Array.of_list (Core.Kernel.sweep kernel tool) in
  let space = Core.Kernel.space kernel tool in
  let total = List.fold_left (fun n axes -> n + chart_size axes) 0 space in
  if total <> Array.length sweep then
    invalid_arg
      (Printf.sprintf
         "Dse.Space.of_tool: %s declares a %d-point space over a %d-point \
          sweep"
         (Core.Design.tool_name tool) total (Array.length sweep));
  let _, charts =
    List.fold_left
      (fun (off, acc) axes ->
        let n = chart_size axes in
        let chart =
          { chart_axes = axes; chart_designs = Array.sub sweep off n }
        in
        (off + n, chart :: acc))
      (0, []) space
  in
  { tool; charts = List.rev charts; spec = Core.Kernel.spec kernel }

let scripts = [ "strength_reduce"; "narrow"; "strength_reduce; narrow" ]

(* A transformation-sequence axis: the initial design plus each script
   applied to it, as one extra single-axis chart.  Derived designs are
   cells like every other inventory entry; forcing one replays the script
   through the verified engine, so an unsound rewrite can never produce
   a measurable candidate. *)
let with_scripts t =
  let initial =
    List.find_map
      (fun ch ->
        Array.find_opt
          (fun (d : Core.Design.t) -> d.Core.Design.label = "initial")
          ch.chart_designs)
      t.charts
  in
  match initial with
  | None -> t
  | Some base -> (
      match base.Core.Design.impl with
      | Core.Design.Pcie _ -> t
      | Core.Design.Stream l ->
          let derive s =
            let label = base.Core.Design.label ^ " + [" ^ s ^ "]" in
            let impl =
              Core.Design.Stream
                (Core.Design.cell base.Core.Design.tool label (fun () ->
                     (* forcing the base cell from inside this one's
                        construction: each cell guards only itself *)
                     let subject =
                       Transfo.Subject.of_circuit (Core.Design.force l)
                     in
                     match
                       Transfo.Engine.run (Transfo.Script.parse_exn s) subject
                     with
                     | Ok r ->
                         r.Transfo.Engine.rep_subject.Transfo.Subject.circuit
                     | Error e -> failwith (Transfo.Engine.error_to_string e)))
            in
            {
              base with
              Core.Design.label;
              config_desc =
                base.Core.Design.config_desc ^ "; transfo: " ^ s;
              impl;
            }
          in
          let chart =
            {
              chart_axes =
                [
                  {
                    Core.Kernel.axis_name = "script";
                    axis_values = "(none)" :: scripts;
                  };
                ];
              chart_designs =
                Array.of_list (base :: List.map derive scripts);
            }
          in
          { t with charts = t.charts @ [ chart ] })

let size t =
  List.fold_left (fun n c -> n + Array.length c.chart_designs) 0 t.charts

(* Row-major ranking within a chart: the last axis varies fastest,
   matching the List.concat_map nesting of every registry sweep
   generator. *)
let rank axes coords =
  let r = ref 0 and i = ref 0 in
  List.iter
    (fun (a : Core.Kernel.axis) ->
      r := (!r * List.length a.Core.Kernel.axis_values) + coords.(!i);
      incr i)
    axes;
  !r

let unrank axes j =
  let dims =
    List.map (fun (a : Core.Kernel.axis) -> List.length a.Core.Kernel.axis_values) axes
  in
  let n = List.length dims in
  let coords = Array.make n 0 in
  let j = ref j in
  List.iteri
    (fun i dim ->
      let i' = n - 1 - i in
      coords.(i') <- !j mod dim;
      j := !j / dim)
    (List.rev dims);
  coords

let candidate t ci coords =
  let chart = List.nth t.charts ci in
  {
    cand_tool = t.tool;
    cand_chart = ci;
    cand_coords = coords;
    cand_axes = chart.chart_axes;
    cand_design = chart.chart_designs.(rank chart.chart_axes coords);
  }

let candidates t =
  List.concat
    (List.mapi
       (fun ci chart ->
         List.init (Array.length chart.chart_designs) (fun j ->
             candidate t ci (unrank chart.chart_axes j)))
       t.charts)

let neighbors t cand =
  let chart = List.nth t.charts cand.cand_chart in
  let dims =
    List.map
      (fun (a : Core.Kernel.axis) -> List.length a.Core.Kernel.axis_values)
      chart.chart_axes
  in
  List.concat
    (List.mapi
       (fun i dim ->
         List.filter_map
           (fun delta ->
             let v = cand.cand_coords.(i) + delta in
             if v < 0 || v >= dim then None
             else
               let coords = Array.copy cand.cand_coords in
               coords.(i) <- v;
               Some (candidate t cand.cand_chart coords))
           [ -1; 1 ])
       dims)

let key cand = Core.Flow.span_key cand.cand_design

let coords_desc cand =
  (* the candidate carries its own chart axes, so the description does
     not depend on which kernel's space it came from *)
  String.concat " "
    (List.mapi
       (fun i (a : Core.Kernel.axis) ->
         Printf.sprintf "%s=%s" a.Core.Kernel.axis_name
           (List.nth a.Core.Kernel.axis_values cand.cand_coords.(i)))
       cand.cand_axes)

let describe t =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "%s (%d candidates):\n"
    (Core.Design.tool_name t.tool)
    (size t);
  List.iter
    (fun chart ->
      let axes =
        String.concat " x "
          (List.map
             (fun (a : Core.Kernel.axis) ->
               Printf.sprintf "%s[%d]" a.Core.Kernel.axis_name
                 (List.length a.Core.Kernel.axis_values))
             chart.chart_axes)
      in
      Printf.ksprintf (Buffer.add_string buf) "  %s = %d points\n" axes
        (Array.length chart.chart_designs))
    t.charts;
  Buffer.contents buf
