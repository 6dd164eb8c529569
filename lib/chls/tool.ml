module Builder = Hw.Builder

open Ast

(* ---------------- interface regions ---------------- *)

let lanes = Axis.Stream.lanes

let in_t = { width = Axis.Stream.in_width; signed = true }
let out_t = { width = Axis.Stream.out_width; signed = true }

let io_vars =
  List.init lanes (fun k -> (Printf.sprintf "__in%d" k, in_t))
  @ List.init lanes (fun k -> (Printf.sprintf "__out%d" k, out_t))
  @ [ ("__tmp0", short_t); ("__tmp1", short_t); ("__ib", int_t);
      ("__il", int_t); ("__ob", int_t); ("__ol", int_t) ]

let v x = Var x
let i k = Int k
let ( +: ) a b = Bin (Add, a, b)
let ( *: ) a b = Bin (Mul, a, b)
let ( ==: ) a b = Bin (Eq, a, b)

let lane_pick prefix ~par ~phase sel =
  (* Select __inK where K = sel*par + phase; sel ranges over lanes/par. *)
  let n = lanes / par in
  let rec go k =
    let name = Printf.sprintf "%s%d" prefix ((k * par) + phase) in
    if k = n - 1 then v name else Cond (sel ==: i k, v name, go (k + 1))
  in
  go 0

let io_load_regions ?(par = 1) top =
  let stores =
    List.init par (fun j ->
        Store
          ( top,
            (v "__ib" *: i lanes) +: ((v "__il" *: i par) +: i j),
            lane_pick "__in" ~par ~phase:j (v "__il") ))
  in
  [
    Transform.RLoop
      {
        ivar = "__ib";
        bound = lanes;
        body =
          [
            Transform.RCapture;
            Transform.RLoop
              { ivar = "__il"; bound = lanes / par; body = [ Transform.RStraight stores ] };
          ];
      };
  ]

let io_store_regions ?(par = 1) top =
  let updates =
    List.concat
      (List.init par (fun j ->
           let tmp = Printf.sprintf "__tmp%d" j in
           [
             Assign
               ( tmp,
                 Load (top, (v "__ob" *: i lanes) +: ((v "__ol" *: i par) +: i j))
               );
           ]))
    @ List.init lanes (fun k ->
          let name = Printf.sprintf "__out%d" k in
          let tmp = Printf.sprintf "__tmp%d" (k mod par) in
          Assign (name, Cond (v "__ol" ==: i (k / par), v tmp, v name)))
  in
  [
    Transform.RLoop
      {
        ivar = "__ob";
        bound = lanes;
        body =
          [
            Transform.RLoop
              { ivar = "__ol"; bound = lanes / par; body = [ Transform.RStraight updates ] };
            Transform.REmit;
          ];
      };
  ]

let with_io (cfg : Schedule.config) (proc : Transform.proc) =
  let top_array =
    match proc.Transform.arrays with
    | (a, _, 64, _) :: _ -> a
    | _ -> failwith "Chls.Tool: expected a 64-element top array"
  in
  let par_in = min 2 cfg.Schedule.write_ports in
  let par_out = min 2 cfg.Schedule.read_ports in
  {
    proc with
    Transform.vars = proc.Transform.vars @ io_vars;
    regions =
      io_load_regions ~par:par_in top_array
      @ proc.Transform.regions
      @ io_store_regions ~par:par_out top_array;
  }

let schedule cfg proc = Schedule.schedule cfg (with_io cfg proc)

let sequential_circuit ~name cfg opts program =
  Fsm.circuit ~name (schedule cfg (Transform.lower opts program))

type plan =
  | Sequential of {
      name : string;
      cfg : Schedule.config;
      opts : Transform.options;
      program : Ast.program;
    }
  | Pipelined of (unit -> Hw.Netlist.t)

let build = function
  | Sequential { name; cfg; opts; program } ->
      sequential_circuit ~name cfg opts program
  | Pipelined f -> f ()

(* ---------------- Bambu ---------------- *)

type bambu_config = { preset : string; sdc : bool; chain_effort : int }

let presets =
  [
    (* name, read ports, write ports, multipliers, base chaining (ns) *)
    ("BAMBU", 1, 1, 1, 5.0);
    ("AREA", 1, 1, 1, 4.0);
    ("AREA-MP", 2, 2, 1, 4.0);
    ("BALANCED", 1, 1, 2, 5.0);
    ("BALANCED-MP", 2, 2, 2, 5.0);
    ("PERFORMANCE", 1, 1, 2, 6.0);
    ("PERFORMANCE-MP", 2, 2, 2, 6.0);
  ]

let bambu_grid =
  List.concat_map
    (fun (preset, _, _, _, _) ->
      List.concat_map
        (fun sdc ->
          List.map (fun chain_effort -> { preset; sdc; chain_effort }) [ 0; 1; 2 ])
        [ false; true ])
    presets

let bambu_initial = { preset = "BAMBU"; sdc = false; chain_effort = 1 }
let bambu_optimized = { preset = "PERFORMANCE-MP"; sdc = true; chain_effort = 1 }

let describe_bambu c =
  Printf.sprintf "%s%s chaining=%d" c.preset
    (if c.sdc then " +speculative-sdc" else "")
    c.chain_effort

let bambu_schedule_config c =
  let _, rp, wp, mults, chain =
    List.find (fun (n, _, _, _, _) -> n = c.preset) presets
  in
  let chain = chain *. (1.0 +. (0.25 *. float_of_int (c.chain_effort - 1))) in
  let chain = if c.sdc then chain *. 1.2 else chain in
  {
    Schedule.read_ports = rp;
    write_ports = wp;
    multipliers = mults;
    chain_ns = chain;
  }

let bambu_plan ?name c =
  Sequential
    {
      name = Option.value name ~default:("bambu_" ^ describe_bambu c);
      cfg = bambu_schedule_config c;
      opts = Transform.default_options;
      program = Idct_c.program;
    }

let bambu_circuit ?name c = build (bambu_plan ?name c)

(* ---------------- Vivado HLS ---------------- *)

type vhls_config = { inline : bool; partition : bool; pipeline : int }

let vhls_initial = { inline = false; partition = false; pipeline = 0 }
let vhls_optimized = { inline = true; partition = true; pipeline = 8 }

let vhls_ladder =
  [
    vhls_initial;
    { inline = true; partition = false; pipeline = 0 };
    { inline = true; partition = true; pipeline = 0 };
    vhls_optimized;
    { inline = true; partition = true; pipeline = 1 };
  ]

let describe_vhls c =
  let tags =
    (if c.inline then [ "INLINE" ] else [])
    @ (if c.partition then [ "ARRAY_PARTITION" ] else [])
    @
    if c.pipeline > 0 then [ Printf.sprintf "PIPELINE_II%d" c.pipeline ]
    else []
  in
  match tags with [] -> "push-button" | _ -> String.concat "+" tags

let vhls_clock_target_ns = 7.5

let vhls_pragmas c =
  [ "#pragma HLS INTERFACE axis port=blk" ]
  @ (if c.inline then [ "#pragma HLS INLINE region" ] else [])
  @ (if c.partition then
       [ "#pragma HLS ARRAY_PARTITION variable=blk complete" ]
     else [])
  @
  if c.pipeline > 0 then
    [ Printf.sprintf "#pragma HLS PIPELINE II=%d" c.pipeline ]
  else []

(* ---------------- symbolic execution of straight-line C ---------------- *)

let cw = 32

let sym_binop b op sx sy =
  let bool_ s = Builder.uext b s cw in
  match (op : binop) with
  | Add -> Builder.add b sx sy
  | Sub -> Builder.sub b sx sy
  | Mul -> Builder.mul b sx sy
  | Shl -> Builder.shl b sx sy
  | Shr -> Builder.sra b sx sy
  | And -> Builder.and_ b sx sy
  | Or -> Builder.or_ b sx sy
  | Xor -> Builder.xor_ b sx sy
  | Lt -> bool_ (Builder.lt b ~signed:true sx sy)
  | Le -> bool_ (Builder.le b ~signed:true sx sy)
  | Gt -> bool_ (Builder.gt b ~signed:true sx sy)
  | Ge -> bool_ (Builder.ge b ~signed:true sx sy)
  | Eq -> bool_ (Builder.eq b sx sy)
  | Ne -> bool_ (Builder.ne b sx sy)

let sym_truncate b s w =
  if Builder.width s > w then Builder.slice b s ~hi:(w - 1) ~lo:0
  else Builder.sext b s w

(* Evaluate statements into combinational hardware.  [vars] and [arrays]
   carry the machine state as signals; value calls are inlined on the fly. *)
let rec sym_eval program b vars arrays (e : expr) =
  let ev = sym_eval program b vars arrays in
  match e with
  | Int k -> Builder.const b ~width:cw k
  | Var x -> (
      match Hashtbl.find_opt vars x with
      | Some s -> s
      | None -> failwith (Printf.sprintf "Chls symexec: unbound %s" x))
  | Load (a, Int k) -> Builder.sext b (Hashtbl.find arrays a).(k) cw
  | Load _ -> failwith "Chls symexec: dynamic index (unroll first)"
  | Bin (op, x, y) -> sym_binop b op (ev x) (ev y)
  | Neg x -> Builder.neg b (ev x)
  | Cond (c, t, f) ->
      let sel = Builder.ne b (ev c) (Builder.zero b cw) in
      Builder.mux b sel (ev t) (ev f)
  | Call _ -> ev (Transform.expand_calls program e)

let sym_exec program b ~var_type ~elem_type vars arrays (s : stmt) =
  match s with
  | Assign (x, e) ->
      let t : ctype = var_type x in
      Hashtbl.replace vars x
        (sym_truncate b (sym_eval program b vars arrays e) t.width)
  | Store (a, Int k, e) ->
      let t : ctype = elem_type a in
      (Hashtbl.find arrays a).(k) <-
        sym_truncate b (sym_eval program b vars arrays e) t.width
  | Store _ -> failwith "Chls symexec: dynamic store (unroll first)"
  | If _ | For _ | CallStmt _ | Return _ ->
      failwith "Chls symexec: non-simple statement"

(* One in-place pass (idct_row / idct_col) as a shared functional unit:
   the II=8 pipeline reuses it once per row or column. *)
let pass_unit program fname ~out_width : Axis.Adapter.lane_fn =
 fun b ins ->
  let f = Ast.find_func program fname in
  let a, elem_t =
    match f.params with
    | [ PArray (a, t, 8) ] -> (a, t)
    | _ -> failwith "Chls.Tool: pass must take one 8-element array"
  in
  let vars = Hashtbl.create 16 in
  let arrays = Hashtbl.create 1 in
  Hashtbl.replace arrays a
    (Array.map (fun s -> Builder.sext b s elem_t.width) ins);
  let var_type x =
    match List.assoc_opt x f.locals with Some t -> t | None -> int_t
  in
  let elem_type _ = elem_t in
  List.iter (sym_exec program b ~var_type ~elem_type vars arrays) f.body;
  Array.map (fun s -> sym_truncate b s out_width) (Hashtbl.find arrays a)

(* Dataflow elaboration of a fully-unrolled procedure (PIPELINE II=1):
   every statement is evaluated symbolically into one combinational
   kernel, then retimed to the clock target. *)
let dataflow_circuit ~name ~clock_ns program =
  let opts =
    {
      Transform.inline_calls = true;
      unroll = true;
      partition = [ "blk"; "row"; "col" ];
      call_sync_cycles = 0;
    }
  in
  let proc = Transform.lower opts program in
  let block =
    match proc.Transform.regions with
    | [ Transform.RStraight b ] -> b
    | _ -> failwith "Chls.Tool: expected a single straight-line region"
  in
  let top_array, elem_t =
    match proc.Transform.arrays with
    | (a, t, 64, _) :: _ -> (a, t)
    | _ -> failwith "Chls.Tool: expected a 64-element top array"
  in
  let b = Builder.create (name ^ "_kernel") in
  let vars = Hashtbl.create 64 in
  let arrays = Hashtbl.create 4 in
  List.iter
    (fun (a, (t : ctype), n, _) ->
      let init =
        if a = top_array then
          Array.init n (fun k ->
              let inp =
                Builder.input b (Printf.sprintf "m_%d" k) Axis.Stream.in_width
              in
              Builder.sext b inp t.width)
        else Array.init n (fun _ -> Builder.const b ~width:t.width 0)
      in
      Hashtbl.replace arrays a init)
    proc.Transform.arrays;
  let var_type x =
    match List.assoc_opt x proc.Transform.vars with
    | Some t -> t
    | None -> int_t
  in
  let elem_type _ = elem_t in
  List.iter (sym_exec program b ~var_type ~elem_type vars arrays) block;
  Array.iteri
    (fun k s ->
      Builder.output b (Printf.sprintf "out_%d" k)
        (sym_truncate b s Axis.Stream.out_width))
    (Hashtbl.find arrays top_array);
  let comb = Builder.finalize b in
  let timing = Hw.Timing.analyze Hw.Device.xcvu9p comb in
  let stages =
    max 1 (int_of_float (ceil (timing.Hw.Timing.period_ns /. clock_ns)))
  in
  let pipelined = Hw.Pipeline.retime ~stages comb in
  let kernel kb mid =
    let inputs =
      Array.to_list (Array.mapi (fun k s -> (Printf.sprintf "m_%d" k, s)) mid)
    in
    let outs = Hw.Instantiate.stamp kb pipelined ~inputs in
    (* The outputs are out_0 .. out_63, in declaration order. *)
    Array.of_list (List.map snd outs)
  in
  (Axis.Adapter.wrap_matrix_kernel ~name ~latency:stages ~kernel (), stages)

let vhls_plan ?name c =
  let name = Option.value name ~default:("vhls_" ^ describe_vhls c) in
  if c.pipeline = 8 then
    (* II=8: one row unit and one column unit, time-shared over the eight
       rows/columns — what Vivado HLS binds for an 8-iteration pipeline. *)
    Pipelined
      (fun () ->
        Axis.Adapter.wrap_row_col ~name
          ~row_unit:(pass_unit Idct_c.program "idct_row" ~out_width:16)
          ~mid_width:16
          ~col_unit:
            (pass_unit Idct_c.program "idct_col"
               ~out_width:Axis.Stream.out_width)
          ())
  else if c.pipeline = 1 then
    Pipelined
      (fun () ->
        fst
          (dataflow_circuit ~name ~clock_ns:vhls_clock_target_ns
             Idct_c.program))
  else
    Sequential
      {
        name;
        cfg =
          {
            Schedule.read_ports = 1;
            write_ports = 1;
            multipliers = 2;
            chain_ns = vhls_clock_target_ns;
          };
        opts =
          {
            Transform.inline_calls = c.inline;
            unroll = false;
            partition = (if c.partition then [ "blk"; "row"; "col" ] else []);
            call_sync_cycles = 8;
          };
        program = Idct_c.program;
      }

let vhls_circuit ?name c = build (vhls_plan ?name c)
