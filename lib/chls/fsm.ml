open Hw

let clog2 n =
  let rec go k acc = if k >= n then acc else go (2 * k) (acc + 1) in
  max 1 (go 1 0)

(* ---------------- state placement ---------------- *)

type loop = {
  l_ivar : string;
  l_bound : int;
  l_first : int;
  l_depth : int;                 (* nesting depth, 0 = outermost *)
  mutable l_last : int;
}

type placed =
  | PBlock of Schedule.block * int          (* base state *)
  | PWait of int * int                      (* base, length *)
  | PCapture of int
  | PEmit of int * loop option              (* enclosing loop, for m_last *)
  | PLoop of loop * placed list

let rec place ?(depth = 0) counter enclosing (r : Schedule.sregion) =
  match r with
  | Schedule.SBlock b ->
      let base = !counter in
      counter := !counter + b.Schedule.n_steps;
      PBlock (b, base)
  | Schedule.SWait k ->
      let base = !counter in
      counter := !counter + k;
      PWait (base, k)
  | Schedule.SCapture ->
      let s = !counter in
      incr counter;
      PCapture s
  | Schedule.SEmit ->
      let s = !counter in
      incr counter;
      PEmit (s, enclosing)
  | Schedule.SLoop { ivar; bound; body } ->
      let l =
        { l_ivar = ivar; l_bound = bound; l_first = !counter; l_depth = depth;
          l_last = 0 }
      in
      let body' = List.map (place ~depth:(depth + 1) counter (Some l)) body in
      l.l_last <- !counter - 1;
      PLoop (l, body')

let place_all (t : Schedule.t) =
  let counter = ref 0 in
  let placed = List.map (place counter None) t.Schedule.regions in
  (placed, !counter)

let state_count t = snd (place_all t)

let rec collect_loops acc = function
  | PBlock _ | PWait _ | PCapture _ | PEmit _ -> acc
  | PLoop (l, body) ->
      List.fold_left collect_loops (acc @ [ l ]) body

(* ---------------- generation context ---------------- *)

type storage =
  | Rfile of Builder.s array           (* partitioned: one register per word *)
  | Ram of Builder.mem_handle          (* default: LUTRAM *)

type gen = {
  b : Builder.t;
  t : Schedule.t;
  sw : int;
  state : Builder.s;
  var_regs : (string, Builder.s * Ast.ctype) Hashtbl.t;
  elems : (string, storage * Ast.ctype) Hashtbl.t;
  writes : (Netlist.uid, Builder.s * (Builder.s * Builder.s) list ref) Hashtbl.t;
}

let cw = 32 (* C int computation width *)

let at_state g s = Builder.eq g.b g.state (Builder.const g.b ~width:g.sw s)

let request_write g reg en data =
  let key = Builder.uid reg in
  let cell =
    match Hashtbl.find_opt g.writes key with
    | Some (_, c) -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace g.writes key (reg, c);
        c
  in
  cell := (en, data) :: !cell

let var_reg g x =
  match Hashtbl.find_opt g.var_regs x with
  | Some rt -> rt
  | None -> failwith (Printf.sprintf "Chls.fsm: unknown variable %s" x)

let array_regs g a =
  match Hashtbl.find_opt g.elems a with
  | Some et -> et
  | None -> failwith (Printf.sprintf "Chls.fsm: unknown array %s" a)

let truncate g s w =
  if Builder.width s > w then Builder.slice g.b s ~hi:(w - 1) ~lo:0
  else Builder.sext g.b s w

(* ---------------- block datapath ---------------- *)

let gen_block g (blk : Schedule.block) base =
  let ops = blk.Schedule.ops in
  let n = Array.length ops in
  let live_later = Array.make n false in
  Array.iter
    (fun (o : Schedule.op) ->
      List.iter
        (fun d -> if ops.(d).Schedule.step < o.Schedule.step then live_later.(d) <- true)
        o.Schedule.data_deps)
    ops;
  let comb = Array.make n None in
  let res_reg = Array.make n None in
  let use me_step d =
    match ops.(d).Schedule.kind with
    | Schedule.KConst _ -> Option.get comb.(d)
    | _ ->
        if ops.(d).Schedule.step < me_step then
          match res_reg.(d) with
          | Some r -> r
          | None -> failwith "Chls.fsm: missing result register"
        else Option.get comb.(d)
  in
  Array.iteri
    (fun i (o : Schedule.op) ->
      let v =
        match o.Schedule.kind with
        | Schedule.KConst v -> Some (Builder.const g.b ~width:cw v)
        | Schedule.KVar x ->
            let r, _ = var_reg g x in
            Some (Builder.sext g.b r cw)
        | Schedule.KNeg ->
            (match o.Schedule.data_deps with
            | [ a ] -> Some (Builder.neg g.b (use o.Schedule.step a))
            | _ -> assert false)
        | Schedule.KCond ->
            (match o.Schedule.data_deps with
            | [ c; t; f ] ->
                let cv = use o.Schedule.step c in
                let sel = Builder.ne g.b cv (Builder.zero g.b cw) in
                Some
                  (Builder.mux g.b sel (use o.Schedule.step t)
                     (use o.Schedule.step f))
            | _ -> assert false)
        | Schedule.KBin bop ->
            (match o.Schedule.data_deps with
            | [ x; y ] ->
                let a = use o.Schedule.step x and c = use o.Schedule.step y in
                let bool_ s = Builder.uext g.b s cw in
                Some
                  (match bop with
                  | Ast.Add -> Builder.add g.b a c
                  | Ast.Sub -> Builder.sub g.b a c
                  | Ast.Mul -> Builder.mul g.b a c
                  | Ast.Shl -> Builder.shl g.b a c
                  | Ast.Shr -> Builder.sra g.b a c
                  | Ast.And -> Builder.and_ g.b a c
                  | Ast.Or -> Builder.or_ g.b a c
                  | Ast.Xor -> Builder.xor_ g.b a c
                  | Ast.Lt -> bool_ (Builder.lt g.b ~signed:true a c)
                  | Ast.Le -> bool_ (Builder.le g.b ~signed:true a c)
                  | Ast.Gt -> bool_ (Builder.gt g.b ~signed:true a c)
                  | Ast.Ge -> bool_ (Builder.ge g.b ~signed:true a c)
                  | Ast.Eq -> bool_ (Builder.eq g.b a c)
                  | Ast.Ne -> bool_ (Builder.ne g.b a c))
            | _ -> assert false)
        | Schedule.KLoad a ->
            (match o.Schedule.data_deps with
            | [ idx ] ->
                let st, _ty = array_regs g a in
                let v =
                  match st with
                  | Ram m ->
                      let aw = Builder.mem_addr_width m in
                      let addr = truncate g (use o.Schedule.step idx) aw in
                      Builder.mem_read g.b m addr
                  | Rfile regs -> (
                      match ops.(idx).Schedule.kind with
                      | Schedule.KConst k ->
                          if k < 0 || k >= Array.length regs then
                            failwith "Chls.fsm: constant index out of bounds"
                          else regs.(k)
                      | _ ->
                          let aw = clog2 (Array.length regs) in
                          let addr = truncate g (use o.Schedule.step idx) aw in
                          Builder.mux_list g.b addr (Array.to_list regs))
                in
                Some (Builder.sext g.b v cw)
            | _ -> assert false)
        | Schedule.KStore a ->
            (match o.Schedule.data_deps with
            | [ idx; data ] ->
                let st, ty = array_regs g a in
                let en_base = at_state g (base + o.Schedule.step) in
                let d = truncate g (use o.Schedule.step data) ty.Ast.width in
                (match st with
                | Ram m ->
                    let aw = Builder.mem_addr_width m in
                    let addr = truncate g (use o.Schedule.step idx) aw in
                    Builder.mem_write g.b m ~enable:en_base ~addr ~data:d
                | Rfile regs -> (
                    match ops.(idx).Schedule.kind with
                    | Schedule.KConst k -> request_write g regs.(k) en_base d
                    | _ ->
                        let aw = clog2 (Array.length regs) in
                        let addr = truncate g (use o.Schedule.step idx) aw in
                        Array.iteri
                          (fun e r ->
                            let here =
                              Builder.and_ g.b en_base
                                (Builder.eq g.b addr
                                   (Builder.const g.b ~width:aw e))
                            in
                            request_write g r here d)
                          regs));
                None
            | _ -> assert false)
        | Schedule.KDefVar x ->
            (match o.Schedule.data_deps with
            | [ d ] ->
                let r, ty = var_reg g x in
                request_write g r
                  (at_state g (base + o.Schedule.step))
                  (truncate g (use o.Schedule.step d) ty.Ast.width);
                None
            | _ -> assert false)
      in
      comb.(i) <- v;
      match v with
      | Some sig_ when live_later.(i) ->
          (match o.Schedule.kind with
          | Schedule.KConst _ -> () (* constants are free everywhere *)
          | _ ->
              let en = at_state g (base + o.Schedule.step) in
              let r =
                Builder.reg g.b ~enable:en ~width:(Builder.width sig_)
                  (Printf.sprintf "res%d_%d" base i)
              in
              Builder.connect g.b r sig_;
              res_reg.(i) <- Some r)
      | _ -> ())
    ops

(* ---------------- top-level circuit ---------------- *)

let circuit ~name (t : Schedule.t) =
  let b = Builder.create name in
  let placed, total = place_all t in
  let sw = clog2 (max 2 total) in
  let state = Builder.reg b ~width:sw "state" in
  let p = Axis.Stream.declare_inputs b in
  let g =
    {
      b;
      t;
      sw;
      state;
      var_regs = Hashtbl.create 32;
      elems = Hashtbl.create 8;
      writes = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (x, (ty : Ast.ctype)) ->
      Hashtbl.replace g.var_regs x (Builder.reg b ~width:ty.Ast.width x, ty))
    t.Schedule.proc.Transform.vars;
  List.iter
    (fun (a, (ty : Ast.ctype), len, part) ->
      let st =
        if part then
          Rfile
            (Array.init len (fun i ->
                 Builder.reg b ~width:ty.Ast.width (Printf.sprintf "%s_%d" a i)))
        else Ram (Builder.mem b a ~size:len ~width:ty.Ast.width)
      in
      Hashtbl.replace g.elems a (st, ty))
    t.Schedule.proc.Transform.arrays;

  (* Stall conditions and stream-side outputs. *)
  let captures = ref [] and emits = ref [] in
  let rec scan = function
    | PBlock (blk, base) -> gen_block g blk base
    | PWait _ -> ()
    | PCapture s -> captures := s :: !captures
    | PEmit (s, l) -> emits := (s, l) :: !emits
    | PLoop (_, body) -> List.iter scan body
  in
  List.iter scan placed;

  let or_all = function
    | [] -> Builder.zero b 1
    | x :: rest -> List.fold_left (Builder.or_ b) x rest
  in
  let capture_here = or_all (List.map (at_state g) !captures) in
  let emit_here = or_all (List.map (fun (s, _) -> at_state g s) !emits) in
  let stall_in = Builder.and_ b capture_here (Builder.not_ b p.Axis.Stream.s_valid) in
  let stall_out = Builder.and_ b emit_here (Builder.not_ b p.Axis.Stream.m_ready) in
  let go = Builder.not_ b (Builder.or_ b stall_in stall_out) in

  (* Capture: latch input lanes into __in0..7. *)
  List.iter
    (fun s ->
      let en = Builder.and_ b (at_state g s) p.Axis.Stream.s_valid in
      Array.iteri
        (fun k lane ->
          let r, ty = var_reg g (Printf.sprintf "__in%d" k) in
          request_write g r en (Builder.sext b lane ty.Ast.width))
        p.Axis.Stream.s_data)
    !captures;

  (* Next-state logic: fall-through with loop back-edges (inner wins). *)
  let fallthrough =
    Builder.mux b
      (at_state g (total - 1))
      (Builder.zero b sw)
      (Builder.add b state (Builder.const b ~width:sw 1))
  in
  let loops = List.fold_left collect_loops [] placed in
  let more_of l =
    let r, _ = var_reg g l.l_ivar in
    Builder.ne b r (Builder.const b ~width:(Builder.width r) (l.l_bound - 1))
  in
  let next =
    List.fold_left
      (fun acc l ->
        Builder.mux b
          (Builder.and_ b (at_state g l.l_last) (more_of l))
          (Builder.const b ~width:sw l.l_first)
          acc)
      fallthrough loops
  in
  Builder.connect b state (Builder.mux b go next state);

  (* Iteration counters: at the loop's last state (when every inner loop
     sharing it has finished), advance or reset. *)
  List.iter
    (fun l ->
      let inner_done =
        (* loops strictly nested inside [l] that share its final state *)
        loops
        |> List.filter (fun l' ->
               l'.l_depth > l.l_depth && l'.l_last = l.l_last
               && l'.l_first >= l.l_first)
        |> List.map (fun l' -> Builder.not_ b (more_of l'))
        |> List.fold_left (Builder.and_ b) (Builder.one b 1)
      in
      let en = Builder.and_ b (Builder.and_ b (at_state g l.l_last) go) inner_done in
      let r, _ = var_reg g l.l_ivar in
      let w = Builder.width r in
      let d =
        Builder.mux b (more_of l)
          (Builder.add b r (Builder.const b ~width:w 1))
          (Builder.zero b w)
      in
      request_write g r en d)
    loops;

  (* Emit: m_valid, lanes from __out0..7, m_last on the final iteration of
     the enclosing loop. *)
  let m_valid = emit_here in
  let m_last =
    or_all
      (List.map
         (fun (s, l) ->
           match l with
           | None -> at_state g s
           | Some l -> Builder.and_ b (at_state g s) (Builder.not_ b (more_of l)))
         !emits)
  in
  let m_data =
    Array.init Axis.Stream.lanes (fun k ->
        let r, _ = var_reg g (Printf.sprintf "__out%d" k) in
        truncate g r Axis.Stream.out_width)
  in
  Axis.Stream.expose_outputs b ~s_ready:capture_here ~m_valid ~m_last ~m_data;

  (* Commit all register writes as priority muxes. *)
  Hashtbl.iter
    (fun _ (reg, requests) ->
      let d =
        List.fold_left
          (fun acc (en, v) -> Builder.mux b en v acc)
          reg (List.rev !requests)
      in
      Builder.connect b reg d)
    g.writes;
  (* Registers that were never written still need a connection. *)
  Hashtbl.iter
    (fun _ (r, _) ->
      if not (Hashtbl.mem g.writes (Builder.uid r)) then Builder.connect b r r)
    g.var_regs
  |> ignore;
  Hashtbl.iter
    (fun _ (st, _) ->
      match st with
      | Ram _ -> ()
      | Rfile regs ->
          Array.iter
            (fun r ->
              if not (Hashtbl.mem g.writes (Builder.uid r)) then
                Builder.connect b r r)
            regs)
    g.elems;
  Builder.finalize b

let key (t : Schedule.t) =
  let p = t.Schedule.proc in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (p.Transform.vars, p.Transform.arrays, t.Schedule.regions)
          [ Marshal.No_sharing ]))
