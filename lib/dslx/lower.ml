open Hw

(* Elaboration is written once against an abstract carrier of bit-vector
   values, then instantiated with hardware signals (circuit construction)
   and with Bits.t (the reference interpreter). *)
module type CARRIER = sig
  type s

  val width : s -> int
  val const : width:int -> int -> s
  val bin : Netlist.binop -> s -> s -> s
  val not_ : s -> s
  val neg : s -> s
  val mux : s -> s -> s -> s
  val uext : s -> int -> s
  val sext : s -> int -> s
end

module Eval (C : CARRIER) = struct
  type value = Static of int | Sig of C.s | Arr of value array

  let as_sig = function
    | Sig s -> s
    | Static _ -> failwith "Dslx: loop index used as data (cast it first)"
    | Arr _ -> failwith "Dslx: array used as scalar"

  let as_arr = function
    | Arr a -> a
    | Static _ | Sig _ -> failwith "Dslx: scalar used as array"

  let static_bin op x y =
    let b v = if v then 1 else 0 in
    match (op : Netlist.binop) with
    | Netlist.Add -> x + y
    | Netlist.Sub -> x - y
    | Netlist.Mul -> x * y
    | Netlist.And -> x land y
    | Netlist.Or -> x lor y
    | Netlist.Xor -> x lxor y
    | Netlist.Shl -> x lsl y
    | Netlist.Shr | Netlist.Sra -> x asr y
    | Netlist.Eq -> b (x = y)
    | Netlist.Ne -> b (x <> y)
    | Netlist.Lt _ -> b (x < y)
    | Netlist.Le _ -> b (x <= y)

  (* Indices like [r*8 + c] over loop variables are compile-time constants
     in DSLX; evaluate them statically before falling back to hardware. *)
  let rec static_eval env (e : Ir.expr) =
    match e with
    | Ir.Lit { value; _ } -> Some value
    | Ir.Var x -> (
        match List.assoc_opt x env with
        | Some (Static i) -> Some i
        | Some (Sig _ | Arr _) | None -> None)
    | Ir.Bin (op, a, b) -> (
        match (static_eval env a, static_eval env b) with
        | Some x, Some y -> Some (static_bin op x y)
        | _ -> None)
    | Ir.Not _ | Ir.Neg _ | Ir.Cast _ | Ir.If _ | Ir.Index _ | Ir.Update _
    | Ir.ArrayLit _ | Ir.Let _ | Ir.Call _ | Ir.For _ ->
        None

  let rec eval (p : Ir.program) env (e : Ir.expr) : value =
    match e with
    | Ir.Var x -> (
        match List.assoc_opt x env with
        | Some v -> v
        | None -> failwith (Printf.sprintf "Dslx: unbound %s" x))
    | Ir.Lit { width; value } -> Sig (C.const ~width value)
    | Ir.Bin (op, a, b) -> (
        match (eval p env a, eval p env b) with
        | Static x, Static y -> Static (static_bin op x y)
        | va, vb -> Sig (C.bin op (as_sig va) (as_sig vb)))
    | Ir.Not a -> Sig (C.not_ (as_sig (eval p env a)))
    | Ir.Neg a -> Sig (C.neg (as_sig (eval p env a)))
    | Ir.Cast (a, w, sg) -> (
        match eval p env a with
        | Static v -> Sig (C.const ~width:w v)
        | v ->
            let s = as_sig v in
            Sig ((match sg with `Signed -> C.sext | `Unsigned -> C.uext) s w))
    | Ir.If (c, t, f) -> (
        match eval p env c with
        | Static v -> if v <> 0 then eval p env t else eval p env f
        | vc ->
            let vt = eval p env t and vf = eval p env f in
            mux_value (as_sig vc) vt vf)
    | Ir.Index (arr, idx) -> (
        let a = as_arr (eval p env arr) in
        match
          match static_eval env idx with
          | Some i -> Static i
          | None -> eval p env idx
        with
        | Static i ->
            if i < 0 || i >= Array.length a then
              failwith "Dslx: static index out of bounds"
            else a.(i)
        | vi ->
            let si = as_sig vi in
            let n = Array.length a in
            let rec pick i =
              if i = n - 1 then a.(i)
              else
                let here = C.bin Netlist.Eq si (C.const ~width:(C.width si) i) in
                mux_value here a.(i) (pick (i + 1))
            in
            pick 0)
    | Ir.Update (arr, idx, v) -> (
        let a = Array.copy (as_arr (eval p env arr)) in
        let nv = eval p env v in
        match
          match static_eval env idx with
          | Some i -> Static i
          | None -> eval p env idx
        with
        | Static i ->
            if i < 0 || i >= Array.length a then
              failwith "Dslx: static update index out of bounds";
            a.(i) <- nv;
            Arr a
        | vi ->
            let si = as_sig vi in
            Arr
              (Array.mapi
                 (fun i old ->
                   let here =
                     C.bin Netlist.Eq si (C.const ~width:(C.width si) i)
                   in
                   mux_value here nv old)
                 a))
    | Ir.ArrayLit es -> Arr (Array.of_list (List.map (eval p env) es))
    | Ir.Let (x, v, body) -> eval p ((x, eval p env v) :: env) body
    | Ir.Call (name, args) ->
        let f = Ir.find_fn p name in
        let bound =
          List.map2
            (fun (prm : Ir.param) arg -> (prm.Ir.pname, eval p env arg))
            f.Ir.params args
        in
        eval p bound f.Ir.body
    | Ir.For { var; count; acc; init; body } ->
        let rec go i acc_v =
          if i = count then acc_v
          else
            let env' = (var, Static i) :: (acc, acc_v) :: env in
            go (i + 1) (eval p env' body)
        in
        go 0 (eval p env init)

  and mux_value c t f =
    match (t, f) with
    | Arr ta, Arr fa ->
        if Array.length ta <> Array.length fa then
          failwith "Dslx: mux over arrays of different lengths";
        Arr (Array.init (Array.length ta) (fun i -> mux_value c ta.(i) fa.(i)))
    | t, f -> Sig (C.mux c (as_sig t) (as_sig f))

  (* Flatten a typed value to scalar leaves, depth-first. *)
  let rec flatten v =
    match v with
    | Static _ -> failwith "Dslx: static value in result"
    | Sig s -> [ s ]
    | Arr a -> List.concat_map flatten (Array.to_list a)
end

let rec flat_ports prefix (ty : Ir.ty) =
  match ty with
  | Ir.Bits w -> [ (prefix, w) ]
  | Ir.Array (elt, n) ->
      List.concat
        (List.init n (fun i -> flat_ports (Printf.sprintf "%s_%d" prefix i) elt))

let circuit (p : Ir.program) =
  let top = Ir.find_fn p p.Ir.top in
  let b = Builder.create p.Ir.top in
  let module HC = struct
    type s = Builder.s

    let width = Builder.width
    let const ~width v = Builder.const b ~width v

    let bin = Builder.binop b
    let not_ = Builder.not_ b
    let neg = Builder.neg b
    let mux = Builder.mux b
    let uext = Builder.uext b
    let sext = Builder.sext b
  end in
  let module E = Eval (HC) in
  (* Build parameter values from flattened input ports. *)
  let rec param_value prefix (ty : Ir.ty) : E.value =
    match ty with
    | Ir.Bits w -> E.Sig (Builder.input b prefix w)
    | Ir.Array (elt, n) ->
        E.Arr
          (Array.init n (fun i ->
               param_value (Printf.sprintf "%s_%d" prefix i) elt))
  in
  let env =
    List.map
      (fun (prm : Ir.param) -> (prm.Ir.pname, param_value prm.Ir.pname prm.Ir.pty))
      top.Ir.params
  in
  let result = E.eval p env top.Ir.body in
  let leaves = E.flatten result in
  let names = flat_ports "out" top.Ir.ret in
  List.iter2 (fun (name, _) s -> Builder.output b name s) names leaves;
  Builder.finalize b

let interpret (p : Ir.program) inputs =
  let module SC = struct
    type s = Bits.t

    let width = Bits.width
    let const ~width v = Bits.create ~width v

    let bin (op : Netlist.binop) x y =
      match op with
      | Netlist.Add -> Bits.add x y
      | Netlist.Sub -> Bits.sub x y
      | Netlist.Mul -> Bits.mul x y
      | Netlist.And -> Bits.logand x y
      | Netlist.Or -> Bits.logor x y
      | Netlist.Xor -> Bits.logxor x y
      | Netlist.Shl -> Bits.shift_left x y
      | Netlist.Shr -> Bits.shift_right_logical x y
      | Netlist.Sra -> Bits.shift_right_arith x y
      | Netlist.Eq -> Bits.eq x y
      | Netlist.Ne -> Bits.ne x y
      | Netlist.Lt sg -> Bits.lt ~signed:(sg = Netlist.Signed) x y
      | Netlist.Le sg -> Bits.le ~signed:(sg = Netlist.Signed) x y

    let not_ = Bits.lognot
    let neg = Bits.neg
    let mux c t f = if Bits.to_int c = 1 then t else f
    let uext = Bits.uext
    let sext = Bits.sext
  end in
  let module E = Eval (SC) in
  let top = Ir.find_fn p p.Ir.top in
  let flat_params =
    List.concat_map
      (fun (prm : Ir.param) -> flat_ports prm.Ir.pname prm.Ir.pty)
      top.Ir.params
  in
  if List.length flat_params <> List.length inputs then
    failwith "Dslx.interpret: input count mismatch";
  let rec build_value ty vals =
    match (ty : Ir.ty) with
    | Ir.Bits w -> (
        match vals with
        | v :: rest -> (E.Sig (Bits.create ~width:w v), rest)
        | [] -> failwith "Dslx.interpret: not enough inputs")
    | Ir.Array (elt, n) ->
        let items = Array.make n (E.Static 0) in
        let rest = ref vals in
        for i = 0 to n - 1 do
          let v, r = build_value elt !rest in
          items.(i) <- v;
          rest := r
        done;
        (E.Arr items, !rest)
  in
  let env, remaining =
    List.fold_left
      (fun (env, vals) (prm : Ir.param) ->
        let v, rest = build_value prm.Ir.pty vals in
        ((prm.Ir.pname, v) :: env, rest))
      ([], inputs) top.Ir.params
  in
  assert (remaining = []);
  let result = E.eval p (List.rev env) top.Ir.body in
  List.map Bits.to_int (E.flatten result)
