type options = {
  inline_calls : bool;
  unroll : bool;
  partition : string list;
  call_sync_cycles : int;
}

let default_options =
  { inline_calls = true; unroll = false; partition = []; call_sync_cycles = 8 }

type block = Ast.stmt list

type region =
  | RStraight of block
  | RLoop of { ivar : string; bound : int; body : region list }
  | RWait of int
  | RCapture
  | REmit

type proc = {
  pname : string;
  arrays : (string * Ast.ctype * int * bool) list;
  vars : (string * Ast.ctype) list;
  regions : region list;
}

(* ---------------- expression helpers ---------------- *)

(* arr_map rebinds a formal array name to a view of an actual array:
   name -> (actual, offset, stride). *)
let view_index off stride i =
  let scaled =
    if stride = 1 then i else Ast.Bin (Ast.Mul, i, Ast.Int stride)
  in
  match off with Ast.Int 0 -> scaled | _ -> Ast.Bin (Ast.Add, off, scaled)

let rec subst_expr var_map arr_map (e : Ast.expr) =
  let s = subst_expr var_map arr_map in
  match e with
  | Ast.Int _ -> e
  | Ast.Var x -> (
      match List.assoc_opt x var_map with Some e' -> e' | None -> e)
  | Ast.Load (a, i) -> (
      match List.assoc_opt a arr_map with
      | Some (actual, off, stride) ->
          Ast.Load (actual, view_index off stride (s i))
      | None -> Ast.Load (a, s i))
  | Ast.Bin (op, x, y) -> Ast.Bin (op, s x, s y)
  | Ast.Neg x -> Ast.Neg (s x)
  | Ast.Cond (c, t, f) -> Ast.Cond (s c, s t, s f)
  | Ast.Call (f, args) -> Ast.Call (f, List.map s args)

let rec subst_stmt var_map arr_map (st : Ast.stmt) =
  let se = subst_expr var_map arr_map in
  match st with
  | Ast.Assign (x, e) ->
      let x' =
        match List.assoc_opt x var_map with
        | Some (Ast.Var y) -> y
        | Some _ -> failwith "Chls: assignment to substituted expression"
        | None -> x
      in
      Ast.Assign (x', se e)
  | Ast.Store (a, i, e) -> (
      match List.assoc_opt a arr_map with
      | Some (actual, off, stride) ->
          Ast.Store (actual, view_index off stride (se i), se e)
      | None -> Ast.Store (a, se i, se e))
  | Ast.If (c, th, el) ->
      Ast.If
        (se c, List.map (subst_stmt var_map arr_map) th,
         List.map (subst_stmt var_map arr_map) el)
  | Ast.For { ivar; bound; body } ->
      (* The induction variable itself may have been renamed (a loop inside
         an inlined callee). *)
      let ivar =
        match List.assoc_opt ivar var_map with
        | Some (Ast.Var y) -> y
        | Some _ -> failwith "Chls: loop variable substituted by an expression"
        | None -> ivar
      in
      Ast.For { ivar; bound; body = List.map (subst_stmt var_map arr_map) body }
  | Ast.CallStmt (f, args) ->
      Ast.CallStmt
        ( f,
          List.map
            (function
              | Ast.AExpr e -> Ast.AExpr (se e)
              | Ast.AArray a -> (
                  match List.assoc_opt a arr_map with
                  | Some (actual, off, stride) -> Ast.AView (actual, off, stride)
                  | None -> Ast.AArray a)
              | Ast.AView (a, off, stride) -> (
                  match List.assoc_opt a arr_map with
                  | Some (actual, off', stride') ->
                      (* compose views: a[off + i*stride] over actual *)
                      Ast.AView
                        ( actual,
                          view_index off' stride' (se off),
                          stride * stride' )
                  | None -> Ast.AView (a, se off, stride)))
            args )
  | Ast.Return e -> Ast.Return (se e)

(* Constant folding, used after unrolling substitutes the loop variable. *)
let rec fold (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Var _ -> e
  | Ast.Load (a, i) -> Ast.Load (a, fold i)
  | Ast.Bin (op, x, y) -> (
      match (fold x, fold y) with
      | Ast.Int a, Ast.Int b -> Ast.Int (Ast.eval_binop op a b)
      | x', y' -> Ast.Bin (op, x', y'))
  | Ast.Neg x -> (
      match fold x with Ast.Int v -> Ast.Int (-v) | x' -> Ast.Neg x')
  | Ast.Cond (c, t, f) -> (
      match fold c with
      | Ast.Int v -> if v <> 0 then fold t else fold f
      | c' -> Ast.Cond (c', fold t, fold f))
  | Ast.Call (f, args) -> Ast.Call (f, List.map fold args)

let rec fold_stmt (st : Ast.stmt) =
  match st with
  | Ast.Assign (x, e) -> Ast.Assign (x, fold e)
  | Ast.Store (a, i, e) -> Ast.Store (a, fold i, fold e)
  | Ast.If (c, th, el) ->
      Ast.If (fold c, List.map fold_stmt th, List.map fold_stmt el)
  | Ast.For { ivar; bound; body } ->
      Ast.For { ivar; bound; body = List.map fold_stmt body }
  | Ast.CallStmt (f, args) ->
      Ast.CallStmt
        ( f,
          List.map
            (function
              | Ast.AExpr e -> Ast.AExpr (fold e)
              | Ast.AArray a -> Ast.AArray a
              | Ast.AView (a, off, stride) -> Ast.AView (a, fold off, stride))
            args )
  | Ast.Return e -> Ast.Return (fold e)

(* ---------------- value-call inlining (iclip and friends) ---------------- *)

(* Per-call-site rename counter.  Domain-local (circuits are built on the
   evaluation pool, and a plain global would race across domains) and
   reset at every [lower] entry, so a program lowers to the same names no
   matter which domain builds it or in what order. *)
let fresh_counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh base =
  let c = Domain.DLS.get fresh_counter in
  incr c;
  Printf.sprintf "%s__%d" base !c

(* Inline a value-returning function to an expression.  The callee must be
   a single [return e] over its scalar parameters. *)
let inline_value_call (p : Ast.program) fn args =
  let f = Ast.find_func p fn in
  match f.Ast.body with
  | [ Ast.Return e ] ->
      let var_map =
        List.map2
          (fun prm arg ->
            match prm with
            | Ast.PScalar (x, _) -> (x, arg)
            | Ast.PArray _ -> failwith "Chls: array arg in value call")
          f.Ast.params args
      in
      subst_expr var_map [] e
  | _ -> failwith (Printf.sprintf "Chls: %s is not a single-return function" fn)

let rec expand_calls p (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Var _ -> e
  | Ast.Load (a, i) -> Ast.Load (a, expand_calls p i)
  | Ast.Bin (op, x, y) -> Ast.Bin (op, expand_calls p x, expand_calls p y)
  | Ast.Neg x -> Ast.Neg (expand_calls p x)
  | Ast.Cond (c, t, f) ->
      Ast.Cond (expand_calls p c, expand_calls p t, expand_calls p f)
  | Ast.Call (fn, args) ->
      let args = List.map (expand_calls p) args in
      expand_calls p (inline_value_call p fn args)

(* ---------------- if-conversion ---------------- *)

let rec if_convert (st : Ast.stmt) : Ast.stmt list =
  match st with
  | Ast.Assign _ | Ast.Store _ -> [ st ]
  | Ast.For { ivar; bound; body } ->
      [ Ast.For { ivar; bound; body = List.concat_map if_convert body } ]
  | Ast.If (c, th, el) ->
      let th = List.concat_map if_convert th in
      let el = List.concat_map if_convert el in
      let predicate keep sts =
        List.map
          (fun s ->
            match s with
            | Ast.Assign (x, e) ->
                Ast.Assign
                  (x, if keep then Ast.Cond (c, e, Ast.Var x)
                      else Ast.Cond (c, Ast.Var x, e))
            | Ast.Store (a, i, e) ->
                Ast.Store
                  ( a,
                    i,
                    if keep then Ast.Cond (c, e, Ast.Load (a, i))
                    else Ast.Cond (c, Ast.Load (a, i), e) )
            | Ast.If _ | Ast.For _ | Ast.CallStmt _ | Ast.Return _ ->
                failwith "Chls: unsupported statement under a conditional")
          sts
      in
      predicate true th @ predicate false el
  | Ast.CallStmt _ | Ast.Return _ -> [ st ]

(* ---------------- statement-call stitching ---------------- *)

type ctx = {
  prog : Ast.program;
  opts : options;
  mutable all_vars : (string * Ast.ctype) list;
  mutable all_arrays : (string * Ast.ctype * int * bool) list;
}

let add_var ctx x t =
  if not (List.mem_assoc x ctx.all_vars) then
    ctx.all_vars <- ctx.all_vars @ [ (x, t) ]

let add_array ctx (a, t, n) =
  let partitioned = List.mem a ctx.opts.partition in
  if not (List.exists (fun (a', _, _, _) -> a' = a) ctx.all_arrays) then
    ctx.all_arrays <- ctx.all_arrays @ [ (a, t, n, partitioned) ]

(* Append a region to a reversed region list, merging adjacent
   straight-line blocks.  While a list is built its blocks hold their
   statements newest first, so a merge costs the new statements only;
   [close] puts a finished block in order. *)
let append regions r =
  match (r, regions) with
  | RStraight b, RStraight b' :: rest -> RStraight (List.rev_append b b') :: rest
  | RStraight b, _ -> RStraight (List.rev b) :: regions
  | _ -> r :: regions

let close = function RStraight b -> RStraight (List.rev b) | r -> r

let clean_stmt prog s =
  match s with
  | Ast.Assign (x, e) -> Ast.Assign (x, expand_calls prog e)
  | Ast.Store (a, i, e) ->
      Ast.Store (a, expand_calls prog i, expand_calls prog e)
  | Ast.If _ | Ast.For _ | Ast.CallStmt _ | Ast.Return _ ->
      failwith "Chls: expected a simple statement"

(* Emit statements of one function body into a (reversed) region list. *)
let rec emit_stmts ctx var_map arr_map acc (stmts : Ast.stmt list) =
  List.fold_left (fun acc s -> emit_stmt ctx var_map arr_map acc s) acc stmts

and emit_stmt ctx var_map arr_map acc (st : Ast.stmt) =
  match subst_stmt var_map arr_map st with
  | (Ast.Assign _ | Ast.Store _) as s ->
      append acc (RStraight [ clean_stmt ctx.prog s ])
  | Ast.If _ as s ->
      List.fold_left
        (fun acc s' -> append acc (RStraight [ clean_stmt ctx.prog s' ]))
        acc (if_convert s)
  | Ast.For { ivar; bound; body } ->
      if ctx.opts.unroll then
        let acc = ref acc in
        for i = 0 to bound - 1 do
          List.iter
            (fun s ->
              acc := emit_stmt ctx ((ivar, Ast.Int i) :: var_map) arr_map !acc s)
            body
        done;
        !acc
      else begin
        add_var ctx ivar Ast.int_t;
        let inner = List.rev_map close (emit_stmts ctx var_map arr_map [] body) in
        RLoop { ivar; bound; body = inner } :: acc
      end
  | Ast.CallStmt (fn, args) ->
      let f = Ast.find_func ctx.prog fn in
      let acc =
        if ctx.opts.inline_calls then acc
        else append acc (RWait ctx.opts.call_sync_cycles)
      in
      (* Per-call-site renaming of callee locals/arrays. *)
      let suffix = fresh fn in
      let rename x = x ^ "_" ^ suffix in
      let (vmap, amap), acc =
        List.fold_left2
          (fun ((vm, am), acc) prm arg ->
            match (prm, arg) with
            | Ast.PScalar (x, t), Ast.AExpr e ->
                let x' = rename x in
                add_var ctx x' t;
                let acc =
                  append acc
                    (RStraight [ Ast.Assign (x', expand_calls ctx.prog e) ])
                in
                (((x, Ast.Var x') :: vm, am), acc)
            | Ast.PArray (a, _, _), Ast.AArray actual ->
                ((vm, (a, (actual, Ast.Int 0, 1)) :: am), acc)
            | Ast.PArray (a, _, _), Ast.AView (actual, off, stride) ->
                ((vm, (a, (actual, off, stride)) :: am), acc)
            | Ast.PScalar _, (Ast.AArray _ | Ast.AView _)
            | Ast.PArray _, Ast.AExpr _ ->
                failwith "Chls: argument kind mismatch")
          (([], []), acc)
          f.Ast.params args
      in
      List.iter (fun (x, t) -> add_var ctx (rename x) t) f.Ast.locals;
      List.iter (fun (a, t, n) -> add_array ctx (rename a, t, n)) f.Ast.arrays;
      let vmap =
        vmap @ List.map (fun (x, _) -> (x, Ast.Var (rename x))) f.Ast.locals
      in
      let amap =
        amap
        @ List.map (fun (a, _, _) -> (a, (rename a, Ast.Int 0, 1))) f.Ast.arrays
      in
      let acc = emit_stmts ctx vmap amap acc f.Ast.body in
      if ctx.opts.inline_calls then acc
      else append acc (RWait ctx.opts.call_sync_cycles)
  | Ast.Return _ -> failwith "Chls: top function must not return a value"

let rec fold_region (r : region) =
  match r with
  | RStraight b -> RStraight (List.map fold_stmt b)
  | RLoop l -> RLoop { l with body = List.map fold_region l.body }
  | (RWait _ | RCapture | REmit) as r -> r

let lower opts (p : Ast.program) =
  Domain.DLS.get fresh_counter := 0;
  let top = Ast.find_func p p.Ast.top in
  let ctx = { prog = p; opts; all_vars = []; all_arrays = [] } in
  List.iter
    (fun prm ->
      match prm with
      | Ast.PScalar (x, t) -> add_var ctx x t
      | Ast.PArray (a, t, n) -> add_array ctx (a, t, n))
    top.Ast.params;
  List.iter (fun (x, t) -> add_var ctx x t) top.Ast.locals;
  List.iter (fun (a, t, n) -> add_array ctx (a, t, n)) top.Ast.arrays;
  let regions =
    List.rev_map
      (fun r -> fold_region (close r))
      (emit_stmts ctx [] [] [] top.Ast.body)
  in
  {
    pname = top.Ast.fname;
    arrays = ctx.all_arrays;
    vars = ctx.all_vars;
    regions;
  }
