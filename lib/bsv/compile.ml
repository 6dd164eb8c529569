open Hw

let compile_with_schedule ?(options = Options.default) (m : Lang.modul) =
  let sched = Sched.analyze ~options m in
  let b = Builder.create m.Lang.mod_name in
  let inputs = Hashtbl.create 8 in
  List.iter
    (fun (name, w) -> Hashtbl.replace inputs name (Builder.input b name w))
    m.Lang.inputs;
  let nregs =
    List.fold_left (fun acc r -> max acc (r.Lang.rid + 1)) 0 m.Lang.regs
  in
  let regq = Array.make nregs None in
  List.iter
    (fun (r : Lang.reg) ->
      regq.(r.Lang.rid) <-
        Some (Builder.reg b ~init:r.Lang.rinit ~width:r.Lang.rwidth r.Lang.rname))
    m.Lang.regs;
  let reg_sig rid =
    match regq.(rid) with Some s -> s | None -> failwith "unknown register"
  in
  (* One table for the whole module: a first visit issues the same
     [Builder] calls in the same order as a tree walk would, and a tree
     walk's revisits would only hit [Builder]'s hash-consing, so the
     netlist is the same node for node. *)
  let expr =
    Lang.memo (fun expr (e : Lang.expr) ->
        match e.Lang.node with
        | Lang.Const k -> Builder.constb b k
        | Lang.Read r -> reg_sig r.Lang.rid
        | Lang.In (name, _) -> Hashtbl.find inputs name
        | Lang.Unop (Netlist.Not, x) -> Builder.not_ b (expr x)
        | Lang.Unop (Netlist.Neg, x) -> Builder.neg b (expr x)
        | Lang.Binop (op, x, y) ->
            let sx = expr x in
            Builder.binop b op sx (expr y)
        | Lang.Mux (s, x, y) -> Builder.mux b (expr s) (expr x) (expr y)
        | Lang.Slice (x, hi, lo) -> Builder.slice b (expr x) ~hi ~lo
        | Lang.Uext (x, w) -> Builder.uext b (expr x) w
        | Lang.Sext (x, w) -> Builder.sext b (expr x) w)
  in
  let n = Array.length sched.Sched.rules in
  let can_fire =
    Array.map
      (fun (ru : Lang.rule) ->
        let g = expr ru.Lang.guard in
        if options.Options.aggressive_conditions then
          (* The rule is not worth firing if every action is disabled. *)
          let any_enabled =
            List.fold_left
              (fun acc (a : Lang.action) ->
                let en =
                  match a.Lang.when_ with
                  | None -> Builder.one b 1
                  | Some w -> expr w
                in
                match acc with
                | None -> Some en
                | Some x -> Some (Builder.or_ b x en))
              None ru.Lang.actions
          in
          match any_enabled with
          | None -> g
          | Some e -> Builder.and_ b g e
        else g)
      sched.Sched.rules
  in
  let will_fire = Array.make n (Builder.zero b 1) in
  for i = 0 to n - 1 do
    let blockers = ref [] in
    for j = 0 to i - 1 do
      if sched.Sched.conflict.(i).(j) then blockers := will_fire.(j) :: !blockers
    done;
    let blocked =
      List.fold_left
        (fun acc w ->
          match acc with None -> Some w | Some x -> Some (Builder.or_ b x w))
        None !blockers
    in
    will_fire.(i) <-
      (match blocked with
      | None -> can_fire.(i)
      | Some x -> Builder.and_ b can_fire.(i) (Builder.not_ b x));
    ignore
      (Builder.name b will_fire.(i)
         ("WILL_FIRE_" ^ sched.Sched.rules.(i).Lang.rule_name))
  done;
  (* Register write networks: each register's writers, in rule order and
     then action order. *)
  let actions = Array.make nregs [] in
  for i = n - 1 downto 0 do
    List.iter
      (fun (a : Lang.action) ->
        let rid = a.Lang.target.Lang.rid in
        if rid < nregs then actions.(rid) <- (i, a) :: actions.(rid))
      (List.rev sched.Sched.rules.(i).Lang.actions)
  done;
  List.iter
    (fun (r : Lang.reg) ->
      let writers =
        List.map
          (fun (i, (a : Lang.action)) ->
            let en =
              match a.Lang.when_ with
              | None -> will_fire.(i)
              | Some w -> Builder.and_ b will_fire.(i) (expr w)
            in
            (en, expr a.Lang.value))
          actions.(r.Lang.rid)
      in
      match writers with
      | [] -> Builder.connect b (reg_sig r.Lang.rid) (reg_sig r.Lang.rid)
      | _ ->
          let q = reg_sig r.Lang.rid in
          let data =
            match options.Options.mux_style with
            | Options.Priority ->
                List.fold_left
                  (fun acc (en, v) -> Builder.mux b en v acc)
                  q (List.rev writers)
            | Options.One_hot when List.length writers = 1 ->
                (* A single writer is a plain load-enable mux either way. *)
                let en, v = List.hd writers in
                Builder.mux b en v q
            | Options.One_hot ->
                (* AND-OR network: writers are mutually exclusive by
                   construction (conflicting rules never co-fire). *)
                let any_en =
                  List.fold_left
                    (fun acc (en, _) -> Builder.or_ b acc en)
                    (Builder.zero b 1) writers
                in
                let masked (en, v) =
                  Builder.and_ b (Builder.sext b en r.Lang.rwidth) v
                in
                List.fold_left
                  (fun acc w -> Builder.or_ b acc (masked w))
                  (Builder.and_ b
                     (Builder.sext b (Builder.not_ b any_en) r.Lang.rwidth)
                     q)
                  writers
          in
          Builder.connect b q data)
    m.Lang.regs;
  List.iter (fun (name, e) -> Builder.output b name (expr e)) m.Lang.outputs;
  (Builder.finalize b, sched)

let compile ?options m = fst (compile_with_schedule ?options m)
