open Hw

type state = { regs : Bits.t array; inputs : (string * Bits.t) list }

let initial_state (m : Lang.modul) =
  let n = List.fold_left (fun acc r -> max acc (r.Lang.rid + 1)) 0 m.Lang.regs in
  let regs = Array.make n (Bits.zero 1) in
  List.iter
    (fun (r : Lang.reg) ->
      regs.(r.Lang.rid) <- Bits.create ~width:r.Lang.rwidth r.Lang.rinit)
    m.Lang.regs;
  let inputs = List.map (fun (nm, w) -> (nm, Bits.zero w)) m.Lang.inputs in
  { regs; inputs }

let with_inputs st values =
  {
    st with
    inputs =
      List.map
        (fun (nm, old) ->
          match List.assoc_opt nm values with
          | Some v -> (nm, Bits.create ~width:(Bits.width old) v)
          | None -> (nm, old))
        st.inputs;
  }

let rec eval st (e : Lang.expr) =
  match e.Lang.node with
  | Lang.Const k -> k
  | Lang.Read r -> st.regs.(r.Lang.rid)
  | Lang.In (name, _) -> List.assoc name st.inputs
  | Lang.Unop (Netlist.Not, x) -> Bits.lognot (eval st x)
  | Lang.Unop (Netlist.Neg, x) -> Bits.neg (eval st x)
  | Lang.Binop (op, x, y) -> (
      let a = eval st x and bv = eval st y in
      match op with
      | Netlist.Add -> Bits.add a bv
      | Netlist.Sub -> Bits.sub a bv
      | Netlist.Mul -> Bits.mul a bv
      | Netlist.And -> Bits.logand a bv
      | Netlist.Or -> Bits.logor a bv
      | Netlist.Xor -> Bits.logxor a bv
      | Netlist.Shl -> Bits.shift_left a bv
      | Netlist.Shr -> Bits.shift_right_logical a bv
      | Netlist.Sra -> Bits.shift_right_arith a bv
      | Netlist.Eq -> Bits.eq a bv
      | Netlist.Ne -> Bits.ne a bv
      | Netlist.Lt s -> Bits.lt ~signed:(s = Netlist.Signed) a bv
      | Netlist.Le s -> Bits.le ~signed:(s = Netlist.Signed) a bv)
  | Lang.Mux (s, x, y) ->
      if Bits.to_int (eval st s) = 1 then eval st x else eval st y
  | Lang.Slice (x, hi, lo) -> Bits.slice (eval st x) ~hi ~lo
  | Lang.Uext (x, w) -> Bits.uext (eval st x) w
  | Lang.Sext (x, w) -> Bits.sext (eval st x) w

let rule_enabled st (ru : Lang.rule) = Bits.to_int (eval st ru.Lang.guard) = 1

let apply_rule st (ru : Lang.rule) =
  let updates =
    List.filter_map
      (fun (a : Lang.action) ->
        let enabled =
          match a.Lang.when_ with
          | None -> true
          | Some w -> Bits.to_int (eval st w) = 1
        in
        if enabled then Some (a.Lang.target.Lang.rid, eval st a.Lang.value)
        else None)
      ru.Lang.actions
  in
  let regs = Array.copy st.regs in
  List.iter (fun (rid, v) -> regs.(rid) <- v) updates;
  { st with regs }

let step_one st (m : Lang.modul) =
  match List.find_opt (rule_enabled st) m.Lang.rules with
  | Some ru -> Some (apply_rule st ru)
  | None -> None

let fired_set st (sched : Sched.t) =
  let n = Array.length sched.Sched.rules in
  let fired = ref [] in
  for i = 0 to n - 1 do
    if rule_enabled st sched.Sched.rules.(i) then
      let blocked =
        List.exists (fun j -> sched.Sched.conflict.(i).(j)) !fired
      in
      if not blocked then fired := i :: !fired
  done;
  List.rev !fired

let step_parallel st (sched : Sched.t) =
  let fired = fired_set st sched in
  let regs = Array.copy st.regs in
  List.iter
    (fun i ->
      let ru = sched.Sched.rules.(i) in
      List.iter
        (fun (a : Lang.action) ->
          let enabled =
            match a.Lang.when_ with
            | None -> true
            | Some w -> Bits.to_int (eval st w) = 1
          in
          if enabled then regs.(a.Lang.target.Lang.rid) <- eval st a.Lang.value)
        ru.Lang.actions)
    fired;
  { st with regs }

let serializable_step st (sched : Sched.t) =
  let fired = fired_set st sched in
  let parallel = step_parallel st sched in
  match Sched.serial_witness sched ~fired with
  | None -> Error "no sequential witness for the fired set"
  | Some order ->
      let sequential =
        List.fold_left
          (fun acc i ->
            let ru = sched.Sched.rules.(i) in
            if not (rule_enabled acc ru) then acc else apply_rule acc ru)
          st order
      in
      if sequential.regs = parallel.regs then Ok parallel
      else
        let offending =
          let rec find i =
            if i >= Array.length parallel.regs then "?"
            else if not (Bits.equal parallel.regs.(i) sequential.regs.(i)) then
              string_of_int i
            else find (i + 1)
          in
          find 0
        in
        Error
          (Printf.sprintf
             "parallel and sequential execution disagree on register %s"
             offending)

let outputs st (m : Lang.modul) =
  List.map (fun (nm, e) -> (nm, eval st e)) m.Lang.outputs
