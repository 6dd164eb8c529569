type t = {
  rules : Lang.rule array;
  conflict : bool array array;
  precede : bool array array;
}

(* Whether two ascending lists share an element. *)
let rec intersects a b =
  match (a, b) with
  | x :: a', y :: b' -> x = y || if x < y then intersects a' b else intersects a b'
  | _ -> false

(* Collect [reg == const] facts implied by a guard (conjunctions only). *)
let rec guard_facts acc (e : Lang.expr) =
  match e.Lang.node with
  | Lang.Binop (Hw.Netlist.And, a, b) -> guard_facts (guard_facts acc b) a
  | Lang.Binop (Hw.Netlist.Eq, { node = Read r; _ }, { node = Const k; _ })
  | Lang.Binop (Hw.Netlist.Eq, { node = Const k; _ }, { node = Read r; _ }) ->
      (r.Lang.rid, k) :: acc
  | _ -> acc

(* Syntactic disjointness: both guards test the same register against
   different constants. *)
let guards_disjoint f1 f2 =
  List.exists
    (fun (rid, k1) ->
      List.exists
        (fun (rid', k2) -> rid = rid' && not (Hw.Bits.equal k1 k2))
        f2)
    f1

let analyze ?(options = Options.default) (m : Lang.modul) =
  let ordered =
    match options.Options.urgency with
    | Options.Declared -> m.Lang.rules
    | Options.Reversed -> List.rev m.Lang.rules
  in
  let rules = Array.of_list ordered in
  let n = Array.length rules in
  let reads = Array.map Lang.read_set rules in
  let writes = Array.map Lang.write_set rules in
  let conflict = Array.make_matrix n n false in
  let precede = Array.make_matrix n n false in
  let facts = Array.map (fun (ru : Lang.rule) -> guard_facts [] ru.Lang.guard) rules in
  let disjoint i j =
    options.Options.effort >= 2 && guards_disjoint facts.(i) facts.(j)
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if disjoint i j then ()
      else begin
        let ww = intersects writes.(i) writes.(j) in
        let i_reads_j = intersects reads.(i) writes.(j) in
        let j_reads_i = intersects reads.(j) writes.(i) in
        if ww || (i_reads_j && j_reads_i) then begin
          conflict.(i).(j) <- true;
          conflict.(j).(i) <- true
        end
        else begin
          (* A reader must precede the writer in the sequential witness. *)
          if i_reads_j then precede.(i).(j) <- true;
          if j_reads_i then precede.(j).(i) <- true
        end
      end
    done
  done;
  (* Precedence cycles through three or more mutually compatible rules have
     no sequential witness: break them by marking the lowest-urgency edge
     of each cycle as a conflict.  (Pairs are already acyclic.) *)
  if options.Options.effort >= 1 then begin
    let rec refine () =
      (* Find a cycle among compatible rules via DFS on [precede]. *)
      let color = Array.make n 0 in
      let cycle_edge = ref None in
      let rec dfs u =
        color.(u) <- 1;
        for v = 0 to n - 1 do
          if !cycle_edge = None && precede.(u).(v) && not conflict.(u).(v) then begin
            if color.(v) = 1 then
              (* Cycle: the back edge u -> v closes it; demote that pair to
                 a conflict (urgency arbitration) and re-analyze. *)
              cycle_edge := Some (u, v)
            else if color.(v) = 0 then dfs v
          end
        done;
        color.(u) <- 2
      in
      for u = 0 to n - 1 do
        if color.(u) = 0 && !cycle_edge = None then dfs u
      done;
      match !cycle_edge with
      | Some (a, b) ->
          conflict.(a).(b) <- true;
          conflict.(b).(a) <- true;
          precede.(a).(b) <- false;
          precede.(b).(a) <- false;
          refine ()
      | None -> ()
    in
    refine ()
  end;
  { rules; conflict; precede }

let serial_witness t ~fired =
  let fired = Array.of_list fired in
  let k = Array.length fired in
  let indeg = Array.make k 0 in
  for a = 0 to k - 1 do
    for b = 0 to k - 1 do
      if a <> b && t.precede.(fired.(a)).(fired.(b)) then indeg.(b) <- indeg.(b) + 1
    done
  done;
  let out = ref [] in
  let remaining = ref k in
  let done_ = Array.make k false in
  let progress = ref true in
  while !remaining > 0 && !progress do
    progress := false;
    for a = 0 to k - 1 do
      if (not done_.(a)) && indeg.(a) = 0 then begin
        done_.(a) <- true;
        out := fired.(a) :: !out;
        decr remaining;
        progress := true;
        for b = 0 to k - 1 do
          if (not done_.(b)) && t.precede.(fired.(a)).(fired.(b)) then
            indeg.(b) <- indeg.(b) - 1
        done
      end
    done
  done;
  if !remaining = 0 then Some (List.rev !out) else None
