type objective = Quality | Throughput | Area

let objective_name = function
  | Quality -> "quality"
  | Throughput -> "throughput"
  | Area -> "area"

let parse_objective s =
  match String.lowercase_ascii s with
  | "quality" | "q" -> Ok Quality
  | "throughput" | "perf" | "p" -> Ok Throughput
  | "area" | "a" -> Ok Area
  | other ->
      Error
        (Printf.sprintf
           "unknown objective %S (valid objectives: quality, throughput, area)"
           other)

let score objective (m : Core.Metrics.measured) =
  match objective with
  | Quality -> Core.Metrics.quality m
  | Throughput -> m.Core.Metrics.throughput_mops
  | Area -> -.float_of_int m.Core.Metrics.area

type evaluated = {
  ev_candidate : Space.candidate;
  ev_outcome : (Core.Metrics.measured, Core.Flow.error) result;
}

type stats = {
  st_space : int;
  st_evaluated : int;
  st_cache_hits : int;
  st_rounds : int;
  st_failures : int;
  st_frontier : int;
}

type result = {
  res_strategy : Strategy.t;
  res_objective : objective;
  res_seed : int;
  res_budget : int option;
  res_spaces : Space.t list;
  res_evaluated : evaluated list;
  res_frontier : Pareto.point list;
  res_stats : stats;
}

let point_of cand (m : Core.Metrics.measured) =
  {
    Pareto.pt_key = Space.key cand;
    pt_area = m.Core.Metrics.area;
    pt_perf = m.Core.Metrics.throughput_mops;
  }

(* Candidates are measured at the Fig. 1 stream length, so the engine
   shares the sweep artifacts' memo cache entry for entry — an exhaustive
   run after [fig1] is pure cache hits, and vice versa. *)
let matrices = 3

(* ------------------------------------------------------------------ *)
(* Search state                                                         *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable budget_left : int;
  mutable cache_hits : int;
  mutable rounds : int;
  mutable order : evaluated list;  (* reverse evaluation order *)
  visited : (string, evaluated) Hashtbl.t;
}

(* Measure one batch of candidates on the domain pool: drop the ones this
   run already visited, truncate to the remaining budget, count how many
   are warm in the memo cache, and record every outcome — a failed
   candidate as its typed error.  One call = one "round" trace span. *)
let evaluate_batch st ?jobs ~spec cands =
  let fresh, _ =
    List.fold_left
      (fun (acc, seen) c ->
        let k = Space.key c in
        if Hashtbl.mem st.visited k || List.mem k seen then (acc, seen)
        else (c :: acc, k :: seen))
      ([], []) cands
  in
  let fresh = List.rev fresh in
  let fresh =
    List.filteri (fun i _ -> i < st.budget_left) fresh
  in
  if fresh = [] then ()
  else
    Core.Trace.with_span ~design:"dse" ~stage:"round" (fun () ->
        let hits =
          List.length
            (List.filter
               (fun c ->
                 Core.Evaluate.is_cached ~matrices ~spec c.Space.cand_design)
               fresh)
        in
        let designs = List.map (fun c -> c.Space.cand_design) fresh in
        let outcomes =
          Core.Evaluate.measure_all_result ?jobs ~matrices ~spec designs
        in
        st.budget_left <- st.budget_left - List.length fresh;
        st.cache_hits <- st.cache_hits + hits;
        st.rounds <- st.rounds + 1;
        Core.Trace.add_counter "evaluated" (List.length fresh);
        Core.Trace.add_counter "cache_hit" hits;
        List.iter2
          (fun c outcome ->
            let ev = { ev_candidate = c; ev_outcome = outcome } in
            Hashtbl.replace st.visited (Space.key c) ev;
            st.order <- ev :: st.order)
          fresh outcomes)

let lookup st c = Hashtbl.find_opt st.visited (Space.key c)

(* ------------------------------------------------------------------ *)
(* Strategies                                                           *)
(* ------------------------------------------------------------------ *)

let all_candidates spaces = List.concat_map Space.candidates spaces

let run_exhaustive st ?jobs ~spec spaces =
  evaluate_batch st ?jobs ~spec (all_candidates spaces)

let run_random st ?jobs ~spec ~seed spaces =
  let arr = Array.of_list (all_candidates spaces) in
  Rng.shuffle (Rng.create ~seed) arr;
  evaluate_batch st ?jobs ~spec (Array.to_list arr)

(* Multi-restart neighborhood ascent.  Restart points come from one
   seeded permutation of the space; each climb evaluates the whole ±1
   neighborhood as a single pool batch, then moves to the strictly best
   improving neighbor (ties broken by candidate key, so the walk is a
   pure function of seed and scores). *)
let run_hillclimb st ?jobs ~spec ~seed ~objective spaces =
  let arr = Array.of_list (all_candidates spaces) in
  Rng.shuffle (Rng.create ~seed) arr;
  let space_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun s -> Hashtbl.replace tbl s.Space.tool s) spaces;
    fun c -> Hashtbl.find tbl c.Space.cand_tool
  in
  let score_of ev =
    match ev.ev_outcome with
    | Ok m -> Some (score objective m)
    | Error _ -> None
  in
  let restart = ref 0 in
  while st.budget_left > 0 && !restart < Array.length arr do
    (* next unvisited restart point in permutation order *)
    while
      !restart < Array.length arr
      && Hashtbl.mem st.visited (Space.key arr.(!restart))
    do
      incr restart
    done;
    if !restart < Array.length arr then begin
      let start = arr.(!restart) in
      evaluate_batch st ?jobs ~spec [ start ];
      let current = ref (lookup st start) in
      let climbing = ref true in
      while !climbing do
        match !current with
        | None -> climbing := false  (* budget ran out before the start *)
        | Some cur -> (
            match score_of cur with
            | None -> climbing := false  (* broken point: restart *)
            | Some cur_score ->
                let neigh =
                  Space.neighbors (space_of cur.ev_candidate) cur.ev_candidate
                in
                evaluate_batch st ?jobs ~spec neigh;
                let best =
                  List.fold_left
                    (fun best c ->
                      match lookup st c with
                      | None -> best
                      | Some ev -> (
                          match score_of ev with
                          | None -> best
                          | Some s -> (
                              match best with
                              | Some (bs, bev)
                                when bs > s
                                     || (bs = s
                                        && Space.key bev.ev_candidate
                                           <= Space.key ev.ev_candidate) ->
                                  best
                              | _ -> Some (s, ev))))
                    None neigh
                in
                (match best with
                | Some (s, ev) when s > cur_score -> current := Some ev
                | _ -> climbing := false);
                if st.budget_left <= 0 then climbing := false)
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* The orchestrator                                                     *)
(* ------------------------------------------------------------------ *)

(* All spaces in one run must come from one kernel: the engine
   evaluates every candidate under a single spec, and a mixed frontier
   would compare incomparable stimulus. *)
let spec_of_spaces = function
  | [] -> Core.Flow.idct_spec
  | (s : Space.t) :: rest ->
      List.iter
        (fun (s' : Space.t) ->
          if
            s'.Space.spec.Core.Flow.spec_name
            <> s.Space.spec.Core.Flow.spec_name
          then
            invalid_arg
              (Printf.sprintf
                 "Dse.Engine.run: spaces mix kernels (%s vs %s)"
                 s.Space.spec.Core.Flow.spec_name
                 s'.Space.spec.Core.Flow.spec_name))
        rest;
      s.Space.spec

let run ?jobs ?budget ?(seed = 0) ~strategy ~objective
    spaces =
  let spec = spec_of_spaces spaces in
  let space_size =
    List.fold_left (fun n s -> n + Space.size s) 0 spaces
  in
  let st =
    {
      budget_left = (match budget with Some b -> max 0 b | None -> space_size);
      cache_hits = 0;
      rounds = 0;
      order = [];
      visited = Hashtbl.create 128;
    }
  in
  Core.Trace.with_span ~design:"dse" ~stage:"search" (fun () ->
      (match strategy with
      | Strategy.Exhaustive -> run_exhaustive st ?jobs ~spec spaces
      | Strategy.Random -> run_random st ?jobs ~spec ~seed spaces
      | Strategy.Hillclimb ->
          run_hillclimb st ?jobs ~spec ~seed ~objective spaces);
      let evaluated = List.rev st.order in
      let cloud =
        List.filter_map
          (fun ev ->
            match ev.ev_outcome with
            | Ok m -> Some (point_of ev.ev_candidate m)
            | Error _ -> None)
          evaluated
      in
      let front = Pareto.frontier cloud in
      let failures =
        List.length
          (List.filter
             (fun ev -> Result.is_error ev.ev_outcome)
             evaluated)
      in
      Core.Trace.add_counter "frontier_size" (List.length front);
      {
        res_strategy = strategy;
        res_objective = objective;
        res_seed = seed;
        res_budget = budget;
        res_spaces = spaces;
        res_evaluated = evaluated;
        res_frontier = front;
        res_stats =
          {
            st_space = space_size;
            st_evaluated = List.length evaluated;
            st_cache_hits = st.cache_hits;
            st_rounds = st.rounds;
            st_failures = failures;
            st_frontier = List.length front;
          };
      })
