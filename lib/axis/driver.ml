open Hw

type result = {
  outputs : Block.t list;
  latency : int;
  periodicity : int;
  cycles : int;
  violations : Monitor.violation list;
}

let sign_extend w v =
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

(* With no explicit [timeout], a run fails only when it stops making
   progress: this many cycles (scaled by the consumer's duty cycle, plus
   one inter-matrix gap) with no input beat accepted and no output beat
   collected on any lane.  The beat count is finite, so a run always ends. *)
let watchdog_cycles = 2000

let run ?(batch = 1) ?(input_gap = 0)
    ?(ready_pattern = fun _ -> true) ?timeout ?(hook = fun _ _ -> ()) circuit
    matrices =
  if not (Stream.is_wrapped circuit) then
    failwith "Driver.run: circuit does not follow the AXI-Stream convention";
  if batch < 1 then invalid_arg "Driver.run: batch must be >= 1";
  let n_mat = List.length matrices in
  let lanes = Stream.lanes in
  (* Matrices are split across simulation lanes in contiguous chunks, so
     lane outputs concatenate back in order.  Every lane runs its own
     independent copy of the testbench below; only the clock is shared. *)
  let n_lanes = max 1 (min batch n_mat) in
  let chunk_start = Array.make n_lanes 0 and chunk_len = Array.make n_lanes 0 in
  let base = n_mat / n_lanes and rem = n_mat mod n_lanes in
  let pos = ref 0 in
  for l = 0 to n_lanes - 1 do
    chunk_start.(l) <- !pos;
    chunk_len.(l) <- (base + if l < rem then 1 else 0);
    pos := !pos + chunk_len.(l)
  done;
  (* A slow but correct [ready_pattern] stretches every wait by the
     inverse of its duty cycle, so sample the pattern over a window and
     scale the watchdog accordingly (patterns are pure functions of the
     cycle number).  The duty cycle is clamped so that a pattern that is
     never ready in the sample still terminates. *)
  let duty =
    let window = 1024 in
    let ready = ref 0 in
    for c = 0 to window - 1 do
      if ready_pattern c then incr ready
    done;
    Float.max 0.01 (float_of_int !ready /. float_of_int window)
  in
  let watchdog =
    int_of_float
      (ceil (float_of_int (watchdog_cycles + input_gap) /. duty))
  in
  let sim = Sim.create ~batch:n_lanes circuit in
  hook "sim_thunks" (Sim.compiled_nodes sim);
  if n_lanes > 1 then hook "sim_batch" n_lanes;
  (* The 22 stream ports are resolved once; the cycle loop below touches
     only handles. *)
  let s_valid = Sim.in_port sim Stream.s_valid
  and s_last = Sim.in_port sim Stream.s_last
  and m_ready = Sim.in_port sim Stream.m_ready
  and s_data = Array.init lanes (fun c -> Sim.in_port sim (Stream.s_data c))
  and s_ready = Sim.out_port sim Stream.s_ready
  and m_valid = Sim.out_port sim Stream.m_valid
  and m_last = Sim.out_port sim Stream.m_last
  and m_data = Array.init lanes (fun c -> Sim.out_port sim (Stream.m_data c)) in
  let inputs = Array.of_list matrices in
  (* Per-lane testbench state.  [mat_idx] is the absolute index into
     [inputs]; a lane is done when it has collected its whole chunk.
     [rows] counts the beats already in [current], the output matrix
     being assembled. *)
  let mat_idx = Array.init n_lanes (fun l -> chunk_start.(l)) in
  let beat_idx = Array.make n_lanes 0 and gap_left = Array.make n_lanes 0 in
  let collected = Array.make n_lanes [] in
  let current = Array.init n_lanes (fun _ -> Block.create ()) in
  let rows = Array.make n_lanes 0 in
  let first_in_cycle = Array.make n_mat (-1) in
  let last_out_cycle = Array.make n_mat (-1) in
  let out_mat = Array.make n_lanes 0 in
  let monitors = Array.init n_lanes (fun _ -> Monitor.online ()) in
  let data = Array.make lanes 0 in
  let pending = ref n_mat in
  let cycle = ref 0 and idle = ref 0 in
  let in_budget () =
    match timeout with Some t -> !cycle < t | None -> !idle < watchdog
  in
  while !pending > 0 && in_budget () do
    let ready = ready_pattern !cycle in
    let progress = ref false in
    (* Drive inputs for this cycle, every lane. *)
    for l = 0 to n_lanes - 1 do
      let lane_end = chunk_start.(l) + chunk_len.(l) in
      let driving = mat_idx.(l) < lane_end && gap_left.(l) = 0 in
      Sim.set_port sim s_valid ~lane:l (if driving then 1 else 0);
      Sim.set_port sim s_last ~lane:l
        (if driving && beat_idx.(l) = lanes - 1 then 1 else 0);
      for c = 0 to lanes - 1 do
        Sim.set_port sim s_data.(c) ~lane:l
          (if driving then
             Block.get inputs.(mat_idx.(l)) ~row:beat_idx.(l) ~col:c
           else 0)
      done;
      Sim.set_port sim m_ready ~lane:l (if ready then 1 else 0)
    done;
    (* Observe handshakes, every lane.  The data lanes are only read
       while [m_valid] is up: that is the only time the monitor or the
       collector looks at them. *)
    for l = 0 to n_lanes - 1 do
      let lane_end = chunk_start.(l) + chunk_len.(l) in
      let driving = mat_idx.(l) < lane_end && gap_left.(l) = 0 in
      let in_ready = Sim.get_port sim s_ready ~lane:l = 1 in
      let valid = Sim.get_port sim m_valid ~lane:l = 1 in
      let last = Sim.get_port sim m_last ~lane:l = 1 in
      if valid then
        for c = 0 to lanes - 1 do
          data.(c) <-
            sign_extend Stream.out_width (Sim.get_port sim m_data.(c) ~lane:l)
        done;
      Monitor.observe monitors.(l) ~cycle:!cycle ~valid ~ready ~last data;
      if driving && in_ready then begin
        progress := true;
        if beat_idx.(l) = 0 then first_in_cycle.(mat_idx.(l)) <- !cycle;
        beat_idx.(l) <- beat_idx.(l) + 1;
        if beat_idx.(l) = lanes then begin
          beat_idx.(l) <- 0;
          mat_idx.(l) <- mat_idx.(l) + 1;
          gap_left.(l) <- input_gap
        end
      end
      else if (not driving) && gap_left.(l) > 0 then
        gap_left.(l) <- gap_left.(l) - 1;
      if valid && ready then begin
        progress := true;
        Array.blit data 0 current.(l) (rows.(l) * lanes) lanes;
        rows.(l) <- rows.(l) + 1;
        if rows.(l) = lanes then begin
          collected.(l) <- current.(l) :: collected.(l);
          current.(l) <- Block.create ();
          rows.(l) <- 0;
          if out_mat.(l) < chunk_len.(l) then begin
            last_out_cycle.(chunk_start.(l) + out_mat.(l)) <- !cycle;
            decr pending
          end;
          out_mat.(l) <- out_mat.(l) + 1
        end
      end
    done;
    Sim.step sim;
    incr cycle;
    if !progress then idle := 0 else incr idle
  done;
  if !pending > 0 then begin
    let sum f =
      let s = ref 0 in
      for l = 0 to n_lanes - 1 do
        s := !s + f l
      done;
      !s
    in
    failwith
      (Printf.sprintf
         "Driver.run(%s): timeout after %d cycles%s (duty %.2f, batch %d) — \
          collected %d/%d output beats (%d/%d matrices), consumed %d/%d \
          input beats"
         circuit.Netlist.circuit_name !cycle
         (if timeout = None then
            Printf.sprintf ", the last %d without a handshake" !idle
          else "")
         duty n_lanes
         (sum (fun l -> (out_mat.(l) * lanes) + rows.(l)))
         (n_mat * lanes)
         (sum (fun l -> out_mat.(l)))
         n_mat
         (sum (fun l ->
              ((mat_idx.(l) - chunk_start.(l)) * lanes) + beat_idx.(l)))
         (n_mat * lanes))
  end;
  hook "cycles" !cycle;
  (* Latency is measured on the final matrix; periodicity between the last
     two matrices of the lane holding it (contiguous chunks put them in
     the same lane whenever that lane has >= 2).  At batch 1 both reduce
     to the historical single-stream definitions. *)
  let latency =
    let last = n_mat - 1 in
    last_out_cycle.(last) - first_in_cycle.(last) + 1
  in
  let last_lane = n_lanes - 1 in
  let periodicity =
    if chunk_len.(last_lane) >= 2 then
      first_in_cycle.(n_mat - 1) - first_in_cycle.(n_mat - 2)
    else latency
  in
  let outputs =
    List.concat
      (List.init n_lanes (fun l -> List.rev collected.(l)))
  in
  let violations =
    List.concat_map Monitor.violations (Array.to_list monitors)
  in
  { outputs; latency; periodicity; cycles = !cycle; violations }

let transform circuit matrix =
  match (run circuit [ matrix ]).outputs with
  | [ out ] -> out
  | _ -> assert false

(* Bulk variant of [transform]: each matrix is an independent fresh-reset
   single-matrix run, so it maps onto the batch dimension directly — one
   lane per matrix, capped per simulator instance to bound the value
   array.  Outputs are byte-for-byte what per-matrix [transform] calls
   would return. *)
let max_transform_lanes = 64

let transform_batch ?hook circuit matrices =
  let rec chunks = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let c, rest = take max_transform_lanes [] l in
        c :: chunks rest
  in
  List.concat_map
    (fun chunk ->
      (run ?hook ~batch:(List.length chunk) circuit chunk).outputs)
    (chunks matrices)
