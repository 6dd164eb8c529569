open Hw

type result = {
  outputs : Block.t list;
  latency : int;
  periodicity : int;
  cycles : int;
  violations : Monitor.violation list;
}

exception Protocol_violation of Monitor.violation

let sign_extend w v =
  if v land (1 lsl (w - 1)) <> 0 then v - (1 lsl w) else v

(* With no explicit [timeout], a run fails only when it stops making
   progress: this many cycles (scaled by the consumer's duty cycle, plus
   one inter-matrix gap) with no input beat accepted and no output beat
   collected on any lane.  The beat count is finite, so a run always ends. *)
let watchdog_cycles = 2000

let check_wrapped circuit =
  if not (Stream.is_wrapped circuit) then
    failwith "Driver.run: circuit does not follow the AXI-Stream convention"

(* The testbench proper, on a simulator in its reset state, in one of
   two shapes: one lane streams every matrix ([run] builds a fresh
   simulator per call), or each lane holds one matrix (a staged
   [transform_batch] resets and reuses one simulator per lane count).
   Either way lane [l] streams the [per_lane] matrices from
   [l * per_lane], so lane outputs concatenate back in input order;
   every lane runs its own independent copy of the testbench below, and
   only the clock is shared. *)
let drive ~input_gap ~ready_pattern ~timeout ~hook sim matrices =
  let circuit = Sim.circuit sim in
  let n_mat = List.length matrices in
  let lanes = Stream.lanes in
  let n_lanes = Sim.batch sim in
  let per_lane = n_mat / n_lanes in
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
  hook "sim_thunks" (Sim.compiled_nodes sim);
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
     [inputs]; a lane is done when it has collected its matrices.
     [rows] counts the beats already in [current], the output matrix
     being assembled. *)
  let mat_idx = Array.init n_lanes (fun l -> l * per_lane) in
  let beat_idx = Array.make n_lanes 0 and gap_left = Array.make n_lanes 0 in
  let collected = Array.make n_lanes [] in
  let current = Array.init n_lanes (fun _ -> Block.create ()) in
  let rows = Array.make n_lanes 0 in
  let first_in_cycle = Array.make n_mat (-1) in
  let last_out_cycle = Array.make n_mat (-1) in
  let out_mat = Array.make n_lanes 0 in
  let monitors = Array.init n_lanes (fun _ -> Monitor.online ()) in
  let data = Array.make lanes 0 in
  (* One row per port: lane [l]'s value at index [l], moved to and from
     the simulator with one call per port per cycle. *)
  let row () = Array.make n_lanes 0 in
  let valid_in = row () and last_in = row () and ready_in = row () in
  let data_in = Array.init lanes (fun _ -> row ()) in
  let ready_out = row () and valid_out = row () and last_out = row () in
  let data_out = Array.init lanes (fun _ -> row ()) in
  let pending = ref n_mat in
  let cycle = ref 0 and idle = ref 0 in
  (* Quiet cycles: [busy] counts the lanes still driving or waiting out a
     gap, [zeroed] says the input rows hold the zeros of a lane that does
     neither, and [was_up] that some lane had [m_valid] or [m_last] up on
     the previous cycle. *)
  let busy = ref n_lanes and zeroed = ref false and was_up = ref true in
  let up row = Array.exists (fun v -> v <> 0) row in
  let in_budget () =
    match timeout with Some t -> !cycle < t | None -> !idle < watchdog
  in
  while !pending > 0 && in_budget () do
    let ready = ready_pattern !cycle in
    let progress = ref false in
    (* Drive inputs for this cycle, every lane.  Once no lane drives or
       waits, the rows hold zeros and stay as they are. *)
    if !busy > 0 || not !zeroed then begin
      for l = 0 to n_lanes - 1 do
        let driving = mat_idx.(l) < (l + 1) * per_lane && gap_left.(l) = 0 in
        valid_in.(l) <- (if driving then 1 else 0);
        last_in.(l) <- (if driving && beat_idx.(l) = lanes - 1 then 1 else 0);
        if driving then begin
          let m = inputs.(mat_idx.(l)) and r = beat_idx.(l) in
          for c = 0 to lanes - 1 do
            data_in.(c).(l) <- Block.get m ~row:r ~col:c
          done
        end
        else
          for c = 0 to lanes - 1 do
            data_in.(c).(l) <- 0
          done
      done;
      Sim.set_row sim s_valid valid_in;
      Sim.set_row sim s_last last_in;
      for c = 0 to lanes - 1 do
        Sim.set_row sim s_data.(c) data_in.(c)
      done;
      zeroed := !busy = 0
    end;
    Array.fill ready_in 0 n_lanes (if ready then 1 else 0);
    Sim.set_row sim m_ready ready_in;
    (* Observe handshakes, every lane.  The data rows are only read when
       some lane has [m_valid] up: that is the only time the monitor or
       the collector looks at them. *)
    Sim.get_row sim s_ready ready_out;
    Sim.get_row sim m_valid valid_out;
    Sim.get_row sim m_last last_out;
    let valid_up = up valid_out in
    if valid_up then
      for c = 0 to lanes - 1 do
        Sim.get_row sim m_data.(c) data_out.(c)
      done;
    (* On a quiet cycle (no lane driving or waiting, and no [m_valid] or
       [m_last] up on this cycle or the one before) no lane's testbench
       or monitor state can change, so the lanes are not visited. *)
    let out_up = valid_up || up last_out in
    if !busy > 0 || out_up || !was_up then
      for l = 0 to n_lanes - 1 do
        let driving = mat_idx.(l) < (l + 1) * per_lane && gap_left.(l) = 0 in
        let in_ready = ready_out.(l) = 1 in
        let valid = valid_out.(l) = 1 in
        let last = last_out.(l) = 1 in
        if valid then
          for c = 0 to lanes - 1 do
            data.(c) <- sign_extend Stream.out_width data_out.(c).(l)
          done;
        Monitor.observe monitors.(l) ~cycle:!cycle ~valid ~ready ~last data;
        if driving && in_ready then begin
          progress := true;
          if beat_idx.(l) = 0 then first_in_cycle.(mat_idx.(l)) <- !cycle;
          beat_idx.(l) <- beat_idx.(l) + 1;
          if beat_idx.(l) = lanes then begin
            beat_idx.(l) <- 0;
            mat_idx.(l) <- mat_idx.(l) + 1;
            gap_left.(l) <- input_gap;
            if mat_idx.(l) = (l + 1) * per_lane && input_gap = 0 then decr busy
          end
        end
        else if (not driving) && gap_left.(l) > 0 then begin
          gap_left.(l) <- gap_left.(l) - 1;
          if gap_left.(l) = 0 && mat_idx.(l) = (l + 1) * per_lane then decr busy
        end;
        if valid && ready then begin
          progress := true;
          Array.blit data 0 current.(l) (rows.(l) * lanes) lanes;
          rows.(l) <- rows.(l) + 1;
          if rows.(l) = lanes then begin
            collected.(l) <- current.(l) :: collected.(l);
            current.(l) <- Block.create ();
            rows.(l) <- 0;
            if out_mat.(l) < per_lane then begin
              last_out_cycle.((l * per_lane) + out_mat.(l)) <- !cycle;
              decr pending
            end;
            out_mat.(l) <- out_mat.(l) + 1
          end
        end
      done;
    was_up := out_up;
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
         (sum (fun l -> ((mat_idx.(l) - (l * per_lane)) * lanes) + beat_idx.(l)))
         (n_mat * lanes))
  end;
  hook "cycles" !cycle;
  hook "evals" (Sim.evaluations sim);
  (* Latency is measured on the final matrix, periodicity between the
     final two: only a one-lane stream of several matrices has two. *)
  let latency =
    let last = n_mat - 1 in
    last_out_cycle.(last) - first_in_cycle.(last) + 1
  in
  let periodicity =
    if per_lane >= 2 then
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

let run ?(input_gap = 0) ?(ready_pattern = fun _ -> true) ?timeout
    ?(hook = fun _ _ -> ()) circuit matrices =
  check_wrapped circuit;
  if matrices = [] then invalid_arg "Driver.run: no matrices";
  drive ~input_gap ~ready_pattern ~timeout ~hook (Sim.create circuit) matrices

let transform circuit matrix =
  match (run circuit [ matrix ]).outputs with
  | [ out ] -> out
  | _ -> assert false

(* Bulk variant of [transform]: each matrix is an independent fresh-reset
   single-matrix run, so it maps onto the batch dimension directly — one
   lane per matrix, capped per simulator instance to bound the value
   array.  Staged: applying the circuit sets up a table of simulator
   instances, one per lane count, that every later call shares; an
   instance is created on first use and reset on reuse (a reset instance
   is indistinguishable from a fresh one to the testbench, which drives
   every input before reading any output).  A short final chunk gets an
   instance of its own width rather than idle lanes.  Outputs are
   byte-for-byte what per-matrix [transform] calls would return; the
   first protocol violation, in input order, is raised. *)
let max_transform_lanes = 64

(* Every lane of a chunk starts from reset and sees the same handshake,
   so [s_valid], [s_last] and [m_ready] are promised uniform to the
   simulator — as long as the lanes accept and deliver beats together,
   which holds when [s_ready], [m_valid] and [m_last] are uniform under
   that promise.  Otherwise the simulator gets no promise.  A lockstep
   that breaks all the same makes [Sim.set_row] raise. *)
let lockstep n circuit =
  let sim =
    Sim.create ~batch:n
      ~uniform:[ Stream.s_valid; Stream.s_last; Stream.m_ready ]
      circuit
  in
  if
    List.for_all
      (fun p -> Sim.is_uniform sim (Sim.out_port sim p))
      [ Stream.s_ready; Stream.m_valid; Stream.m_last ]
  then sim
  else Sim.create ~batch:n circuit

let transform_batch ?(hook = fun _ _ -> ()) circuit =
  check_wrapped circuit;
  let sims = ref [] in
  let sim_for n =
    match List.assoc_opt n !sims with
    | Some sim ->
        Sim.reset sim;
        sim
    | None ->
        let sim = lockstep n circuit in
        sims := (n, sim) :: !sims;
        sim
  in
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
  fun matrices ->
    List.concat_map
      (fun chunk ->
        let sim = sim_for (List.length chunk) in
        let r =
          drive ~input_gap:0 ~ready_pattern:(fun _ -> true) ~timeout:None
            ~hook sim chunk
        in
        match r.violations with
        | v :: _ -> raise (Protocol_violation v)
        | [] -> r.outputs)
      (chunks matrices)
