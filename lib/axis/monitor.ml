type sample = {
  cycle : int;
  valid : bool;
  ready : bool;
  last : bool;
  data : int array;
}

type violation = { at_cycle : int; rule : string }

let check samples =
  let violations = ref [] in
  let report cycle rule = violations := { at_cycle = cycle; rule } :: !violations in
  let beats = ref 0 in
  let rec scan pending_stall = function
    | [] -> ()
    | s :: rest ->
        (match pending_stall with
        | Some (stalled : sample) ->
            if not s.valid then
              report s.cycle "m_valid deasserted while a beat was stalled"
            else begin
              if s.data <> stalled.data then
                report s.cycle "m_data changed while a beat was stalled";
              if s.last <> stalled.last then
                report s.cycle "m_last changed while a beat was stalled"
            end
        | None -> ());
        if s.last && not s.valid then
          report s.cycle "m_last asserted without m_valid";
        if s.valid && s.ready then begin
          incr beats;
          let should_last = !beats mod Stream.lanes = 0 in
          if s.last && not should_last then
            report s.cycle
              (Printf.sprintf "m_last on beat %d (expected every %dth)" !beats
                 Stream.lanes);
          if should_last && not s.last then
            report s.cycle
              (Printf.sprintf "missing m_last on beat %d" !beats)
        end;
        let stall = if s.valid && not s.ready then Some s else None in
        scan stall rest
  in
  scan None samples;
  List.rev !violations

(* The rules of [check], fed one cycle at a time.  The only sample state
   kept is the stalled beat: its [m_last] and a copy of its data in a
   buffer the monitor owns, so a cycle with nothing stalled copies
   nothing. *)
type online = {
  mutable stalled : bool;
  mutable stalled_last : bool;
  stalled_data : int array;
  mutable beats : int;
  mutable found : violation list;  (* most recent first *)
}

let online () =
  {
    stalled = false;
    stalled_last = false;
    stalled_data = Array.make Stream.lanes 0;
    beats = 0;
    found = [];
  }

let report m cycle rule = m.found <- { at_cycle = cycle; rule } :: m.found

let observe m ~cycle ~valid ~ready ~last data =
  if m.stalled then begin
    if not valid then
      report m cycle "m_valid deasserted while a beat was stalled"
    else begin
      let same = ref true in
      for i = 0 to Stream.lanes - 1 do
        if data.(i) <> m.stalled_data.(i) then same := false
      done;
      if not !same then
        report m cycle "m_data changed while a beat was stalled";
      if last <> m.stalled_last then
        report m cycle "m_last changed while a beat was stalled"
    end
  end;
  if last && not valid then report m cycle "m_last asserted without m_valid";
  if valid && ready then begin
    m.beats <- m.beats + 1;
    let should_last = m.beats mod Stream.lanes = 0 in
    if last && not should_last then
      report m cycle
        (Printf.sprintf "m_last on beat %d (expected every %dth)" m.beats
           Stream.lanes);
    if should_last && not last then
      report m cycle (Printf.sprintf "missing m_last on beat %d" m.beats)
  end;
  m.stalled <- valid && not ready;
  if m.stalled then begin
    m.stalled_last <- last;
    Array.blit data 0 m.stalled_data 0 Stream.lanes
  end

let violations m = List.rev m.found

let pp_violation ppf v =
  Format.fprintf ppf "cycle %d: %s" v.at_cycle v.rule
