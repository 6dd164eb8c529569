type signal = { uid : Netlist.uid; vcd_id : string; vname : string; vwidth : int }

type t = {
  sim : Sim.t;
  signals : signal list;
  mutable time : int;
  last : (Netlist.uid, int) Hashtbl.t;
  changes : Buffer.t;
}

let ident_of k =
  (* VCD identifiers: printable ASCII 33..126, shortest first. *)
  let base = 94 and lo = 33 in
  let rec go k acc =
    let acc = String.make 1 (Char.chr (lo + (k mod base))) ^ acc in
    if k < base then acc else go ((k / base) - 1) acc
  in
  go k ""

let create sim =
  let c = Sim.circuit sim in
  let named =
    Array.to_list c.Netlist.nodes
    |> List.filter_map (fun (nd : Netlist.node) ->
           Option.map
             (fun nm -> (nd.Netlist.uid, nm, nd.Netlist.width))
             nd.Netlist.name)
  in
  let outputs =
    List.map
      (fun (nm, u) -> (u, nm, (Netlist.node c u).Netlist.width))
      c.Netlist.outputs
  in
  let seen = Hashtbl.create 64 in
  let signals =
    List.filteri
      (fun _ (_, nm, _) ->
        if Hashtbl.mem seen nm then false
        else begin
          Hashtbl.replace seen nm ();
          true
        end)
      (named @ outputs)
    |> List.mapi (fun i (uid, vname, vwidth) ->
           { uid; vcd_id = ident_of i; vname; vwidth })
  in
  {
    sim;
    signals;
    time = 0;
    last = Hashtbl.create (List.length signals);
    changes = Buffer.create 4096;
  }

let record t =
  Buffer.add_string t.changes (Printf.sprintf "#%d\n" t.time);
  List.iter
    (fun s ->
      let v = Sim.peek t.sim s.uid in
      let changed =
        match Hashtbl.find_opt t.last s.uid with
        | Some old -> old <> v
        | None -> true
      in
      if changed then begin
        Hashtbl.replace t.last s.uid v;
        if s.vwidth = 1 then
          Buffer.add_string t.changes (Printf.sprintf "%d%s\n" v s.vcd_id)
        else begin
          Buffer.add_char t.changes 'b';
          for i = s.vwidth - 1 downto 0 do
            Buffer.add_char t.changes
              (if v land (1 lsl i) <> 0 then '1' else '0')
          done;
          Buffer.add_char t.changes ' ';
          Buffer.add_string t.changes s.vcd_id;
          Buffer.add_char t.changes '\n'
        end
      end)
    t.signals

let step t =
  if t.time = 0 then record t;
  Sim.step t.sim;
  t.time <- t.time + 1;
  record t

let run t n =
  for _ = 1 to n do
    step t
  done

let to_string t =
  let buf = Buffer.create (Buffer.length t.changes + 1024) in
  Buffer.add_string buf "$timescale 1ns $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$scope module %s $end\n"
       (Sim.circuit t.sim).Netlist.circuit_name);
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "$var wire %d %s %s $end\n" s.vwidth s.vcd_id s.vname))
    t.signals;
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  Buffer.add_buffer buf t.changes;
  Buffer.contents buf
