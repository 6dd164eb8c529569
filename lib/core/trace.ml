(* Domain-safe span tracing of the staged design flow.

   Each domain keeps its own stack of open spans, so a span's parent is
   the span open on the same domain when it opened.  A closed span is
   appended to one process-wide list under [lock], whichever domain
   closed it, so nothing has to be handed over when a pool domain exits.
   With tracing disabled every entry point returns immediately, so the
   instrumented pipeline is byte-identical to the uninstrumented one. *)

type span = {
  id : int;
  parent : int;
  domain : int;
  design : string;
  stage : string;
  start_s : float;
  dur_s : float;
  counters : (string * int) list;
}

(* Seconds on the monotonic clock: span times are differences, and a
   wall-clock step (NTP, suspend) must not bend them. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* ---------------- collection ---------------- *)

type frame = {
  f_id : int;
  f_design : string;
  mutable f_counters : (string * int) list;
}

(* This domain's open spans, innermost first. *)
let stack : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let next_id = Atomic.make 1
let lock = Mutex.create ()
let closed : span list ref = ref []

let add_counter key v =
  if enabled () then
    match !(Domain.DLS.get stack) with
    | [] -> ()
    | fr :: _ -> (
        match List.assoc_opt key fr.f_counters with
        | None -> fr.f_counters <- (key, v) :: fr.f_counters
        | Some prev ->
            fr.f_counters <-
              (key, prev + v) :: List.remove_assoc key fr.f_counters)

let with_span ~design ~stage f =
  if not (enabled ()) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let outer = !st in
    let fr =
      { f_id = Atomic.fetch_and_add next_id 1; f_design = design;
        f_counters = [] }
    in
    st := fr :: outer;
    let start_s = now () in
    let close () =
      let dur_s = now () -. start_s in
      st := outer;
      let sp =
        {
          id = fr.f_id;
          parent = (match outer with p :: _ -> p.f_id | [] -> 0);
          domain = (Domain.self () :> int);
          design;
          stage;
          start_s;
          dur_s;
          counters = List.rev fr.f_counters;
        }
      in
      Mutex.protect lock (fun () -> closed := sp :: !closed)
    in
    Fun.protect ~finally:close f
  end

let with_inner_span ~default ~stage f =
  if not (enabled ()) then f ()
  else
    let design =
      match !(Domain.DLS.get stack) with
      | fr :: _ -> fr.f_design
      | [] -> default
    in
    with_span ~design ~stage f

let drain () =
  let spans =
    Mutex.protect lock (fun () ->
        let s = !closed in
        closed := [];
        s)
  in
  List.sort
    (fun a b ->
      match Float.compare a.start_s b.start_s with
      | 0 -> compare a.id b.id
      | c -> c)
    spans

(* ---------------- JSON Lines ---------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Atomic file emission: write a sibling temp file, then rename it over
   [path], so a crash mid-write can never leave a truncated artifact
   behind — readers see the old complete file or the new complete file,
   nothing in between.  (Used for every file the CLI writes, the bench
   JSON file and every persistent-store entry.) *)

exception Write_error of { wr_path : string; wr_reason : string }

let () =
  Printexc.register_printer (function
    | Write_error { wr_path; wr_reason } ->
        Some (Printf.sprintf "cannot write %s: %s" wr_path wr_reason)
    | _ -> None)

(* The temp suffix carries a per-process atomic counter besides the pid:
   two domains (or systhreads) of one process racing [write_atomic] onto
   the same path must never share a temp file, or one writer's rename
   publishes the other's half-written bytes. *)
let tmp_seq = Atomic.make 0

let fresh_tmp path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

(* Rename with an EXDEV fallback: when [dst] sits on a different
   filesystem than [src] (a store directory on another mount, TMPDIR on
   tmpfs...), [rename] cannot cross the boundary, so the bytes are copied
   into a fresh temp sibling of [dst], fsynced, and renamed within that
   directory — the publish step stays atomic on [dst]'s own filesystem.
   Failures surface as the typed {!Write_error}, never a bare
   [Sys_error]/[Unix_error]. *)
let rename_durable ~src ~dst =
  let fail reason =
    (try Sys.remove src with Sys_error _ -> ());
    raise (Write_error { wr_path = dst; wr_reason = reason })
  in
  match Unix.rename src dst with
  | () -> ()
  | exception Unix.Unix_error (Unix.EXDEV, _, _) -> (
      let tmp2 = fresh_tmp dst in
      let copy () =
        let ic = Unix.openfile src [ Unix.O_RDONLY ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close ic)
          (fun () ->
            let oc =
              Unix.openfile tmp2
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                0o644
            in
            Fun.protect
              ~finally:(fun () -> Unix.close oc)
              (fun () ->
                let buf = Bytes.create 65536 in
                let rec pump () =
                  let k = Unix.read ic buf 0 (Bytes.length buf) in
                  if k > 0 then begin
                    let w = Unix.write oc buf 0 k in
                    if w <> k then failwith "short write";
                    pump ()
                  end
                in
                pump ();
                Unix.fsync oc))
      in
      match
        copy ();
        Unix.rename tmp2 dst
      with
      | () -> ( try Sys.remove src with Sys_error _ -> ())
      | exception e ->
          (try Sys.remove tmp2 with Sys_error _ -> ());
          fail
            (Printf.sprintf "cross-device publish failed: %s"
               (Printexc.to_string e)))
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  | exception Sys_error m -> fail m

let write_atomic path emit =
  let tmp = fresh_tmp path in
  let oc =
    try open_out tmp
    with Sys_error m ->
      (* [m] is "TMP: reason"; the temp name is not the caller's path *)
      let prefix = tmp ^ ": " in
      let reason =
        if String.starts_with ~prefix m then
          String.sub m (String.length prefix)
            (String.length m - String.length prefix)
        else m
      in
      raise (Write_error { wr_path = path; wr_reason = reason })
  in
  match emit oc with
  | () ->
      close_out oc;
      rename_durable ~src:tmp ~dst:path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* One JSON object per line, keys in the fixed order [load_json] reads. *)
let write_json path spans =
  write_atomic path @@ fun oc ->
  let t0 =
    List.fold_left (fun a sp -> Float.min a sp.start_s) infinity spans
  in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"domain\":%d,\"design\":\"%s\",\
         \"stage\":\"%s\",\"start_ms\":%.3f,\"dur_ms\":%.3f,\"counters\":{%s}}\n"
        sp.id sp.parent sp.domain (json_escape sp.design)
        (json_escape sp.stage)
        ((sp.start_s -. t0) *. 1e3)
        (sp.dur_s *. 1e3)
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
              sp.counters)))
    spans

(* The reader of exactly what [write_json] writes: a cursor over one line
   that either finds the expected token or names it. *)
exception Expected of string * int

let parse_line line =
  let n = String.length line and pos = ref 0 in
  let fail what = raise (Expected (what, !pos + 1)) in
  let expect tok =
    let k = String.length tok in
    if !pos + k <= n && String.sub line !pos k = tok then pos := !pos + k
    else fail tok
  in
  let scan what ok conv =
    let start = !pos in
    while !pos < n && ok line.[!pos] do incr pos done;
    match conv (String.sub line start (!pos - start)) with
    | Some v -> v
    | None ->
        pos := start;
        fail what
  in
  let digit c = (c >= '0' && c <= '9') || c = '-' in
  let int () = scan "an integer" digit int_of_string_opt in
  let float () =
    scan "a number" (fun c -> digit c || c = '.' || c = 'e' || c = '+')
      float_of_string_opt
  in
  let str () =
    expect "\"";
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "a closing \""
      else
        match line.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            let esc c =
              Buffer.add_char buf c;
              pos := !pos + 2
            in
            (match if !pos + 1 < n then line.[!pos + 1] else ' ' with
            | ('"' | '\\' | '/') as c -> esc c
            | 'n' -> esc '\n'
            | 't' -> esc '\t'
            | 'u' -> (
                match
                  if !pos + 6 <= n then
                    int_of_string_opt ("0x" ^ String.sub line (!pos + 2) 4)
                  else None
                with
                | Some c when c < 0x80 ->
                    Buffer.add_char buf (Char.chr c);
                    pos := !pos + 6
                | _ -> fail "a \\u00XX escape")
            | _ -> fail "an escape");
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let at c = !pos < n && line.[!pos] = c in
  let field key read =
    expect key;
    read ()
  in
  let id = field "{\"id\":" int in
  let parent = field ",\"parent\":" int in
  let domain = field ",\"domain\":" int in
  let design = field ",\"design\":" str in
  let stage = field ",\"stage\":" str in
  let start_ms = field ",\"start_ms\":" float in
  let dur_ms = field ",\"dur_ms\":" float in
  expect ",\"counters\":{";
  let rec counters acc =
    let k = str () in
    let kv = (k, field ":" int) in
    if at ',' then begin
      incr pos;
      counters (kv :: acc)
    end
    else List.rev (kv :: acc)
  in
  let counters = if at '}' then [] else counters [] in
  expect "}}";
  if !pos <> n then fail "the end of the line";
  { id; parent; domain; design; stage; start_s = start_ms /. 1e3;
    dur_s = dur_ms /. 1e3; counters }

let load_json path =
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
  in
  if List.for_all (fun l -> String.trim l = "") lines then
    failwith
      (path
     ^ ": empty trace file (the recording process died before writing, or \
        this is not a trace)");
  List.concat
    (List.mapi
       (fun i line ->
         if line = "" then []
         else
           try [ parse_line line ]
           with Expected (tok, col) ->
             failwith
               (Printf.sprintf "%s:%d: expected %s at column %d" path (i + 1)
                  tok col))
       lines)

(* ---------------- summary ---------------- *)

(* A span's children share its domain and run one after another inside
   it, so its self time is its duration minus theirs. *)
let self_times spans =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent <> 0 then
        Hashtbl.replace kids sp.parent
          (sp.dur_s +. Option.value ~default:0.0 (Hashtbl.find_opt kids sp.parent)))
    spans;
  List.map
    (fun sp ->
      (sp, sp.dur_s -. Option.value ~default:0.0 (Hashtbl.find_opt kids sp.id)))
    spans

type row = {
  sum_stage : string;
  sum_tool : string;
  sum_count : int;
  sum_total_s : float;
  sum_self_s : float;
  sum_counters : (string * int) list;
}

(* Aggregate by [key sp] (a stage and a tool), in order of total time. *)
let summarize key spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (sp, self) ->
      let k = key sp in
      let r =
        match Hashtbl.find_opt tbl k with
        | Some r -> r
        | None ->
            { sum_stage = fst k; sum_tool = snd k; sum_count = 0;
              sum_total_s = 0.0; sum_self_s = 0.0; sum_counters = [] }
      in
      let counters =
        List.fold_left
          (fun acc (k, v) ->
            match List.assoc_opt k acc with
            | None -> (k, v) :: acc
            | Some prev -> (k, prev + v) :: List.remove_assoc k acc)
          r.sum_counters sp.counters
      in
      Hashtbl.replace tbl k
        {
          r with
          sum_count = r.sum_count + 1;
          sum_total_s = r.sum_total_s +. sp.dur_s;
          sum_self_s = r.sum_self_s +. self;
          sum_counters = counters;
        })
    (self_times spans);
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare b.sum_total_s a.sum_total_s)

(* "kernel:Tool/label" names a design point; anything else is an engine
   group ("pool", "pool/worker1", "transfo/...") named by its first
   component. *)
let kernel_of design =
  match String.index_opt design ':' with
  | Some i ->
      let k = String.sub design 0 i in
      if String.contains k '/' then None else Some k
  | None -> None

(* The tool of a design point ("kernel:Tool/label"), or an engine
   group's name. *)
let tool_of design =
  let first = List.hd (String.split_on_char '/' design) in
  match (kernel_of design, String.index_opt first ':') with
  | Some _, Some i -> String.sub first (i + 1) (String.length first - i - 1)
  | _ -> first

(* The traced wall interval, first start to last end. *)
let traced_wall spans =
  List.fold_left (fun a sp -> Float.max a (sp.start_s +. sp.dur_s))
    neg_infinity spans
  -. List.fold_left (fun a sp -> Float.min a sp.start_s) infinity spans

(* A stage's counters, by name, after the stage padded to [w]. *)
let counter_line w r =
  Printf.sprintf "%-*s %s" w r.sum_stage
    (String.concat "  "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (List.sort compare r.sum_counters)))

let render_stats ?(by_tool = false) path =
  let spans = load_json path in
  let rows = summarize (fun sp -> (sp.stage, "")) spans in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Shares are of the traced wall interval, so a stage busy on several
     domains at once can exceed 100%. *)
  let wall = traced_wall spans in
  let uniq f = List.sort_uniq compare (List.filter_map f spans) in
  let points =
    uniq (fun sp -> Option.map (fun _ -> sp.design) (kernel_of sp.design))
  in
  pr "trace %s: %d spans over %d design points, %.3f s traced wall\n" path
    (List.length spans) (List.length points) wall;
  let kernels = uniq (fun sp -> kernel_of sp.design) in
  if kernels <> [] then pr "kernels: %s\n" (String.concat ", " kernels);
  let engines =
    uniq (fun sp ->
        match kernel_of sp.design with
        | Some _ -> None
        | None -> Some (List.hd (String.split_on_char '/' sp.design)))
  in
  if engines <> [] then pr "engine groups: %s\n" (String.concat ", " engines);
  (* A domain is busy while one of its root spans is open. *)
  let domains =
    uniq (fun sp -> if sp.parent = 0 then Some sp.domain else None)
  in
  pr "domains: %s; traced wall %.3f s\n"
    (String.concat ", "
       (List.map
          (fun d ->
            Printf.sprintf "%d busy %.3f s" d
              (List.fold_left
                 (fun a sp ->
                   if sp.parent = 0 && sp.domain = d then a +. sp.dur_s else a)
                 0.0 spans))
          domains))
    wall;
  let w =
    List.fold_left (fun a r -> max a (String.length r.sum_stage)) 5 rows
  in
  if by_tool then begin
    (* Stages in the order of their total time, each stage's tools by
       self time (ties by name). *)
    let rank = List.mapi (fun i r -> (r.sum_stage, i)) rows in
    let tools =
      summarize (fun sp -> (sp.stage, tool_of sp.design)) spans
      |> List.sort (fun a b ->
             compare
               (List.assoc a.sum_stage rank, -.a.sum_self_s, a.sum_tool)
               (List.assoc b.sum_stage rank, -.b.sum_self_s, b.sum_tool))
    in
    let tw =
      List.fold_left (fun a r -> max a (String.length r.sum_tool)) 4 tools
    in
    pr "%-*s %-*s %7s %10s %10s %10s\n" w "stage" tw "tool" "count" "total s"
      "self s" "mean ms";
    List.iter
      (fun r ->
        pr "%-*s %-*s %7d %10.3f %10.3f %10.3f\n" w r.sum_stage tw r.sum_tool
          r.sum_count r.sum_total_s r.sum_self_s
          (r.sum_total_s *. 1e3 /. float_of_int (max 1 r.sum_count)))
      tools
  end
  else begin
    pr "%-*s %7s %10s %10s %10s %7s\n" w "stage" "count" "total s" "self s"
      "mean ms" "share";
    List.iter
      (fun r ->
        pr "%-*s %7d %10.3f %10.3f %10.3f %6.1f%%\n" w r.sum_stage r.sum_count
          r.sum_total_s r.sum_self_s
          (r.sum_total_s *. 1e3 /. float_of_int (max 1 r.sum_count))
          (100. *. r.sum_total_s /. Float.max 1e-9 wall))
      rows;
    let with_counters = List.filter (fun r -> r.sum_counters <> []) rows in
    if with_counters <> [] then begin
      pr "counters:\n";
      List.iter (fun r -> pr "  %s\n" (counter_line w r)) with_counters
    end
  end;
  Buffer.contents buf

(* A counter named [*_us] is a time (a worker's [busy_us]): it varies
   from run to run, so [--counters] leaves it out. *)
let is_time k = String.ends_with ~suffix:"_us" k

let render_counters path =
  let rows =
    summarize (fun sp -> (sp.stage, "")) (load_json path)
    |> List.map (fun r ->
           { r with
             sum_counters =
               List.filter (fun (k, _) -> not (is_time k)) r.sum_counters })
    |> List.filter (fun r -> r.sum_counters <> [])
    |> List.sort (fun a b -> compare a.sum_stage b.sum_stage)
  in
  let w =
    List.fold_left (fun a r -> max a (String.length r.sum_stage)) 5 rows
  in
  String.concat "" (List.map (fun r -> counter_line w r ^ "\n") rows)

let render_diff before after =
  let b = load_json before and a = load_json after in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "stats diff: %s (%d spans, %.3f s traced wall) -> %s (%d spans, %.3f s \
      traced wall)\n"
    before (List.length b) (traced_wall b) after (List.length a)
    (traced_wall a);
  (* One row per key in either trace, with its self time on each side
     (0 where it is missing), larger side first. *)
  let table key =
    let self spans =
      List.map (fun r -> ((r.sum_stage, r.sum_tool), r.sum_self_s))
        (summarize key spans)
    in
    let sb = self b and sa = self a in
    let side tbl k = Option.value ~default:0.0 (List.assoc_opt k tbl) in
    List.sort_uniq compare (List.map fst sb @ List.map fst sa)
    |> List.map (fun k -> (k, side sb k, side sa k))
    |> List.stable_sort (fun (_, b1, a1) (_, b2, a2) ->
           compare (Float.max b2 a2) (Float.max b1 a1))
  in
  let row label (_, sb, sa) =
    pr "%s %10.3f %10.3f %+10.3f %8s\n" label sb sa (sa -. sb)
      (if sb > 0.0 then Printf.sprintf "%+.1f%%" (100. *. (sa -. sb) /. sb)
       else "new")
  in
  let stages = table (fun sp -> (sp.stage, "")) in
  let tools = table (fun sp -> (sp.stage, tool_of sp.design)) in
  let width f =
    List.fold_left (fun m (k, _, _) -> max m (String.length (f k))) 5 tools
  in
  let w = width fst and tw = width snd in
  pr "%-*s %10s %10s %10s %8s\n" w "stage" "before s" "after s" "delta s"
    "delta";
  List.iter (fun (((st, _), _, _) as r) -> row (Printf.sprintf "%-*s" w st) r)
    stages;
  pr "%-*s %-*s %10s %10s %10s %8s\n" w "stage" tw "tool" "before s"
    "after s" "delta s" "delta";
  List.iter
    (fun (((st, tool), _, _) as r) ->
      row (Printf.sprintf "%-*s %-*s" w st tw tool) r)
    tools;
  Buffer.contents buf
