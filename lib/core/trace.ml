(* Domain-safe span tracing of the staged design flow.

   The hot paths (measurement under the domain pool) only ever touch
   domain-local storage: a span opens and closes on one domain, and the
   buffered spans cross domains exactly once, under [merge_lock], when the
   pool joins a spawned worker ([flush_domain]) or the caller [drain]s.  With
   tracing disabled every entry point returns immediately, so the
   instrumented pipeline is byte-identical to the uninstrumented one. *)

type span = {
  design : string;
  stage : string;
  depth : int;
  seq : int;
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

(* ---------------- per-domain collection ---------------- *)

type frame = {
  f_design : string;
  f_stage : string;
  f_depth : int;
  f_seq : int;
  f_start : float;
  mutable f_counters : (string * int) list;
}

type dstate = {
  mutable closed : span list; (* most recent first *)
  mutable stack : frame list; (* innermost first *)
  mutable next_seq : int;
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { closed = []; stack = []; next_seq = 0 })

let merge_lock = Mutex.create ()
let merged : span list ref = ref []

let flush_domain () =
  let st = Domain.DLS.get dls in
  match st.closed with
  | [] -> ()
  | spans ->
      st.closed <- [];
      Mutex.protect merge_lock (fun () -> merged := spans @ !merged)

let add_counter key v =
  if enabled () then
    let st = Domain.DLS.get dls in
    match st.stack with
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
    let st = Domain.DLS.get dls in
    let fr =
      {
        f_design = design;
        f_stage = stage;
        f_depth = List.length st.stack;
        f_seq = st.next_seq;
        f_start = now ();
        f_counters = [];
      }
    in
    st.next_seq <- st.next_seq + 1;
    st.stack <- fr :: st.stack;
    let close () =
      let dur = now () -. fr.f_start in
      (match st.stack with _ :: rest -> st.stack <- rest | [] -> ());
      st.closed <-
        {
          design = fr.f_design;
          stage = fr.f_stage;
          depth = fr.f_depth;
          seq = fr.f_seq;
          start_s = fr.f_start;
          dur_s = dur;
          counters = List.rev fr.f_counters;
        }
        :: st.closed
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let with_inner_span ~default ~stage f =
  if not (enabled ()) then f ()
  else
    let design =
      match (Domain.DLS.get dls).stack with
      | fr :: _ -> fr.f_design
      | [] -> default
    in
    with_span ~design ~stage f

let drain () =
  flush_domain ();
  let spans = Mutex.protect merge_lock (fun () ->
      let s = !merged in
      merged := [];
      s)
  in
  List.sort
    (fun a b ->
      match compare a.start_s b.start_s with 0 -> compare a.seq b.seq | c -> c)
    spans

(* ---------------- JSON emission ---------------- *)

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

(* A span tree: spans of one design nested by depth.  Spans arrive sorted
   by start time, and a parent both starts before and closes after its
   children, so a stack by depth reconstructs the nesting.  One design's
   spans need not share a base depth (the pool's worker 0 runs on the
   caller, one level under the open [map], wherever that map was
   opened), so a span that closed before [sp] started is popped too: it
   cannot be [sp]'s parent. *)
type tree = { node : span; mutable children : tree list (* reversed *) }

let build_trees spans =
  let roots = ref [] in
  let stack = ref [] in
  List.iter
    (fun sp ->
      let t = { node = sp; children = [] } in
      while
        match !stack with
        | top :: rest
          when top.node.depth >= sp.depth
               || top.node.start_s +. top.node.dur_s < sp.start_s ->
            stack := rest;
            true
        | _ -> false
      do
        ()
      done;
      (match !stack with
      | [] -> roots := t :: !roots
      | parent :: _ -> parent.children <- t :: parent.children);
      stack := t :: !stack)
    spans;
  List.rev !roots

let group_by_design spans =
  let order = ref [] in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      (match Hashtbl.find_opt tbl sp.design with
      | None ->
          order := sp.design :: !order;
          Hashtbl.add tbl sp.design [ sp ]
      | Some prev -> Hashtbl.replace tbl sp.design (sp :: prev)))
    spans;
  List.map
    (fun d -> (d, List.rev (Hashtbl.find tbl d)))
    (List.rev !order)

(* Atomic file emission: write a sibling temp file, then rename it over
   [path], so a crash mid-write can never leave a truncated artifact
   behind — readers see the old complete file or the new complete file,
   nothing in between.  (Used for [--trace], the bench JSON files and
   every persistent-store entry.) *)

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
    with Sys_error m -> raise (Write_error { wr_path = path; wr_reason = m })
  in
  match emit oc with
  | () ->
      close_out oc;
      rename_durable ~src:tmp ~dst:path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let write_json path spans =
  write_atomic path @@ fun oc ->
  let t0 =
    List.fold_left (fun a sp -> Float.min a sp.start_s) infinity spans
  in
  let t0 = if t0 = infinity then 0.0 else t0 in
  let out fmt = Printf.fprintf oc fmt in
  let rec emit_tree indent t =
    let sp = t.node in
    out "%s{\"stage\": \"%s\", \"start_ms\": %.3f, \"dur_ms\": %.3f" indent
      (json_escape sp.stage)
      ((sp.start_s -. t0) *. 1e3)
      (sp.dur_s *. 1e3);
    (match sp.counters with
    | [] -> ()
    | cs ->
        out ", \"counters\": {%s}"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "\"%s\": %d" (json_escape k) v)
                cs)));
    (match List.rev t.children with
    | [] -> ()
    | kids ->
        out ",\n%s \"children\": [\n" indent;
        List.iteri
          (fun i k ->
            if i > 0 then out ",\n";
            emit_tree (indent ^ "  ") k)
          kids;
        out "\n%s ]" indent);
    out "}"
  in
  out "{\n  \"trace\": \"hlsvhc design flow\",\n  \"spans\": %d,\n"
    (List.length spans);
  out "  \"designs\": [\n";
  let groups = group_by_design spans in
  List.iteri
    (fun i (design, sps) ->
      if i > 0 then out ",\n";
      out "    {\"design\": \"%s\",\n     \"tree\": [\n" (json_escape design);
      let trees = build_trees sps in
      List.iteri
        (fun j t ->
          if j > 0 then out ",\n";
          emit_tree "      " t)
        trees;
      out "\n     ]}")
    groups;
  out "\n  ]\n}\n"

(* ---------------- JSON loading (for [hlsvhc stats]) ---------------- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'u' ->
              (* best effort: decode BMP escapes to '?' outside ASCII *)
              if !pos + 4 >= n then fail "bad \\u escape";
              let hex = String.sub s (!pos + 1) 4 in
              pos := !pos + 4;
              let code = int_of_string ("0x" ^ hex) in
              if code < 128 then Buffer.add_char buf (Char.chr code)
              else Buffer.add_char buf '?'
          | _ -> fail "bad escape");
          advance ();
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Jobj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jarr []
        end
        else begin
          let rec elems acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Jarr (elems [])
        end
    | Some '"' -> Jstr (string_lit ())
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (number ())
    | None -> fail "unexpected end of input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Jobj fields -> List.assoc_opt name fields
  | _ -> None

let load_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  if String.trim text = "" then
    failwith
      (path
     ^ ": empty trace file (the recording process died before writing, or \
        this is not a trace)");
  let root =
    try parse_json text
    with Bad msg -> failwith (Printf.sprintf "%s: malformed trace: %s" path msg)
  in
  let get_num j = match j with Jnum f -> f | _ -> failwith "expected number" in
  let spans = ref [] in
  let seq = ref 0 in
  let rec walk_tree design depth j =
    let stage =
      match obj_field "stage" j with
      | Some (Jstr st) -> st
      | _ -> failwith (path ^ ": span without a stage")
    in
    let start_ms =
      match obj_field "start_ms" j with Some v -> get_num v | None -> 0.0
    in
    let dur_ms =
      match obj_field "dur_ms" j with Some v -> get_num v | None -> 0.0
    in
    let counters =
      match obj_field "counters" j with
      | Some (Jobj kvs) ->
          List.map (fun (k, v) -> (k, int_of_float (get_num v))) kvs
      | _ -> []
    in
    let this_seq = !seq in
    incr seq;
    spans :=
      {
        design;
        stage;
        depth;
        seq = this_seq;
        start_s = start_ms /. 1e3;
        dur_s = dur_ms /. 1e3;
        counters;
      }
      :: !spans;
    match obj_field "children" j with
    | Some (Jarr kids) -> List.iter (walk_tree design (depth + 1)) kids
    | _ -> ()
  in
  (match obj_field "designs" root with
  | Some (Jarr designs) ->
      List.iter
        (fun d ->
          let name =
            match obj_field "design" d with
            | Some (Jstr s) -> s
            | _ -> failwith (path ^ ": design entry without a name")
          in
          match obj_field "tree" d with
          | Some (Jarr trees) -> List.iter (walk_tree name 0) trees
          | _ -> ())
        designs
  | _ -> failwith (path ^ ": no \"designs\" array"));
  List.rev !spans

(* ---------------- summary ---------------- *)

type summary_row = {
  sum_stage : string;
  sum_count : int;
  sum_total_s : float;
  sum_counters : (string * int) list;
}

let summarize spans =
  let tbl : (string, summary_row) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let row =
        match Hashtbl.find_opt tbl sp.stage with
        | Some r -> r
        | None ->
            { sum_stage = sp.stage; sum_count = 0; sum_total_s = 0.0;
              sum_counters = [] }
      in
      let counters =
        List.fold_left
          (fun acc (k, v) ->
            match List.assoc_opt k acc with
            | None -> (k, v) :: acc
            | Some prev -> (k, prev + v) :: List.remove_assoc k acc)
          row.sum_counters sp.counters
      in
      Hashtbl.replace tbl sp.stage
        {
          row with
          sum_count = row.sum_count + 1;
          sum_total_s = row.sum_total_s +. sp.dur_s;
          sum_counters = counters;
        })
    spans;
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b -> compare b.sum_total_s a.sum_total_s)

let render_stats path =
  let spans = load_json path in
  let rows = summarize spans in
  let designs =
    List.sort_uniq compare (List.map (fun sp -> sp.design) spans)
  in
  let buf = Buffer.create 2048 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Shares are of the traced wall interval, first start to last end:
     unlike a sum of root spans, it does not depend on how spans nest,
     and a stage busy on several domains at once can exceed 100%. *)
  let wall =
    if spans = [] then 0.0
    else
      List.fold_left (fun a sp -> Float.max a (sp.start_s +. sp.dur_s))
        neg_infinity spans
      -. List.fold_left (fun a sp -> Float.min a sp.start_s) infinity spans
  in
  pr "trace %s: %d spans over %d designs, %.3f s traced wall\n" path
    (List.length spans) (List.length designs) wall;
  (* Stage spans are recorded under the kernel-qualified design identity
     ("kernel:Tool/label"); name the kernels so mixed traces stay
     attributable.  Engine/pool spans carry no kernel prefix. *)
  let kernels =
    List.sort_uniq compare
      (List.filter_map
         (fun d ->
           match String.index_opt d ':' with
           | Some i
             when (match String.index_opt d '/' with
                  | Some j -> i < j
                  | None -> true) ->
               Some (String.sub d 0 i)
           | _ -> None)
         designs)
  in
  if kernels <> [] then pr "kernels: %s\n" (String.concat ", " kernels);
  let w =
    List.fold_left (fun a r -> max a (String.length r.sum_stage)) 5 rows
  in
  pr "%-*s %7s %10s %10s %7s\n" w "stage" "count" "total s" "mean ms" "share";
  List.iter
    (fun r ->
      pr "%-*s %7d %10.3f %10.3f %6.1f%%\n" w r.sum_stage r.sum_count
        r.sum_total_s
        (r.sum_total_s *. 1e3 /. float_of_int (max 1 r.sum_count))
        (100. *. r.sum_total_s /. Float.max 1e-9 wall))
    rows;
  let interesting =
    List.filter (fun r -> r.sum_counters <> []) rows
  in
  if interesting <> [] then begin
    pr "counters:\n";
    List.iter
      (fun r ->
        pr "  %-*s %s\n" w r.sum_stage
          (String.concat "  "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                (List.sort compare r.sum_counters))))
      interesting
  end;
  Buffer.contents buf
