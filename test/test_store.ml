(* The persistent content-addressed result store (DESIGN.md §14) and the
   atomic-write plumbing it leans on.

   Coherence rules pinned here:
   - a warm-store hit is bit-identical to a cold measurement (hex-float
     wire codec, checksummed entries);
   - corrupted / truncated / version-skewed / foreign entries are
     detected, counted, reported once per path, and re-measured — never
     trusted;
   - [clear_measure_cache] drops only the in-process memo, never the
     on-disk entries;
   - [Trace.write_atomic] survives N domains racing one path (the
     per-process counter in the temp suffix), and [rename_durable]
     crosses filesystems (EXDEV) with a typed error on real failure. *)

let idct = Core.Kernel.idct

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let measured : Core.Metrics.measured Alcotest.testable =
  Alcotest.testable Core.Metrics.pp_measured ( = )

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let fresh_dir =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

(* Every store test runs against a fresh attached store and leaves the
   process with no backend and a cold memo, whatever happens. *)
let with_store f =
  let dir = fresh_dir "hlsvhc_store_test" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let t = Result.get_ok (Store.attach dir) in
  Fun.protect
    ~finally:(fun () ->
      Store.detach ();
      Core.Evaluate.clear_measure_cache ())
    (fun () -> f t)

let victim = Core.Kernel.initial idct Core.Design.Verilog

let victim_key =
  Core.Evaluate.measure_key ~matrices:2 ~spec:Core.Flow.idct_spec victim

(* The reference measurement: no store, cold memo. *)
let cold_measure () =
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let m = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim in
  Core.Evaluate.clear_measure_cache ();
  m

(* ---------------- wire codec ---------------- *)

let test_wire_roundtrip () =
  let m = cold_measure () in
  (match Core.Metrics.of_wire (Core.Metrics.to_wire m) with
  | Ok m' -> check measured "roundtrip" m m'
  | Error e -> Alcotest.fail e);
  (* pathological floats survive the hex codec bit-exactly *)
  let weird =
    { m with Core.Metrics.fmax_mhz = 0.1; throughput_mops = 1. /. 3. }
  in
  (match Core.Metrics.of_wire (Core.Metrics.to_wire weird) with
  | Ok w ->
      check bool "bit-exact floats" true
        (w.Core.Metrics.fmax_mhz = 0.1
        && w.Core.Metrics.throughput_mops = 1. /. 3.)
  | Error e -> Alcotest.fail e);
  match Core.Metrics.of_wire "1.0 2.0 3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated wire line accepted"

(* ---------------- store round trips and coherence ---------------- *)

let test_warm_hit_bit_identical () =
  let m_cold = cold_measure () in
  with_store (fun t ->
      (* cold through the store: computes and publishes *)
      let m1 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim in
      check measured "write-through equals cold" m_cold m1;
      check int "one entry" 1 (Store.entry_count t);
      (* new-process simulation: memo gone, disk warm *)
      Core.Evaluate.clear_measure_cache ();
      let m2 = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim in
      check measured "warm store hit bit-identical" m_cold m2;
      let s = Store.stats t in
      check int "one store hit" 1 s.Store.st_hits;
      check int "one store write" 1 s.Store.st_writes)

let test_clear_memo_keeps_disk () =
  with_store (fun t ->
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim);
      let entries = Store.entry_count t in
      Core.Evaluate.clear_measure_cache ();
      check int "entries survive clear_measure_cache" entries
        (Store.entry_count t);
      check bool "still readable" true (Store.find t ~key:victim_key <> None))

(* Sabotage the victim's entry with [mangle], then re-measure: the entry
   must be rejected (counted invalid), the measurement recomputed to the
   cold value, and the entry healed on disk by the write-through. *)
let sabotage_and_recover name mangle =
  let m_cold = cold_measure () in
  with_store (fun t ->
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim);
      let path = Store.entry_path t ~key:victim_key in
      mangle t path;
      Core.Evaluate.clear_measure_cache ();
      let m = Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim in
      check measured (name ^ ": re-measured value") m_cold m;
      check bool (name ^ ": counted invalid") true
        ((Store.stats t).Store.st_invalid >= 1);
      match Store.find t ~key:victim_key with
      | Some healed -> check measured (name ^ ": entry healed") m_cold healed
      | None -> Alcotest.fail (name ^ ": entry not rewritten"))

(* Flip the first byte of the metrics payload: the checksum no longer
   matches, so the entry must be rejected, not parsed. *)
let flip_metrics_byte _t path =
  let text = read_file path in
  let marker = "\nmetrics: " in
  let rec find i =
    if i + String.length marker > String.length text then
      failwith "no metrics line in entry"
    else if String.sub text i (String.length marker) = marker then
      i + String.length marker
    else find (i + 1)
  in
  let at = find 0 in
  let b = Bytes.of_string text in
  Bytes.set b at (if Bytes.get b at = 'Z' then 'Y' else 'Z');
  write_file path (Bytes.to_string b)

let test_corrupt_entry () = sabotage_and_recover "corrupt" flip_metrics_byte

let test_truncated_entry () =
  sabotage_and_recover "truncated" (fun _t path ->
      let text = read_file path in
      write_file path (String.sub text 0 (String.length text / 2)))

let test_version_skew_entry () =
  sabotage_and_recover "version skew" (fun _t path ->
      let text = read_file path in
      let rest_at = String.index text '\n' in
      write_file path
        (Printf.sprintf "hlsvhc-store %d%s"
           (Store.schema_version + 97)
           (String.sub text rest_at (String.length text - rest_at))))

let test_foreign_key_entry () =
  (* a valid, checksummed entry for a different key parked at this key's
     path (copied file, digest collision) must be rejected, not served *)
  sabotage_and_recover "foreign key" (fun t path ->
      let other = Core.Kernel.optimized idct Core.Design.Verilog in
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 other);
      let other_key =
        Core.Evaluate.measure_key ~matrices:2 ~spec:Core.Flow.idct_spec other
      in
      write_file path (read_file (Store.entry_path t ~key:other_key)))

let test_invalid_reported_once () =
  with_store (fun t ->
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim);
      let path = Store.entry_path t ~key:victim_key in
      write_file path "garbage\n";
      (* capture stderr across two probes of the same bad entry *)
      let log = Filename.temp_file "hlsvhc_store_log" ".txt" in
      let saved = Unix.dup Unix.stderr in
      flush stderr;
      let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stderr;
      Unix.close fd;
      let restore () =
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved
      in
      Fun.protect ~finally:restore (fun () ->
          check bool "probe 1 misses" true (Store.find t ~key:victim_key = None);
          check bool "probe 2 misses" true (Store.find t ~key:victim_key = None);
          flush stderr);
      (* Alcotest logs its own ASSERT lines to stderr; count only the
         store's complaints. *)
      let complaints =
        String.split_on_char '\n' (read_file log)
        |> List.filter (fun l ->
               String.length l >= 13 && String.sub l 0 13 = "hlsvhc: store")
      in
      check int "reported exactly once" 1 (List.length complaints);
      check int "counted every probe" 2 (Store.stats t).Store.st_invalid;
      Sys.remove log)

(* ---------------- write_atomic under contention ---------------- *)

let test_write_atomic_domain_race () =
  let dir = fresh_dir "hlsvhc_race" in
  let path = Filename.concat dir "contended.json" in
  let payload i =
    String.concat "\n"
      (List.init 4096 (fun k -> Printf.sprintf "writer %d line %d" i k))
  in
  let writers = 4 and rounds = 20 in
  let domains =
    List.init writers (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              Core.Trace.write_atomic path (fun oc ->
                  output_string oc (payload i))
            done))
  in
  List.iter Domain.join domains;
  let final = read_file path in
  check bool "file is one complete payload" true
    (List.exists (fun i -> final = payload i) (List.init writers Fun.id));
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> f <> "contended.json")
  in
  check (Alcotest.list string) "no temp leftovers" [] leftovers

let test_rename_durable_exdev () =
  (* /dev/shm is tmpfs on the CI container while TMPDIR sits on the root
     filesystem, so this rename genuinely crosses devices; where the two
     happen to share one, the same call exercises the plain path. *)
  let shm = "/dev/shm" in
  let src_dir =
    if Sys.file_exists shm && Sys.is_directory shm then shm
    else Filename.get_temp_dir_name ()
  in
  let src =
    Filename.concat src_dir (Printf.sprintf "hlsvhc_xdev_%d" (Unix.getpid ()))
  in
  let dst = Filename.temp_file "hlsvhc_xdev_dst" ".txt" in
  write_file src "payload across filesystems";
  Core.Trace.rename_durable ~src ~dst;
  check string "content survived the crossing" "payload across filesystems"
    (read_file dst);
  check bool "src consumed" false (Sys.file_exists src);
  Sys.remove dst

let test_write_error_typed () =
  (match
     Core.Trace.write_atomic "/nonexistent_hlsvhc_dir/x.json" (fun _ -> ())
   with
  | () -> Alcotest.fail "wrote into a nonexistent directory?"
  | exception Core.Trace.Write_error { wr_path; _ } ->
      check string "typed error names the target"
        "/nonexistent_hlsvhc_dir/x.json" wr_path
  | exception e ->
      Alcotest.fail ("expected Write_error, got " ^ Printexc.to_string e));
  let src = Filename.temp_file "hlsvhc_werr_src" ".txt" in
  write_file src "x";
  match Core.Trace.rename_durable ~src ~dst:"/nonexistent_hlsvhc_dir/y.txt" with
  | () -> Alcotest.fail "renamed into a nonexistent directory?"
  | exception Core.Trace.Write_error _ -> ()
  | exception e ->
      Alcotest.fail ("expected Write_error, got " ^ Printexc.to_string e)

(* ---------------- janitor: fsck and gc ---------------- *)

let test_fsck_clean_and_repair () =
  with_store (fun t ->
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 victim);
      let other = Core.Kernel.optimized idct Core.Design.Verilog in
      ignore (Core.Evaluate.measure ~spec:Core.Flow.idct_spec ~matrices:2 other);
      let dir = Store.dir t in
      (* a clean store fscks clean *)
      (match Store.fsck dir with
      | Ok r ->
          check int "clean: total" 2 r.Store.fk_total;
          check int "clean: valid" 2 r.Store.fk_valid;
          check int "clean: invalid" 0 (List.length r.Store.fk_invalid);
          check int "clean: nothing repaired" 0 r.Store.fk_repaired
      | Error e -> Alcotest.fail ("fsck clean: " ^ e));
      (* sabotage one real entry and park one garbage file; fsck must
         name both, for the right reasons *)
      flip_metrics_byte t (Store.entry_path t ~key:victim_key);
      write_file (Filename.concat dir "deadbeef.entry") "not an entry\n";
      (match Store.fsck dir with
      | Ok r ->
          check int "dirty: total" 3 r.Store.fk_total;
          check int "dirty: valid" 1 r.Store.fk_valid;
          check int "dirty: two invalid" 2 (List.length r.Store.fk_invalid);
          check int "dirty: report does not repair" 0 r.Store.fk_repaired
      | Error e -> Alcotest.fail ("fsck dirty: " ^ e));
      (* repair deletes exactly the invalid entries *)
      (match Store.fsck ~repair:true dir with
      | Ok r ->
          check int "repair: two deleted" 2 r.Store.fk_repaired;
          check bool "repair: garbage gone" false
            (Sys.file_exists (Filename.concat dir "deadbeef.entry"))
      | Error e -> Alcotest.fail ("fsck repair: " ^ e));
      (match Store.fsck dir with
      | Ok r ->
          check int "after repair: valid survivor kept" 1 r.Store.fk_valid;
          check int "after repair: clean" 0 (List.length r.Store.fk_invalid)
      | Error e -> Alcotest.fail ("fsck after repair: " ^ e));
      (* a missing directory is a typed error, not an exception *)
      match Store.fsck "/nonexistent_hlsvhc_store" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "fsck of a nonexistent directory succeeded")

(* Deterministic gc: synthesize entries with controlled mtimes and
   check the eviction order — oldest mtime first, ties by filename. *)
let gc_dir_with_entries specs =
  let dir = fresh_dir "hlsvhc_gc_test" in
  List.iter
    (fun (name, age_s) ->
      let path = Filename.concat dir name in
      write_file path (String.make 100 'x');
      let t = Unix.gettimeofday () -. age_s in
      Unix.utimes path t t)
    specs;
  dir

let surviving dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare

let test_gc_max_entries () =
  (* c oldest, then a/b tied one second back, then d newest: keeping 2
     must evict c (oldest) and a (tie broken by filename) *)
  let dir =
    gc_dir_with_entries
      [ ("a.entry", 100.); ("b.entry", 100.); ("c.entry", 200.); ("d.entry", 0.) ]
  in
  (match Store.gc ~max_entries:2 dir with
  | Ok r ->
      check int "gc: total" 4 r.Store.gr_total;
      check int "gc: kept" 2 r.Store.gr_kept;
      check int "gc: deleted" 2 r.Store.gr_deleted;
      check int "gc: bytes before" 400 r.Store.gr_bytes_before;
      check int "gc: bytes after" 200 r.Store.gr_bytes_after;
      check (Alcotest.list string) "gc: newest survive, ties by name"
        [ "b.entry"; "d.entry" ] (surviving dir)
  | Error e -> Alcotest.fail ("gc max-entries: " ^ e));
  (* idempotent: already under budget, nothing deleted *)
  (match Store.gc ~max_entries:2 dir with
  | Ok r -> check int "gc: idempotent" 0 r.Store.gr_deleted
  | Error e -> Alcotest.fail ("gc rerun: " ^ e));
  (* no budget is a usage error, not a wipe *)
  match Store.gc dir with
  | Error _ -> check int "gc no budget leaves entries" 2
      (List.length (surviving dir))
  | Ok _ -> Alcotest.fail "gc with no budget accepted"

let test_gc_max_bytes () =
  let dir =
    gc_dir_with_entries
      [ ("a.entry", 300.); ("b.entry", 200.); ("c.entry", 100.) ]
  in
  match Store.gc ~max_bytes:250 dir with
  | Ok r ->
      check int "gc bytes: deleted one" 1 r.Store.gr_deleted;
      check bool "gc bytes: under budget" true (r.Store.gr_bytes_after <= 250);
      check (Alcotest.list string) "gc bytes: oldest evicted"
        [ "b.entry"; "c.entry" ] (surviving dir)
  | Error e -> Alcotest.fail ("gc max-bytes: " ^ e)

let test_entry_count_survives_rmdir () =
  let dir = fresh_dir "hlsvhc_store_gone" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let t = Result.get_ok (Store.attach dir) in
  Fun.protect
    ~finally:(fun () ->
      Store.detach ();
      Core.Evaluate.clear_measure_cache ())
    (fun () ->
      check int "empty store counts 0" 0 (Store.entry_count t);
      Unix.rmdir dir;
      (* the directory vanished under a live handle: stats must degrade
         to 0, not raise *)
      check int "removed dir counts 0" 0 (Store.entry_count t);
      check int "still 0 on the second probe" 0 (Store.entry_count t))

(* ---------------- --tools parsing (dedupe) ---------------- *)

let tool_list : Core.Design.tool list Alcotest.testable =
  Alcotest.testable
    (fun ppf ts ->
      Format.pp_print_string ppf
        (String.concat "," (List.map Core.Design.tool_name ts)))
    ( = )

let test_parse_tools_dedupes () =
  (match Core.Registry.parse_tools "vhls,vhls" with
  | Ok ts -> check tool_list "same name twice" [ Core.Design.Vivado_hls ] ts
  | Error e -> Alcotest.fail e);
  (match Core.Registry.parse_tools "verilog,bsv,verilog" with
  | Ok ts ->
      check tool_list "first-mention order kept"
        [ Core.Design.Verilog; Core.Design.Bsv ]
        ts
  | Error e -> Alcotest.fail e);
  (* two aliases of one tool are one tool, not two sweep passes *)
  (match Core.Registry.parse_tools "vhls,vivado-hls" with
  | Ok ts -> check tool_list "aliases collapse" [ Core.Design.Vivado_hls ] ts
  | Error e -> Alcotest.fail e);
  match Core.Registry.parse_tools "verilog,nosuch" with
  | Error msg -> check bool "unknown name rejected" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "unknown tool accepted"

let () =
  Alcotest.run "store"
    [
      ( "codec",
        [
          Alcotest.test_case "metrics wire roundtrip" `Quick
            test_wire_roundtrip;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "warm hit bit-identical" `Quick
            test_warm_hit_bit_identical;
          Alcotest.test_case "clear_measure_cache keeps disk" `Quick
            test_clear_memo_keeps_disk;
          Alcotest.test_case "corrupt entry re-measured" `Quick
            test_corrupt_entry;
          Alcotest.test_case "truncated entry re-measured" `Quick
            test_truncated_entry;
          Alcotest.test_case "version skew re-measured" `Quick
            test_version_skew_entry;
          Alcotest.test_case "foreign key rejected" `Quick
            test_foreign_key_entry;
          Alcotest.test_case "invalid entry reported once" `Quick
            test_invalid_reported_once;
        ] );
      ( "atomic-writes",
        [
          Alcotest.test_case "N domains race one path" `Quick
            test_write_atomic_domain_race;
          Alcotest.test_case "rename crosses filesystems" `Quick
            test_rename_durable_exdev;
          Alcotest.test_case "failures are typed" `Quick test_write_error_typed;
        ] );
      ( "janitor",
        [
          Alcotest.test_case "fsck: clean, dirty, repair" `Quick
            test_fsck_clean_and_repair;
          Alcotest.test_case "gc --max-entries deterministic" `Quick
            test_gc_max_entries;
          Alcotest.test_case "gc --max-bytes oldest-first" `Quick
            test_gc_max_bytes;
          Alcotest.test_case "entry_count survives rmdir" `Quick
            test_entry_count_survives_rmdir;
        ] );
      ( "parse-tools",
        [
          Alcotest.test_case "duplicates collapse" `Quick
            test_parse_tools_dedupes;
        ] );
    ]
