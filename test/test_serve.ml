(* Soak and hostile-traffic tests for the [hlsvhc serve] daemon
   (DESIGN.md §14, §16): concurrent clients, mixed memo/store hits and
   misses, an injected engine crash mid-request, and the hardening
   layer — silent clients timed out while healthy ones are served,
   half-line hangups, mid-response drops, oversized batches, load
   shedding with a deterministically-retrying client, and a SIGTERM
   graceful drain.

   Every hostile path is driven deterministically: by raw sockets doing
   exactly the wrong thing, or by the connection fault specs
   ([slow-client]/[conn-drop]/[shed]) with counted seeds.  No sleep here
   exceeds the connection timeout under test. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let faulted_label = "1 row + 8 col units"
(* span key = "Tool/label", and the Verilog tool's display name is its
   toolchain, Vivado *)
let faulted_key = "Vivado/" ^ faulted_label

let eval_initial = Serve.Client.eval_line ~tool:"verilog" ~label:"initial" ~matrices:2 ()
let eval_optimized = Serve.Client.eval_line ~tool:"verilog" ~label:"optimized" ~matrices:2 ()
let eval_faulted = Serve.Client.eval_line ~tool:"verilog" ~label:faulted_label ~matrices:1 ()

let batch = [ eval_initial; eval_optimized; eval_faulted; "ping" ]

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let tmp_path pat =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf pat (Unix.getpid ()))

(* A raw client socket for doing precisely the wrong thing. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send_string fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

(* Block until the server closes the fd (EOF), bounded by [timeout_s];
   true iff EOF arrived in time. *)
let wait_eof ?(timeout_s = 5.0) fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read fd b 0 256 with
    | 0 -> true
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
  in
  go ()

let check_batch_responses who responses =
  match responses with
  | [ r1; r2; r3; r4 ] ->
      (match Serve.Client.parse_metrics r1 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (who ^ ": initial not ok: " ^ e));
      (match Serve.Client.parse_metrics r2 with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (who ^ ": optimized not ok: " ^ e));
      check bool (who ^ ": faulted point answers err") true
        (has_prefix ~prefix:"err\t" r3);
      check bool (who ^ ": error names the design") true
        (contains ~sub:faulted_key r3);
      check bool (who ^ ": error typed synth-failure") true
        (contains ~sub:"synth-failure" r3);
      check string (who ^ ": ping still answered") "ok\tpong" r4
  | rs ->
      Alcotest.fail
        (Printf.sprintf "%s: %d responses to a 4-request batch" who
           (List.length rs))

let test_soak () =
  let socket = tmp_path "hlsvhc_serve_%d.sock" in
  let store_dir = tmp_path "hlsvhc_serve_store_%d" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let store = Result.get_ok (Store.attach store_dir) in
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      jobs = Some 2;
      store = Some store;
    }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  let cleanup () =
    Core.Faultinject.disarm ();
    Store.detach ();
    Core.Evaluate.clear_measure_cache ();
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Serve.Client.wait_ready ~socket ();
      (* one design's synthesis stage crashes on every attempt *)
      Core.Faultinject.arm
        { Core.Faultinject.fault = Crash "synthesize";
          target = faulted_key;
          seed = 0;
        };
      let clients =
        List.init 3 (fun _c ->
            Domain.spawn (fun () ->
                List.init 2 (fun _ -> Serve.Client.request ~socket batch)))
      in
      let all_responses = List.map Domain.join clients in
      List.iteri
        (fun c batches ->
          List.iteri
            (fun b rs ->
              check_batch_responses (Printf.sprintf "client %d batch %d" c b) rs)
            batches)
        all_responses;
      (* heal: disarm and re-request the point that kept failing *)
      Core.Faultinject.disarm ();
      (match Serve.Client.request ~socket [ eval_faulted ] with
      | [ r ] -> (
          match Serve.Client.parse_metrics r with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("healed request not ok: " ^ e))
      | rs ->
          Alcotest.fail
            (Printf.sprintf "%d responses to the healed request"
               (List.length rs)));
      (* truthful counters: 3 clients x 2 batches x 3 evals + 1 healed *)
      (match Serve.Client.request ~socket [ "stats" ] with
      | [ s ] ->
          check bool "stats is ok" true (has_prefix ~prefix:"ok\t" s);
          check bool "19 evals served" true (contains ~sub:"evals=19" s);
          check bool "6 injected failures" true (contains ~sub:"errors=6" s);
          check bool "no timeouts in a healthy soak" true
            (contains ~sub:"timeouts=0" s);
          check bool "nothing shed in a healthy soak" true
            (contains ~sub:"shed=0" s);
          check bool "stats reports the store" true
            (contains ~sub:("store=" ^ store_dir) s)
      | rs ->
          Alcotest.fail
            (Printf.sprintf "%d responses to stats" (List.length rs)));
      (* orderly shutdown *)
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs ->
          Alcotest.fail ("unexpected shutdown reply: " ^ String.concat "; " rs));
      let counters = Domain.join server in
      check int "daemon counted every error" 6
        (Atomic.get counters.Serve.eval_errors);
      check int "daemon counted every eval" 19
        (Atomic.get counters.Serve.evals);
      (* only successful measurements persist: initial@2, optimized@2 and
         the healed faulted point@1 *)
      check int "store holds the three good results" 3
        (Store.entry_count store);
      (* the acceptance criterion: after the soak, fsck finds nothing to
         complain about *)
      match Store.fsck store_dir with
      | Ok r ->
          check int "fsck: 3 entries" 3 r.Store.fk_total;
          check int "fsck: 0 invalid after the soak" 0
            (List.length r.Store.fk_invalid)
      | Error e -> Alcotest.fail ("fsck after soak: " ^ e))

(* Restart survival, in its own daemon so the soak's counters stay its
   own: after a cold batch, the in-process memo is cleared and the same
   batch again must be answered entirely from the validated disk store. *)
let test_warm_store () =
  let socket = tmp_path "hlsvhc_serve_warm_%d.sock" in
  let store_dir = tmp_path "hlsvhc_serve_warm_store_%d" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let store = Result.get_ok (Store.attach store_dir) in
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      jobs = Some 2;
      store = Some store;
    }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  let cleanup () =
    Store.detach ();
    Core.Evaluate.clear_measure_cache ();
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      Serve.Client.wait_ready ~socket ();
      let evals =
        List.map
          (fun label ->
            Serve.Client.eval_line ~tool:"verilog" ~label ~matrices:2 ())
          [ "initial"; faulted_label; "optimized" ]
      in
      let answer who =
        let rs = Serve.Client.request ~socket evals in
        check int (who ^ ": one answer per eval") 3 (List.length rs);
        List.iter
          (fun r ->
            match Serve.Client.parse_metrics r with
            | Ok _ -> ()
            | Error e -> Alcotest.fail (who ^ ": " ^ e))
          rs
      in
      answer "cold";
      let hits = (Store.stats store).Store.st_hits in
      Core.Evaluate.clear_measure_cache ();
      answer "warm";
      check int "every warm answer is a store hit" (hits + 3)
        (Store.stats store).Store.st_hits;
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs ->
          Alcotest.fail ("unexpected shutdown reply: " ^ String.concat "; " rs));
      ignore (Domain.join server))

let test_bad_requests () =
  let socket = tmp_path "hlsvhc_serve_bad_%d.sock" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let cfg =
    { (Serve.default_config ~socket_path:socket) with jobs = Some 1 }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      Core.Evaluate.clear_measure_cache ();
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Client.wait_ready ~socket ();
      let lines =
        [
          "eval\tnosuchtool\t2\tinitial";
          "eval\tverilog\t0\tinitial";
          "eval\tverilog\t2\tno such label";
          (* the optional 5th field must be a registered kernel, and the
             tool must belong to that kernel's inventory *)
          "eval\tverilog\t2\tinitial\tnosuchkernel";
          "eval\tverilog\t2\tinitial\tfir8";
          "frobnicate";
          "ping";
          (* a kernel-qualified eval of a real design point succeeds *)
          Serve.Client.eval_line ~kernel:"fir8" ~tool:"chisel" ~label:"fir"
            ~matrices:1 ();
        ]
      in
      (match Serve.Client.request ~socket lines with
      | [ b1; b2; b3; b4; b5; b6; ok; fir ] ->
          List.iter
            (fun b ->
              check bool "malformed request answers bad" true
                (has_prefix ~prefix:"bad\t" b))
            [ b1; b2; b3; b4; b5; b6 ];
          check bool "unknown kernel diagnosed" true
            (has_prefix ~prefix:"bad\tunknown kernel" b4);
          check string "daemon unpoisoned" "ok\tpong" ok;
          check bool "kernel-qualified eval answers ok" true
            (has_prefix ~prefix:"ok\t" fir);
          check bool "kernel-qualified metrics parse" true
            (Result.is_ok (Serve.Client.parse_metrics fir))
      | rs ->
          Alcotest.fail
            (Printf.sprintf "%d responses to an 8-request batch"
               (List.length rs)));
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs ->
          Alcotest.fail ("unexpected shutdown reply: " ^ String.concat "; " rs));
      ignore (Domain.join server))

(* A client that connects and never sends must cost one worker slot for
   the connection timeout — a concurrent healthy client is answered
   meanwhile — and then be closed and counted.  A client that sends half
   a line and hangs up is a drop, not a crash. *)
let test_hostile_clients () =
  let socket = tmp_path "hlsvhc_serve_hostile_%d.sock" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let timeout = 0.6 in
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      jobs = Some 1;
      conn_workers = 2;
      conn_timeout = timeout;
      batch_deadline = 2.0 *. timeout;
    }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      Core.Evaluate.clear_measure_cache ();
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Client.wait_ready ~socket ();
      (* connect-and-silence, holding a slot... *)
      let silent = raw_connect socket in
      (* ...while a healthy client is served by the other worker *)
      let t0 = Unix.gettimeofday () in
      (match Serve.Client.request ~socket [ eval_initial; "ping" ] with
      | [ m; "ok\tpong" ] ->
          check bool "healthy client answered beside a silent one" true
            (Result.is_ok (Serve.Client.parse_metrics m))
      | rs ->
          Alcotest.fail
            ("healthy client beside silent one: " ^ String.concat "; " rs));
      check bool "healthy client answered within the silent one's timeout"
        true
        (Unix.gettimeofday () -. t0 < timeout +. 2.0);
      (* the silent connection is closed by the daemon, not held forever *)
      check bool "silent client closed after the deadline" true
        (wait_eof ~timeout_s:(4.0 *. timeout) silent);
      (try Unix.close silent with Unix.Unix_error _ -> ());
      (* half a line, then hangup: a drop, and the daemon keeps serving *)
      let half = raw_connect socket in
      send_string half "eval\tveri";
      Unix.close half;
      (* disconnect mid-response, server-side injected: conn-drop with
         seed 1 writes exactly one of two responses then hangs up *)
      Core.Faultinject.arm
        { Core.Faultinject.fault = Conn_drop; target = ""; seed = 1 };
      (match Serve.Client.request_result ~socket [ "ping"; "ping" ] with
      | Error (Serve.Client.Closed_mid_response [ "ok\tpong" ]) -> ()
      | Error e ->
          Alcotest.fail
            ("conn-drop: wrong error: " ^ Serve.Client.error_to_string e)
      | Ok rs ->
          Alcotest.fail ("conn-drop: unexpectedly ok: " ^ String.concat ";" rs));
      Core.Faultinject.disarm ();
      (* the daemon survived all of it *)
      (match Serve.Client.request ~socket [ "stats" ] with
      | [ s ] ->
          check bool "stats ok after hostile clients" true
            (has_prefix ~prefix:"ok\t" s);
          check bool "silent client counted as timeout" true
            (contains ~sub:"timeouts=1" s);
          check bool "hangups counted as drops" true (contains ~sub:"drops=" s)
      | rs -> Alcotest.fail ("stats: " ^ String.concat "; " rs));
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs -> Alcotest.fail ("shutdown: " ^ String.concat "; " rs));
      let counters = Domain.join server in
      check int "one connection timed out" 1
        (Atomic.get counters.Serve.conn_timeouts);
      (* the half-line hangup and the injected drop *)
      check int "two connections dropped" 2 (Atomic.get counters.Serve.drops))

(* An oversized batch answers one [bad] line instead of buffering
   unboundedly. *)
let test_oversized_batch () =
  let socket = tmp_path "hlsvhc_serve_big_%d.sock" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let cfg =
    {
      (Serve.default_config ~socket_path:socket) with
      jobs = Some 1;
      max_batch = 4;
    }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      Core.Evaluate.clear_measure_cache ();
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Client.wait_ready ~socket ();
      (match
         Serve.Client.request_result ~socket
           [ "ping"; "ping"; "ping"; "ping"; "ping"; "ping" ]
       with
      | Error (Serve.Client.Closed_mid_response [ only ]) ->
          check bool "oversized batch answers one bad line" true
            (has_prefix ~prefix:"bad\tbatch too large" only)
      | Ok rs ->
          Alcotest.fail
            ("oversized batch unexpectedly ok: " ^ String.concat "; " rs)
      | Error e ->
          Alcotest.fail
            ("oversized batch: wrong error: " ^ Serve.Client.error_to_string e));
      (* a normal-size batch right after still works *)
      (match Serve.Client.request ~socket [ "ping" ] with
      | [ "ok\tpong" ] -> ()
      | rs -> Alcotest.fail ("after oversize: " ^ String.concat "; " rs));
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs -> Alcotest.fail ("shutdown: " ^ String.concat "; " rs));
      ignore (Domain.join server))

(* Load shedding round-trip: the [shed] fault (seed 2) sheds exactly the
   first two connections with [busy\tretry-after\tMS]; a plain request
   sees the typed [Busy], and the seeded retrying client backs off and
   succeeds on its third attempt. *)
let test_shed_and_retry () =
  let socket = tmp_path "hlsvhc_serve_shed_%d.sock" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let cfg =
    { (Serve.default_config ~socket_path:socket) with jobs = Some 1 }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      Core.Faultinject.disarm ();
      Core.Evaluate.clear_measure_cache ();
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Client.wait_ready ~socket ();
      (* the schedule itself is deterministic and grows *)
      let d1 = Serve.Client.retry_delays ~seed:7 ~attempts:4 ~base_ms:25 in
      let d2 = Serve.Client.retry_delays ~seed:7 ~attempts:4 ~base_ms:25 in
      check (Alcotest.list int) "same seed, same backoff schedule" d1 d2;
      check bool "backoff grows" true
        (List.nth d1 3 > List.nth d1 0);
      check bool "different seed, different jitter" true
        (d1 <> Serve.Client.retry_delays ~seed:8 ~attempts:4 ~base_ms:25);
      Core.Faultinject.arm
        { Core.Faultinject.fault = Shed; target = ""; seed = 2 };
      (* a non-retrying client sees the typed Busy with the hint *)
      (match Serve.Client.request_result ~socket [ "ping" ] with
      | Error (Serve.Client.Busy ms) ->
          check int "busy carries the daemon's retry-after hint" 100 ms
      | Error e ->
          Alcotest.fail ("shed: wrong error: " ^ Serve.Client.error_to_string e)
      | Ok rs -> Alcotest.fail ("shed: unexpectedly ok: " ^ String.concat ";" rs));
      (* one shed remains; the retrying client eats it and succeeds *)
      (match
         Serve.Client.request_retry ~seed:1 ~base_ms:5 ~socket
           [ "ping"; eval_initial ]
       with
      | Ok [ "ok\tpong"; m ] ->
          check bool "retried batch metrics parse" true
            (Result.is_ok (Serve.Client.parse_metrics m))
      | Ok rs -> Alcotest.fail ("retry: odd responses: " ^ String.concat ";" rs)
      | Error e ->
          Alcotest.fail
            ("retrying client did not recover: "
           ^ Serve.Client.error_to_string e));
      Core.Faultinject.disarm ();
      (match Serve.Client.request ~socket [ "shutdown" ] with
      | [ "ok\tbye" ] -> ()
      | rs -> Alcotest.fail ("shutdown: " ^ String.concat "; " rs));
      let counters = Domain.join server in
      check int "exactly two connections shed" 2
        (Atomic.get counters.Serve.shed))

(* SIGTERM mid-traffic drains: the in-flight batch is answered, the
   daemon returns its counters, and the socket file is unlinked. *)
let test_sigterm_drain () =
  let socket = tmp_path "hlsvhc_serve_drain_%d.sock" in
  Store.detach ();
  Core.Evaluate.clear_measure_cache ();
  let cfg =
    { (Serve.default_config ~socket_path:socket) with jobs = Some 1 }
  in
  let server = Domain.spawn (fun () -> Serve.run cfg) in
  Fun.protect
    ~finally:(fun () ->
      Core.Evaluate.clear_measure_cache ();
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Client.wait_ready ~socket ();
      let sent = Atomic.make false in
      let client =
        Domain.spawn (fun () ->
            (* raw client so we control the phases: send the batch, let
               the main domain fire SIGTERM, then collect responses *)
            let fd = raw_connect socket in
            send_string fd (eval_initial ^ "\nping\n\n");
            Atomic.set sent true;
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
            let buf = Buffer.create 256 in
            let b = Bytes.create 1024 in
            let rec slurp () =
              match Unix.read fd b 0 1024 with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes buf b 0 n;
                  slurp ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            in
            slurp ();
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Buffer.contents buf)
      in
      while not (Atomic.get sent) do
        Unix.sleepf 0.005
      done;
      (* give the acceptor a beat to hand the connection to a worker,
         then ask the whole process to drain *)
      Unix.sleepf 0.15;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      let answers = Domain.join client in
      check bool "in-flight batch answered during drain" true
        (contains ~sub:"ok\tpong" answers
        && has_prefix ~prefix:"ok\t" answers);
      let counters = Domain.join server in
      (* the readiness ping plus the raw batch client *)
      check int "drained daemon served both connections" 2
        (Atomic.get counters.Serve.conns);
      check bool "socket unlinked after drain" false (Sys.file_exists socket);
      (* the daemon restored the default SIGTERM disposition on exit *)
      match Sys.signal Sys.sigterm Sys.Signal_default with
      | Sys.Signal_default -> ()
      | _ -> Alcotest.fail "SIGTERM disposition not restored")

let () =
  Alcotest.run "serve"
    [
      ( "daemon",
        [
          Alcotest.test_case "soak: concurrent clients + injected crash" `Quick
            test_soak;
          Alcotest.test_case "malformed requests poison nothing" `Quick
            test_bad_requests;
          Alcotest.test_case "warm batch served from the store" `Quick
            test_warm_store;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "silent + half-line + dropped clients" `Quick
            test_hostile_clients;
          Alcotest.test_case "oversized batch answers one bad line" `Quick
            test_oversized_batch;
          Alcotest.test_case "shed busy round-trip, retrying client heals"
            `Quick test_shed_and_retry;
          Alcotest.test_case "SIGTERM drains: batch answered, socket unlinked"
            `Quick test_sigterm_drain;
        ] );
    ]
