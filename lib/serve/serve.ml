(* The evaluation daemon behind [hlsvhc serve] (DESIGN.md §14, §16).

   A long-lived acceptor on a Unix domain socket dispatching onto a
   bounded pool of connection-worker domains: clients connect, send one
   batch of tab-separated request lines terminated by a blank line, and
   get back exactly one response line per request, in request order.
   All [eval] requests of a batch are fanned out together onto the
   [Core.Parallel] domain pool (grouped by kernel and stream length,
   since the measure key includes both), under keep-going semantics: a
   design point that fails mid-request answers with its typed
   [Flow.error] while the rest of the batch completes — an injected
   engine crash takes down one response, never the daemon.

   The hardening model (DESIGN.md §16) in one paragraph: a slow or
   hostile client costs one worker slot for at most the connection
   deadline, never the daemon — reads and writes carry an idle timeout
   ([conn_timeout], SO_RCVTIMEO/SO_SNDTIMEO) plus a total receive
   deadline ([batch_deadline]); a wedged read answers nothing, closes
   the socket and counts [conn_timeouts].  Beyond [max_inflight]
   accepted-but-unfinished connections the daemon answers
   [busy\tretry-after\tMS] immediately instead of queueing unboundedly
   ([shed]).  SIGTERM/SIGINT (or a [shutdown] request) flips the daemon
   into draining: stop accepting, finish every in-flight and queued
   batch, print a final stats line, unlink the socket, return.

   Layered under the pool is the usual cache stack: the in-process memo
   first, then (when attached) the persistent content-addressed store,
   so every client of one daemon — and every future daemon over the same
   store directory — shares one warm result set.

   Wire protocol (one line per request/response, fields tab-separated;
   labels may contain spaces but never tabs):

     eval\tTOOL\tMATRICES\tLABEL[\tKERNEL]
                                   ->  ok\tMETRICS-WIRE
                                   |   err\tDESIGN\tSTAGE\tCLASS\tDETAIL
     ping                          ->  ok\tpong
     stats                         ->  ok\tk=v ...
     shutdown                      ->  ok\tbye     (daemon drains after
                                                    answering the batch)
   A connection accepted over the in-flight limit is answered with the
   single line  busy\tretry-after\tMS  and closed; clients should back
   off at least MS milliseconds.  The optional fifth [eval] field names
   the kernel whose design inventory the tool/label pair is resolved
   against (Core.Kernel); absent means the paper's IDCT, so every
   pre-kernel client speaks the protocol unchanged.  A request the
   server cannot parse (unknown verb, unknown tool, kernel or label,
   bad matrices) answers  bad\tREASON  and poisons nothing. *)

type request =
  | Eval of {
      design : Core.Design.t;
      matrices : int;
      spec : Core.Flow.spec;
    }
  | Ping
  | Stats
  | Shutdown

type config = {
  socket_path : string;
  jobs : int option;          (* Parallel pool size for each batch *)
  store : Store.t option;     (* already attached; here for [stats] *)
  max_conns : int option;     (* drain after N connections (tests/bench) *)
  conn_workers : int;         (* connection-handling domains *)
  conn_timeout : float;       (* idle read/write deadline, seconds *)
  batch_deadline : float;     (* total batch-receive budget, seconds *)
  max_inflight : int;         (* shed accepted connections beyond this *)
  max_batch : int;            (* request lines per batch *)
  retry_after_ms : int;       (* hint on the busy line *)
}

let default_config ~socket_path =
  {
    socket_path;
    jobs = None;
    store = None;
    max_conns = None;
    conn_workers = 4;
    conn_timeout = 30.0;
    batch_deadline = 120.0;
    max_inflight = 16;
    max_batch = 256;
    retry_after_ms = 100;
  }

type counters = {
  conns : int Atomic.t;
  evals : int Atomic.t;
  eval_errors : int Atomic.t;
  memo_hits : int Atomic.t;
  conn_timeouts : int Atomic.t;  (* connections closed on a deadline *)
  shed : int Atomic.t;           (* connections answered busy *)
  drops : int Atomic.t;          (* connections that hung up mid-batch
                                    or mid-response (incl. injected) *)
}

let make_counters () =
  {
    conns = Atomic.make 0;
    evals = Atomic.make 0;
    eval_errors = Atomic.make 0;
    memo_hits = Atomic.make 0;
    conn_timeouts = Atomic.make 0;
    shed = Atomic.make 0;
    drops = Atomic.make 0;
  }

(* ---------------- deadline-aware line IO ---------------- *)

(* Both sides of the protocol read lines off a socket that may stop
   cooperating at any moment.  [Lineio] wraps a fd with a byte buffer
   and gives every read two bounds: the socket's own idle timeout
   (SO_RCVTIMEO — a read that sits idle that long raises EAGAIN) and a
   caller-supplied wall-clock deadline (a client trickling one byte per
   idle period cannot hold a slot forever). *)
module Lineio = struct
  type t = {
    fd : Unix.file_descr;
    buf : Bytes.t;
    mutable pos : int;  (* consumed prefix of [buf.(0..len)] *)
    mutable len : int;  (* valid bytes in [buf] *)
    line : Buffer.t;
    max_line : int;
  }

  let create ?(max_line = 65536) ~idle fd =
    (* idle <= 0 would mean "block forever" to the kernel — clamp to a
       small positive floor instead so a misconfigured daemon still
       times out. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max idle 0.01);
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO (Float.max idle 0.01);
    { fd; buf = Bytes.create 4096; pos = 0; len = 0; line = Buffer.create 128;
      max_line }

  (* One line, without its '\n'.  [`Timeout] covers both the idle
     timeout and the deadline; [`Eof] is a peer hangup before the
     newline (partial-line bytes are discarded — half a line is not a
     request). *)
  let read_line t ~deadline =
    Buffer.clear t.line;
    let rec go () =
      if t.pos < t.len then begin
        match Bytes.index_from_opt t.buf t.pos '\n' with
        | Some i when i < t.len ->
            Buffer.add_subbytes t.line t.buf t.pos (i - t.pos);
            t.pos <- i + 1;
            `Line (Buffer.contents t.line)
        | _ ->
            Buffer.add_subbytes t.line t.buf t.pos (t.len - t.pos);
            t.pos <- t.len;
            if Buffer.length t.line > t.max_line then `Oversized else go ()
      end
      else if Unix.gettimeofday () > deadline then `Timeout
      else begin
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> `Eof
        | n ->
            t.pos <- 0;
            t.len <- n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            `Timeout
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            `Eof
      end
    in
    go ()

  (* Write everything or say why not; SO_SNDTIMEO turns a peer that
     stopped reading into [`Timeout] instead of a blocked worker. *)
  let write_all t s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off >= n then `Ok
      else
        match Unix.write t.fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            `Timeout
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            `Closed
    in
    go 0
end

(* ---------------- request parsing ---------------- *)

let label_index kernel tool =
  match Core.Kernel.inventory kernel tool with
  | None -> []
  | Some inv ->
      inv.Core.Kernel.inv_sweep
      @ [ inv.Core.Kernel.inv_initial; inv.Core.Kernel.inv_optimized ]

let find_design ~kernel ~tool ~label =
  List.find_opt (fun (d : Core.Design.t) -> d.Core.Design.label = label)
    (label_index kernel tool)

let parse_eval ~tool ~matrices ~label ~kernel =
  match Core.Kernel.parse_kernel kernel with
  | None -> Error (Core.Kernel.unknown_kernel_msg kernel)
  | Some k -> (
      match Core.Registry.parse_tool tool with
      | None -> Error (Core.Registry.unknown_tool_msg tool)
      | Some t when not (List.mem t (Core.Kernel.tools k)) ->
          Error
            (Printf.sprintf "kernel %s has no %s designs (tools: %s)"
               (Core.Kernel.name k) tool
               (String.concat ", "
                  (List.map Core.Design.tool_name (Core.Kernel.tools k))))
      | Some t -> (
          match int_of_string_opt matrices with
          | Some m when m >= 1 -> (
              match find_design ~kernel:k ~tool:t ~label with
              | Some design ->
                  Ok (Eval { design; matrices = m; spec = Core.Kernel.spec k })
              | None ->
                  Error
                    (Printf.sprintf "unknown %s design label %S" tool label))
          | _ ->
              Error
                (Printf.sprintf "bad matrices count %S (want a positive int)"
                   matrices)))

let parse_request line =
  match String.split_on_char '\t' line with
  | [ "ping" ] -> Ok Ping
  | [ "stats" ] -> Ok Stats
  | [ "shutdown" ] -> Ok Shutdown
  | [ "eval"; tool; matrices; label ] ->
      parse_eval ~tool ~matrices ~label ~kernel:"idct"
  | [ "eval"; tool; matrices; label; kernel ] ->
      parse_eval ~tool ~matrices ~label ~kernel
  | verb :: _ -> Error (Printf.sprintf "unknown request %S" verb)
  | [] -> Error "empty request"

(* Response lines must stay single-line, tab-clean in the detail field. *)
let clean s =
  String.map (function '\t' | '\n' | '\r' -> ' ' | c -> c) s

let err_line (e : Core.Flow.error) =
  Printf.sprintf "err\t%s\t%s\t%s\t%s"
    (clean e.Core.Flow.err_design)
    (clean e.Core.Flow.err_stage)
    (Core.Flow.class_name e.Core.Flow.err_class)
    (clean (Core.Flow.class_detail e.Core.Flow.err_class))

let busy_line ms = Printf.sprintf "busy\tretry-after\t%d" ms

let stats_line cfg c =
  let store_part =
    match cfg.store with
    | None -> "store=none"
    | Some st ->
        let s = Store.stats st in
        Printf.sprintf
          "store=%s store_hits=%d store_misses=%d store_writes=%d \
           store_invalid=%d store_entries=%d"
          (clean (Store.dir st))
          s.Store.st_hits s.Store.st_misses s.Store.st_writes
          s.Store.st_invalid (Store.entry_count st)
  in
  Printf.sprintf
    "ok\tconns=%d evals=%d errors=%d memo_hits=%d timeouts=%d shed=%d \
     drops=%d %s"
    (Atomic.get c.conns) (Atomic.get c.evals) (Atomic.get c.eval_errors)
    (Atomic.get c.memo_hits)
    (Atomic.get c.conn_timeouts)
    (Atomic.get c.shed) (Atomic.get c.drops) store_part

(* One connection = one batch.  Evals are grouped by (kernel, matrices)
   — the pool API takes one spec and stream length per batch, and both
   are part of the measure key — and each group fans out on the domain
   pool; responses reassemble in request order. *)
let handle_batch cfg counters lines =
  let parsed = List.map parse_request lines in
  (* indexed evals, grouped by (kernel, matrices) *)
  let indexed =
    List.mapi (fun i r -> (i, r)) parsed
    |> List.filter_map (fun (i, r) ->
           match r with
           | Ok (Eval { design; matrices; spec }) ->
               Some (i, design, matrices, spec)
           | _ -> None)
  in
  let groups =
    List.fold_left
      (fun acc (i, design, matrices, spec) ->
        let key = (spec.Core.Flow.spec_name, matrices) in
        match List.assoc_opt key acc with
        | Some (sp, prev) ->
            (key, (sp, (i, design) :: prev)) :: List.remove_assoc key acc
        | None -> (key, (spec, [ (i, design) ])) :: acc)
      [] indexed
  in
  let outcomes = Hashtbl.create 16 in
  List.iter
    (fun ((_, matrices), (spec, rev_items)) ->
      let items = List.rev rev_items in
      let designs = List.map snd items in
      List.iter
        (fun d ->
          Atomic.incr counters.evals;
          if Core.Evaluate.is_cached ~matrices ~spec d then
            Atomic.incr counters.memo_hits)
        designs;
      let results =
        Core.Evaluate.measure_all_result ?jobs:cfg.jobs ~matrices ~spec designs
      in
      List.iter2
        (fun (i, _) r ->
          (match r with
          | Error _ -> Atomic.incr counters.eval_errors
          | Ok _ -> ());
          Hashtbl.replace outcomes i r)
        items results)
    groups;
  let shutdown = ref false in
  let responses =
    List.mapi
      (fun i r ->
        match r with
        | Error reason -> "bad\t" ^ clean reason
        | Ok Ping -> "ok\tpong"
        | Ok Stats -> stats_line cfg counters
        | Ok Shutdown ->
            shutdown := true;
            "ok\tbye"
        | Ok (Eval _) -> (
            match Hashtbl.find outcomes i with
            | Ok m -> "ok\t" ^ Core.Metrics.to_wire m
            | Error e -> err_line e))
      parsed
  in
  (responses, !shutdown)

(* ---------------- per-connection handling ---------------- *)

(* Receive one batch: lines until the blank terminator, under the idle
   timeout and the total deadline.  A [Slow_client] fault turns the
   read into discard-until-deadline — the deterministic stand-in for a
   client that connects and never finishes its batch. *)
let recv_batch cfg io ~discard =
  let deadline = Unix.gettimeofday () +. cfg.batch_deadline in
  let rec go acc n =
    match Lineio.read_line io ~deadline with
    | `Line _ when discard -> go acc n
    | `Line "" -> `Batch (List.rev acc)
    | `Line l ->
        if n + 1 > cfg.max_batch then `Oversized
        else go (l :: acc) (n + 1)
    | `Timeout -> `Timeout
    | `Eof -> if discard then `Timeout else `Hangup
    | `Oversized -> `Oversized
  in
  go [] 0

(* Handle one accepted connection end to end.  Returns [true] when the
   batch contained a [shutdown] request.  Every outcome that is not a
   full answered batch closes the socket and lands in exactly one
   counter; nothing here can take down the caller. *)
let handle_conn cfg counters fd =
  let io = Lineio.create ~idle:cfg.conn_timeout fd in
  let finish outcome =
    (match outcome with
    | `Timeout -> Atomic.incr counters.conn_timeouts
    | `Drop -> Atomic.incr counters.drops
    | `Served -> ());
    false
  in
  let discard = Core.Faultinject.slow_client_conn () in
  match recv_batch cfg io ~discard with
  | `Timeout -> finish `Timeout
  | `Hangup -> finish `Drop
  | `Oversized ->
      let reply =
        Printf.sprintf
          "bad\tbatch too large (max %d requests of at most %d bytes each)\n"
          cfg.max_batch 65536
      in
      ignore (Lineio.write_all io reply);
      finish `Served
  | `Batch [] -> finish `Served
  | `Batch lines -> (
      let responses, shutdown = handle_batch cfg counters lines in
      (* An armed [Conn_drop] fault truncates the response stream after
         [seed] lines and hangs up — the server-side double of a client
         that disconnects mid-response. *)
      let responses, injected_drop =
        match Core.Faultinject.conn_drop_limit () with
        | Some k when k < List.length responses ->
            (List.filteri (fun i _ -> i < k) responses, true)
        | _ -> (responses, false)
      in
      let out = Buffer.create 256 in
      List.iter
        (fun r ->
          Buffer.add_string out r;
          Buffer.add_char out '\n')
        responses;
      match Lineio.write_all io (Buffer.contents out) with
      | `Ok ->
          if injected_drop then ignore (finish `Drop) else ignore (finish `Served);
          shutdown
      | `Timeout ->
          ignore (finish `Timeout);
          shutdown
      | `Closed ->
          ignore (finish `Drop);
          shutdown)

(* ---------------- acceptor + worker pool ---------------- *)

type pool = {
  queue : Unix.file_descr Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;      (* draining: no more enqueues *)
  inflight : int Atomic.t;    (* queued + currently handled *)
}

let pool_push p fd =
  Mutex.protect p.lock (fun () ->
      Queue.push fd p.queue;
      Condition.signal p.nonempty)

(* Blocks until a connection is available or the pool is closed and
   drained; [None] tells the worker to exit. *)
let pool_pop p =
  Mutex.protect p.lock (fun () ->
      let rec wait () =
        if not (Queue.is_empty p.queue) then Some (Queue.pop p.queue)
        else if p.closed then None
        else begin
          Condition.wait p.nonempty p.lock;
          wait ()
        end
      in
      wait ())

let pool_close p =
  Mutex.protect p.lock (fun () ->
      p.closed <- true;
      Condition.broadcast p.nonempty)

let run cfg =
  (* A client that hangs up mid-response must cost one EPIPE-aborted
     connection, not the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let counters = make_counters () in
  let draining = Atomic.make false in
  (* SIGTERM/SIGINT flip the drain flag; the acceptor polls it.  The
     previous dispositions are restored on exit so an in-process daemon
     (tests) does not permanently steal the signals. *)
  let install signum =
    try
      let old =
        Sys.signal signum
          (Sys.Signal_handle (fun _ -> Atomic.set draining true))
      in
      Some (signum, old)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let saved = List.filter_map install [ Sys.sigterm; Sys.sigint ] in
  let restore () =
    List.iter
      (fun (signum, old) ->
        try Sys.set_signal signum old with Invalid_argument _ | Sys_error _ -> ())
      saved
  in
  (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let traced = Core.Trace.enabled () in
  Fun.protect
    ~finally:(fun () ->
      restore ();
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX cfg.socket_path);
      Unix.listen sock 64;
      Unix.set_nonblock sock;
      let pool =
        {
          queue = Queue.create ();
          lock = Mutex.create ();
          nonempty = Condition.create ();
          closed = false;
          inflight = Atomic.make 0;
        }
      in
      let worker wid () =
        let serve_one fd =
          Fun.protect
            ~finally:(fun () ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Atomic.decr pool.inflight)
            (fun () ->
              match
                if traced then
                  Core.Trace.with_span
                    ~design:(Printf.sprintf "serve/worker%d" wid)
                    ~stage:"conn"
                    (fun () -> handle_conn cfg counters fd)
                else handle_conn cfg counters fd
              with
              | shutdown -> if shutdown then Atomic.set draining true
              | exception e ->
                  (* a wedged or malicious client aborts its own
                     connection, never the worker *)
                  Atomic.incr counters.drops;
                  Printf.eprintf "hlsvhc serve: connection failed: %s\n%!"
                    (Printexc.to_string e))
        in
        let rec loop () =
          match pool_pop pool with
          | Some fd ->
              serve_one fd;
              loop ()
          | None -> ()
        in
        loop ()
      in
      let workers =
        List.init (max 1 cfg.conn_workers) (fun wid ->
            Domain.spawn (worker wid))
      in
      (* Shed from the acceptor: answer busy and close without touching
         the worker queue, so a storm costs one short write per
         connection.  The socket was just accepted — its send buffer is
         empty — so the write cannot block. *)
      let shed fd =
        Atomic.incr counters.shed;
        let io = Lineio.create ~idle:1.0 fd in
        ignore (Lineio.write_all io (busy_line cfg.retry_after_ms ^ "\n"));
        try Unix.close fd with Unix.Unix_error _ -> ()
      in
      let accepted_all = ref false in
      while (not (Atomic.get draining)) && not !accepted_all do
        (* the select is exactly what SIGTERM interrupts: EINTR here is
           the drain signal arriving, not an error — fall through and
           let the loop condition observe the flag *)
        match
          try Unix.select [ sock ] [] [] 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        with
        | [], _, _ -> ()
        | _ -> (
            match Unix.accept ~cloexec:true sock with
            | fd, _ ->
                (* accept(2) on Linux hands nonblocking down from the
                   listener on some paths; connection fds must block
                   (their timeouts come from SO_RCVTIMEO). *)
                (try Unix.clear_nonblock fd with Unix.Unix_error _ -> ());
                Atomic.incr counters.conns;
                if
                  Core.Faultinject.shed_conn ()
                  || Atomic.get pool.inflight >= cfg.max_inflight
                then shed fd
                else begin
                  Atomic.incr pool.inflight;
                  pool_push pool fd
                end;
                (match cfg.max_conns with
                | Some n when Atomic.get counters.conns >= n ->
                    accepted_all := true
                | _ -> ())
            | exception
                Unix.Unix_error
                  ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                    | Unix.EWOULDBLOCK ),
                    _,
                    _ ) ->
                (* transient: a signal, or the peer gave up between
                   select and accept *)
                ()
            | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _)
              ->
                (* out of descriptors: shedding load by pausing the
                   accept loop beats dying; in-flight connections keep
                   draining descriptors *)
                Printf.eprintf
                  "hlsvhc serve: out of file descriptors; pausing accepts\n%!";
                Unix.sleepf 0.05)
      done;
      (* Drain: stop accepting (close + unlink first, so stragglers get
         a fast connection-refused instead of a dead queue slot), finish
         every queued and in-flight batch, then go home.  Store writes
         are synchronous inside the workers, so joining them is the
         flush. *)
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
      pool_close pool;
      List.iter Domain.join workers;
      if traced then
        Core.Trace.with_span ~design:"serve" ~stage:"drain" (fun () ->
            Core.Trace.add_counter "conns" (Atomic.get counters.conns);
            Core.Trace.add_counter "conn_timeouts"
              (Atomic.get counters.conn_timeouts);
            Core.Trace.add_counter "shed" (Atomic.get counters.shed);
            Core.Trace.add_counter "drops" (Atomic.get counters.drops));
      Printf.eprintf
        "hlsvhc serve: drained — conns=%d evals=%d errors=%d memo_hits=%d \
         timeouts=%d shed=%d drops=%d\n\
         %!"
        (Atomic.get counters.conns)
        (Atomic.get counters.evals)
        (Atomic.get counters.eval_errors)
        (Atomic.get counters.memo_hits)
        (Atomic.get counters.conn_timeouts)
        (Atomic.get counters.shed) (Atomic.get counters.drops));
  counters

(* ---------------- client side ---------------- *)

module Client = struct
  type error =
    | Connect_refused of string
    | Timed_out
    | Busy of int
    | Closed_mid_response of string list

  let error_to_string = function
    | Connect_refused m -> "cannot connect: " ^ m
    | Timed_out -> "request timed out"
    | Busy ms -> Printf.sprintf "daemon busy (retry after %d ms)" ms
    | Closed_mid_response rs ->
        Printf.sprintf "connection closed mid-response (%d responses received)"
          (List.length rs)

  let eval_line ?kernel ~tool ~label ~matrices () =
    match kernel with
    | None -> Printf.sprintf "eval\t%s\t%d\t%s" tool matrices label
    | Some k -> Printf.sprintf "eval\t%s\t%d\t%s\t%s" tool matrices label k

  (* "Socket absent" (no daemon ever bound, or it already unlinked on
     drain) and "refused" (a dead daemon's stale socket file) are
     different operator problems; say which. *)
  let connect socket_path =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX socket_path) with
    | () -> Ok sock
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close sock with Unix.Unix_error _ -> ());
        Error
          (Connect_refused
             (match e with
             | Unix.ENOENT ->
                 Printf.sprintf "socket %s absent (daemon not running?)"
                   socket_path
             | Unix.ECONNREFUSED ->
                 Printf.sprintf
                   "connection refused on %s (stale socket? daemon draining?)"
                   socket_path
             | e -> Printf.sprintf "%s: %s" socket_path (Unix.error_message e)))

  let parse_busy line =
    match String.split_on_char '\t' line with
    | [ "busy"; "retry-after"; ms ] ->
        Some (Option.value (int_of_string_opt ms) ~default:100)
    | "busy" :: _ -> Some 100
    | _ -> None

  (* One batch round-trip with every failure typed.  [timeout_s] bounds
     the whole exchange (connect is local and immediate on a Unix
     socket; the clock starts at the first read). *)
  let request_result ?(timeout_s = 60.0) ~socket lines =
    match connect socket with
    | Error _ as e -> e
    | Ok fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let io = Lineio.create ~idle:timeout_s ~max_line:(1 lsl 20) fd in
            let out = Buffer.create 256 in
            List.iter
              (fun l ->
                Buffer.add_string out l;
                Buffer.add_char out '\n')
              lines;
            Buffer.add_char out '\n';
            match Lineio.write_all io (Buffer.contents out) with
            | `Timeout -> Error Timed_out
            | `Ok | `Closed ->
                (* [`Closed]: the daemon hung up before reading the whole
                   batch — a shed [busy] line (written before it closed)
                   or partial responses may already sit in our receive
                   buffer, and on a Unix socket they stay readable after
                   the peer's close.  Read what it said; a daemon that
                   answered nothing becomes [Closed_mid_response []]. *)
                let deadline = Unix.gettimeofday () +. timeout_s in
                let rec read acc = function
                  | 0 -> Ok (List.rev acc)
                  | n -> (
                      match Lineio.read_line io ~deadline with
                      | `Line l when acc = [] && parse_busy l <> None ->
                          Error (Busy (Option.get (parse_busy l)))
                      | `Line l -> read (l :: acc) (n - 1)
                      | `Timeout -> Error Timed_out
                      | `Eof | `Oversized ->
                          Error (Closed_mid_response (List.rev acc)))
                in
                read [] (List.length lines))

  (* The legacy raising client (tests, bench one-liners). *)
  let request ~socket lines =
    match request_result ~socket lines with
    | Ok rs -> rs
    | Error e -> failwith ("serve client: " ^ error_to_string e)

  (* Deterministic backoff: the delay before retry [attempt] (0-based)
     is [base * 2^attempt] — raised to a busy hint when the daemon sent
     one — plus a jitter drawn from the caller's seeded splitmix64
     stream.  No wall clock and no global RNG feed the schedule, so two
     clients with the same seed back off identically. *)
  let backoff_ms ~rng ~attempt ~base_ms ~busy_hint =
    let base = base_ms * (1 lsl min attempt 10) in
    let floor_ms =
      match busy_hint with Some ms -> max ms base | None -> base
    in
    floor_ms + Dse.Rng.int rng (base + 1)

  let retry_delays ~seed ~attempts ~base_ms =
    let rng = Dse.Rng.create ~seed in
    List.init attempts (fun attempt ->
        backoff_ms ~rng ~attempt ~base_ms ~busy_hint:None)

  (* Retry every typed failure — refused (daemon restarting), busy
     (shed; honors the retry-after hint), timeout, mid-response hangup —
     with exponential backoff + seeded jitter, [attempts] tries total. *)
  let request_retry ?(attempts = 5) ?(base_ms = 25) ?timeout_s ~seed ~socket
      lines =
    let rng = Dse.Rng.create ~seed in
    let rec go attempt =
      match request_result ?timeout_s ~socket lines with
      | Ok _ as ok -> ok
      | Error e when attempt + 1 < attempts ->
          let busy_hint = match e with Busy ms -> Some ms | _ -> None in
          let delay = backoff_ms ~rng ~attempt ~base_ms ~busy_hint in
          Unix.sleepf (float_of_int delay /. 1000.0);
          go (attempt + 1)
      | Error _ as e -> e
    in
    go 0

  (* Poll until the daemon answers a ping — the test/bench handshake
     after spawning the server domain.  Distinguishes the no-daemon
     failures (socket absent, refused — kept polling, reported on
     timeout) from a daemon answering garbage (failed immediately). *)
  let wait_ready ?(timeout_s = 30.0) ~socket () =
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec go last =
      match request_result ~timeout_s:1.0 ~socket [ "ping" ] with
      | Ok [ "ok\tpong" ] -> ()
      | Ok other ->
          failwith
            (Printf.sprintf "serve client: daemon answering garbage: %s"
               (String.concat "; " other))
      | Error e ->
          if Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.05;
            go (Some e)
          end
          else
            failwith
              (Printf.sprintf "serve client: daemon not ready after %.0fs (%s)"
                 timeout_s
                 (error_to_string (Option.value last ~default:e)))
    in
    go None

  let parse_metrics line =
    match String.index_opt line '\t' with
    | Some i when String.sub line 0 i = "ok" ->
        Core.Metrics.of_wire
          (String.sub line (i + 1) (String.length line - i - 1))
    | _ -> Error (Printf.sprintf "not an ok response: %S" line)
end
