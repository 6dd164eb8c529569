(* Deterministic fault injection into the staged design flow.

   The armed spec lives in one atomic cell: [arm] happens on the main
   domain before a sweep fans out, pool workers only ever read.  Every
   probe first loads the cell and returns immediately when nothing is
   armed, so the fault-free pipeline pays one atomic read per probe and
   stays byte-identical to the uninstrumented code. *)

type fault =
  | Stall
  | Poison
  | Protocol
  | Crash of string
  | Slow_client
  | Conn_drop
  | Shed

type spec = { fault : fault; target : string; seed : int }

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Faultinject.Injected(%s)" what)
    | _ -> None)

let fault_to_string = function
  | Stall -> "stall"
  | Poison -> "poison"
  | Protocol -> "protocol"
  | Crash stage -> "crash@" ^ stage
  | Slow_client -> "slow-client"
  | Conn_drop -> "conn-drop"
  | Shed -> "shed"

let to_string s =
  Printf.sprintf "%s:%s:%d" (fault_to_string s.fault)
    (if s.target = "" then "*" else s.target)
    s.seed

let parse text =
  let fault_of = function
    | "stall" -> Ok Stall
    | "poison" -> Ok Poison
    | "protocol" -> Ok Protocol
    | "slow-client" -> Ok Slow_client
    | "conn-drop" -> Ok Conn_drop
    | "shed" -> Ok Shed
    | f when String.length f > 6 && String.sub f 0 6 = "crash@" ->
        Ok (Crash (String.sub f 6 (String.length f - 6)))
    | f ->
        Error
          (Printf.sprintf
             "unknown fault %S (want stall, poison, protocol, crash@STAGE, \
              slow-client, conn-drop or shed)"
             f)
  in
  match String.split_on_char ':' (String.trim text) with
  | [] | [ "" ] -> Error "empty fault spec (want FAULT:TARGET[:SEED])"
  | fault :: rest -> (
      match fault_of fault with
      | Error _ as e -> e
      | Ok fault -> (
          let target, seed_text =
            match rest with
            | [] -> ("*", None)
            | [ t ] -> (t, None)
            | [ t; s ] -> (t, Some s)
            | _ -> ("", Some "malformed")
          in
          let target = if target = "*" then "" else target in
          match seed_text with
          | None -> Ok { fault; target; seed = 0 }
          | Some s -> (
              match int_of_string_opt s with
              | Some seed when seed >= 0 -> Ok { fault; target; seed }
              | _ ->
                  Error
                    (Printf.sprintf "bad seed %S (want a non-negative integer)"
                       s))))

let cell : spec option Atomic.t = Atomic.make None

(* Connection faults fire on "the first [seed] occasions" (seed 0 =
   every occasion), so a chaos test can arm e.g. [shed:*:2] and know the
   retrying client's third attempt lands.  One claim counter per fault
   kind, reset whenever the armed spec changes. *)
let conn_claims = Atomic.make 0

let arm s =
  Atomic.set conn_claims 0;
  Atomic.set cell (Some s)

let disarm () =
  Atomic.set conn_claims 0;
  Atomic.set cell None

let armed () = Atomic.get cell

let load_env () =
  match Sys.getenv_opt "HLSVHC_FAULT" with
  | None | Some "" -> Ok None
  | Some text -> (
      match parse text with
      | Ok s ->
          arm s;
          Ok (Some s)
      | Error e -> Error (Printf.sprintf "HLSVHC_FAULT=%S: %s" text e))

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec at i =
    if i + m > n then false
    else if String.sub s i m = sub then true
    else at (i + 1)
  in
  at 0

let matching ~design =
  match Atomic.get cell with
  | None -> None
  | Some s -> if contains ~sub:s.target design then Some s else None

(* ---------------- probes ---------------- *)

let crash_at_stage ~design ~stage =
  match matching ~design with
  | Some { fault = Crash st; _ } when st = stage ->
      raise
        (Injected
           (Printf.sprintf "injected crash at stage %s of %s" stage design))
  | _ -> ()

let stall_timeout ~design default =
  match matching ~design with
  | Some { fault = Stall; _ } ->
      (* A budget too small for even one beat: the driver runs its real
         timeout path and reports the stall with its usual diagnostics. *)
      Some 2
  | _ -> default

let poison_blocks ~design blocks =
  match matching ~design with
  | Some { fault = Poison; seed; _ } when blocks <> [] ->
      let victim = seed mod List.length blocks in
      let pos = seed mod 64 in
      List.mapi
        (fun i b ->
          if i <> victim then b
          else begin
            let b = Axis.Block.copy b in
            let row = pos / 8 and col = pos mod 8 in
            let v = Axis.Block.get b ~row ~col in
            (* A deterministic perturbation that never clamps back onto
               the original value, so the bit-true check must object. *)
            let delta = 1 + (seed mod 7) in
            Axis.Block.set b ~row ~col
              (if v >= 0 then v - delta else v + delta);
            b
          end)
        blocks
  | _ -> blocks

let inject_violation ~design violations =
  match matching ~design with
  | Some { fault = Protocol; seed; _ } ->
      { Axis.Monitor.at_cycle = seed; rule = "injected protocol fault" }
      :: violations
  | _ -> violations

(* ---------------- connection probes (the serve layer) ---------------- *)

(* Claim one firing of a counted connection fault: true while fewer than
   [seed] claims have been made (seed 0 = unlimited). *)
let claim_conn seed =
  if seed = 0 then true else Atomic.fetch_and_add conn_claims 1 < seed

let slow_client_conn () =
  match Atomic.get cell with
  | Some { fault = Slow_client; seed; _ } -> claim_conn seed
  | _ -> false

let shed_conn () =
  match Atomic.get cell with
  | Some { fault = Shed; seed; _ } -> claim_conn seed
  | _ -> false

let conn_drop_limit () =
  match Atomic.get cell with
  | Some { fault = Conn_drop; seed; _ } -> Some seed
  | _ -> None
