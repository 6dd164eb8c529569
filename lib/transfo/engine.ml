open Hw

type tracer = {
  wrap : 'a. design:string -> stage:string -> (unit -> 'a) -> 'a;
  counter : string -> int -> unit;
}

let null_tracer = { wrap = (fun ~design:_ ~stage:_ f -> f ()); counter = (fun _ _ -> ()) }
(* Read from whichever domain builds a derived design. *)
let tracer = Atomic.make null_tracer
let set_tracer t = Atomic.set tracer t

type forker = { fork : 'a. (unit -> 'a) -> (unit -> 'a) * (unit -> unit) }

(* Without an injected pool, a fork is deferred to its join. *)
let forker = Atomic.make { fork = (fun f -> (f, ignore)) }
let set_forker f = Atomic.set forker f

type error =
  | Unknown_transfo of string
  | Precondition_failed of { pf_step : string; pf_reason : string }
  | Verify_failed of {
      vf_step : string;
      vf_obligation : string;
      vf_reason : string;
    }

let error_to_string = function
  | Unknown_transfo nm -> Catalog.unknown_transfo_msg nm
  | Precondition_failed { pf_step; pf_reason } ->
      Printf.sprintf "step %S not applicable: %s" pf_step pf_reason
  | Verify_failed { vf_step; vf_obligation; vf_reason } ->
      Printf.sprintf "step %S failed verification (%s): %s" vf_step
        vf_obligation vf_reason

type step_report = {
  sr_step : string;
  sr_obligation : string;
  sr_nodes_before : int;
  sr_nodes_after : int;
}

type report = { rep_subject : Subject.t; rep_steps : step_report list }

(* The step-specific obligation relates before and after; the
   crosschecks establish that the levelized engine simulates the result
   itself exactly like the reference interpreter, at batch 1 and across 4
   lanes.  The 4-lane crosscheck is forked first: on a spare domain it
   runs beside the other two, and its outcome is read only when both pass,
   so the verdict and its precedence are those of running the three in
   order.  A fork that found no spare domain runs at the join, after the
   other two, or not at all. *)
let verify (tr : tracer) ~design ~cycles ~seed ob ~before ~after =
  let c = after.Subject.circuit in
  let batch () =
    match Equiv.crosscheck ~cycles:(max 32 (cycles / 2)) ~seed ~lanes:4 c with
    | Equiv.Mismatch _ as r ->
        Error (Format.asprintf "batch crosscheck: %a" Equiv.pp_result r)
    | Equiv.Equivalent -> Ok ()
  in
  let home = Domain.self () in
  let join, drop =
    (Atomic.get forker).fork (fun () ->
        if Domain.self () = home then batch ()
        else tr.wrap ~design ~stage:"transfo:verify" batch)
  in
  match
    match Verify.discharge ~cycles ~seed ob ~before ~after with
    | Error _ as e -> e
    | Ok () -> (
        match Equiv.crosscheck ~cycles ~seed c with
        | Equiv.Mismatch _ as r ->
            Error (Format.asprintf "crosscheck: %a" Equiv.pp_result r)
        | Equiv.Equivalent -> Ok ())
  with
  | Ok () -> join ()
  | Error _ as e ->
      drop ();
      e
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      drop ();
      Printexc.raise_with_backtrace e bt

(* Verdicts by content key, shared by every domain of the process.  A
   script space lists shared prefixes ("strength_reduce" and
   "strength_reduce; narrow"), so the same step on the same circuit is
   verified by more than one candidate.  The key is the digest of
   everything [verify] reads: the obligation, [cycles], [seed] and both
   circuits (names included: they appear in verdicts).  Circuits are
   acyclic, so they marshal without sharing: structurally equal circuits
   give equal bytes however they were built, and no sharing table is
   allocated (DESIGN.md §17 has its cost).  An entry holds only the
   digest and the verdict. *)
type slot = Running | Settled of (unit, string) result

let verdicts : (Digest.t, slot) Hashtbl.t = Hashtbl.create 64
let verdicts_lock = Mutex.create ()
let verdicts_changed = Condition.create ()

let verdict_key ~cycles ~seed ob ~before ~after =
  Digest.string
    (Marshal.to_string
       (ob, cycles, seed, before.Subject.circuit, after.Subject.circuit)
       [ Marshal.No_sharing ])

(* [verify] at most once per key: a caller that finds the key running on
   another domain waits for it (as [Core.Once] does) and reuses its
   verdict.  A verification that raises is forgotten, and its waiters
   wake up to claim the key again. *)
let verify_once (tr : tracer) ~design ~cycles ~seed ob ~before ~after =
  let key = verdict_key ~cycles ~seed ob ~before ~after in
  let claimed =
    Mutex.protect verdicts_lock (fun () ->
        let rec claim () =
          match Hashtbl.find_opt verdicts key with
          | Some (Settled v) -> Some v
          | Some Running ->
              Condition.wait verdicts_changed verdicts_lock;
              claim ()
          | None ->
              Hashtbl.replace verdicts key Running;
              None
        in
        claim ())
  in
  let settle slot =
    Mutex.protect verdicts_lock (fun () ->
        (match slot with
        | Some v -> Hashtbl.replace verdicts key (Settled v)
        | None -> Hashtbl.remove verdicts key);
        Condition.broadcast verdicts_changed)
  in
  match claimed with
  | Some v ->
      tr.counter "verify_reused" 1;
      v
  | None -> (
      tr.counter "verify_cycles" cycles;
      match verify tr ~design ~cycles ~seed ob ~before ~after with
      | v ->
          settle (Some v);
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          settle None;
          Printexc.raise_with_backtrace e bt)

let apply_step ?(cycles = 256) ?(seed = 7) (module T : Catalog.TRANSFO) ~arg
    (subject : Subject.t) =
  let tr = Atomic.get tracer in
  let step_str =
    Script.step_to_string { Script.step_name = T.name; step_arg = arg }
  in
  let design = "transfo/" ^ subject.Subject.circuit.Netlist.circuit_name in
  match T.check ~arg subject with
  | Error reason ->
      Error (Precondition_failed { pf_step = step_str; pf_reason = reason })
  | Ok () -> (
      let fail ob reason =
        Error
          (Verify_failed
             { vf_step = step_str; vf_obligation = ob; vf_reason = reason })
      in
      match
        tr.wrap ~design ~stage:("transfo:" ^ T.name) (fun () ->
            T.apply ~arg subject)
      with
      | exception (Failure msg | Invalid_argument msg) -> fail "apply" msg
      | after -> (
          let ob = Verify.obligation_name (T.obligation ~arg) in
          match
            tr.wrap ~design ~stage:"transfo:verify" (fun () ->
                verify_once tr ~design ~cycles ~seed (T.obligation ~arg)
                  ~before:subject ~after)
          with
          | exception (Failure msg | Invalid_argument msg) -> fail ob msg
          | Error reason -> fail ob reason
          | Ok () ->
              tr.counter "transfo_nodes"
                (Netlist.num_nodes after.Subject.circuit);
              let after =
                {
                  after with
                  Subject.history = subject.Subject.history @ [ step_str ];
                }
              in
              Ok
                ( after,
                  {
                    sr_step = step_str;
                    sr_obligation = ob;
                    sr_nodes_before =
                      Netlist.num_nodes subject.Subject.circuit;
                    sr_nodes_after = Netlist.num_nodes after.Subject.circuit;
                  } )))

let run ?cycles ?seed (script : Script.t) subject =
  let rec go subj acc = function
    | [] -> Ok { rep_subject = subj; rep_steps = List.rev acc }
    | (st : Script.step) :: rest -> (
        match Catalog.find st.Script.step_name with
        | None -> Error (Unknown_transfo st.Script.step_name)
        | Some m -> (
            match apply_step ?cycles ?seed m ~arg:st.Script.step_arg subj with
            | Error _ as e -> e
            | Ok (subj', rep) -> go subj' (rep :: acc) rest))
  in
  go subject [] script
