(* Content key of a design: tool and label identify the sweep point, the
   digest covers the configuration and full source listing, so two designs
   that differ only in construction share nothing and a re-registered
   design with identical content hits the cache. *)
let design_key (d : Design.t) =
  Printf.sprintf "%s/%s#%s"
    (Design.tool_name d.Design.tool)
    d.Design.label
    (Digest.to_hex
       (Digest.string (d.Design.config_desc ^ "\x00" ^ d.Design.listing)))

module Measure_cache = Parallel.Memo (struct
  type t = Metrics.measured
end)

let measure_key ~matrices ~(spec : Flow.spec) d =
  Printf.sprintf "%s/%s@%d" spec.Flow.spec_name (design_key d) matrices

let is_cached ?(matrices = 4) ~spec d =
  Measure_cache.mem (measure_key ~matrices ~spec d)

(* The persistent layer beneath the in-process memo: a content-addressed
   result store (Store, in lib/store) registers itself here, so [core]
   never depends on the store's on-disk format.  The backend is consulted
   only on a memo miss, and a fresh measurement is written through to it;
   with no backend attached (the default) the measure path is exactly the
   historical one — all paper artifacts byte-identical. *)
type store_backend = {
  sb_name : string;  (** for diagnostics, e.g. the store directory *)
  sb_find : string -> Metrics.measured option;
  sb_add : string -> Metrics.measured -> unit;
}

let store_backend : store_backend option Atomic.t = Atomic.make None
let set_store_backend b = Atomic.set store_backend b

(* The measurement itself is Flow.measure_uncached — the staged
   elaborate/validate/simulate/verify/synthesize/metrics pipeline.  This
   layer adds the content-keyed cache and the root "measure" span, whose
   cache_hit/cache_miss (memo) and store_hit/store_miss (persistent
   backend) counters let a trace distinguish warm reads from cold
   pipeline runs. *)
let measure ?(matrices = 4) ~(spec : Flow.spec) (d : Design.t) :
    Metrics.measured =
  let key = measure_key ~matrices ~spec d in
  Trace.with_span ~design:(Flow.span_design spec d) ~stage:"measure" (fun () ->
      if Trace.enabled () then
        Trace.add_counter
          (if Measure_cache.mem key then "cache_hit" else "cache_miss")
          1;
      Measure_cache.find_or_compute ~key (fun () ->
          match Atomic.get store_backend with
          | None -> Flow.measure_uncached ~matrices ~spec d
          | Some sb -> (
              match sb.sb_find key with
              | Some m ->
                  if Trace.enabled () then Trace.add_counter "store_hit" 1;
                  m
              | None ->
                  if Trace.enabled () then Trace.add_counter "store_miss" 1;
                  let m = Flow.measure_uncached ~matrices ~spec d in
                  sb.sb_add key m;
                  m)))

(* Clears the in-process memos only (the measurements and the flow's
   shared simulations and syntheses): entries in an attached persistent
   store survive (the store is the whole point — results outliving the
   process), which the store coherence tests pin down. *)
let clear_measure_cache () =
  Measure_cache.clear ();
  Flow.clear_shared ()

(* A pool slot's outcome, typed as a flow error of design [d]. *)
let typed d =
  Result.map_error (fun (e, _bt) ->
      Flow.error_of_exn ~design:(Flow.span_key d) e)

(* A batch of independent designs on the domain pool: every design runs,
   results come back in input order, and a failed design's slot carries
   its typed flow error.  Each design's circuit cell is built inside the
   job that first forces it, so no builder state is shared across
   domains. *)
let map_designs ?jobs f designs =
  List.map2 typed designs (Parallel.map_result ?jobs f designs)

let measure_all_result ?jobs ?(matrices = 4) ~spec designs =
  map_designs ?jobs (measure ~matrices ~spec) designs

(* [check] is [spec.comply ~blocks], applied once per batch: the
   design-independent stimulus and reference are prepared once, and
   every design, on every domain, is judged by the same pure checker.
   The preparation is its own engine-group span. *)
let prepare_comply ~blocks ~(spec : Flow.spec) =
  Trace.with_span ~design:("comply/" ^ spec.Flow.spec_name) ~stage:"prepare"
    (fun () ->
      Trace.add_counter "blocks" blocks;
      spec.Flow.comply ~blocks)

let comply_design ~blocks ~(spec : Flow.spec) check (d : Design.t) =
  let key = Flow.span_key d in
  Flow.stage ~spec d "comply" (fun () ->
      Trace.add_counter "blocks" blocks;
      match d.Design.impl with
      | Design.Stream circuit ->
          let circuit = Design.force circuit in
          (* Each compliance block is an independent single-matrix run, so
             the whole sweep maps onto the levelized engine's batch
             dimension: the driver spreads the blocks across simulation
             lanes and one schedule sweep advances all of them.  The
             verdict is identical to per-block [Driver.transform] calls
             (Ieee1180.measure accumulates the errors in draw order);
             only the wall time and the [sim_batch] counter differ. *)
          Trace.add_counter "sim_batch" (min blocks 64);
          (* The testbench gets its own span, so a trace separates it
             from the accuracy statistics that [check] runs around it.
             The driver is staged once per design, so every call of the
             procedure reuses its simulator instances; [evals] counts the
             schedule rows the sweep did not skip. *)
          let hook k v =
            if k = "cycles" || k = "evals" then Trace.add_counter k v
          in
          let transform = Axis.Driver.transform_batch ~hook circuit in
          (* The measure path's [poison] and [protocol] probes, on every
             testbench call: a poisoned block reaches the checker, an
             injected violation raises as the driver's own would. *)
          let dut_batch blks =
            Trace.with_span ~design:(Flow.span_design spec d)
              ~stage:"testbench" (fun () ->
                let out = transform blks in
                (match Faultinject.inject_violation ~design:key [] with
                | v :: _ -> raise (Axis.Driver.Protocol_violation v)
                | [] -> ());
                Faultinject.poison_blocks ~design:key out)
          in
          check dut_batch
      | Design.Pcie p ->
          (* The MaxJ kernels are checked by their own stream simulators —
             dispatching on the design under test, so the optimized kernel
             is exercised with its own row-per-tick simulation (always
             bit-true against the kernel reference: the statistical
             procedure needs the batched AXI-Stream path). *)
          let mats = spec.Flow.stimulus blocks in
          let got =
            Faultinject.poison_blocks ~design:key (p.Design.simulate mats)
          in
          List.for_all2 Axis.Block.equal got (List.map spec.Flow.reference mats))

let check_compliance ?(blocks = 500) ~spec d =
  comply_design ~blocks ~spec (prepare_comply ~blocks ~spec) d

(* Pass 1 of the compliance batch, per design: force its netlist or
   system in an ["elaborate"] span, then, for a stream design, time one
   zero matrix through a throwaway single-lane testbench.  The key
   [cycles * sim_thunks] orders pass 2, costliest first; a PCIe design's
   key is 0.  A probe that raises only gives up the ordering (key 0):
   pass 2 reruns the design and reports its failure as it always has. *)
let stage_design ~(spec : Flow.spec) (d : Design.t) =
  let design = Flow.span_design spec d in
  let elaborate cell =
    Trace.with_span ~design ~stage:"elaborate" (fun () -> Design.force cell)
  in
  match d.Design.impl with
  | Design.Pcie p ->
      ignore (elaborate p.Design.system);
      0
  | Design.Stream cell ->
      let circuit = elaborate cell in
      Trace.with_span ~design ~stage:"probe" (fun () ->
          let cycles = ref 0 and thunks = ref 0 in
          let hook k v =
            if k = "cycles" then cycles := v
            else if k = "sim_thunks" then thunks := v
          in
          let key =
            match
              Axis.Driver.transform_batch ~hook circuit [ Axis.Block.create () ]
            with
            | _ -> !cycles * !thunks
            | exception _ -> 0
          in
          Trace.add_counter "key" key;
          key)

type comply_job = Prepare | Stage of Design.t
type 'c comply_staged = Prepared of 'c | Staged of int

(* Two pool maps.  Pass 1 prepares the stimulus and reference (claimed
   first) while the other domains stage the designs, so no domain waits
   on the preparation alone.  Pass 2 runs the testbenches in descending
   key order, so the longest one starts first instead of last; results
   are put back in input order.  Nothing staged crosses the passes but
   the key: each design's driver lives only inside its pass-2 job.  A
   design whose staging raised skips its testbench, and its pass-2 job
   raises that exception inside the ["comply"] stage, typed exactly as
   when the stage itself forced the design. *)
let compliance_all_result ?jobs ?(blocks = 500) ~spec designs =
  let staged =
    Parallel.map_result ?jobs
      (function
        | Prepare -> Prepared (prepare_comply ~blocks ~spec)
        | Stage d -> Staged (stage_design ~spec d))
      (Prepare :: List.map (fun d -> Stage d) designs)
  in
  let check, staged =
    match staged with
    | Ok (Prepared check) :: staged -> (check, staged)
    | Error (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | _ -> assert false
  in
  let key = function Ok (Staged k) -> k | _ -> 0 in
  let order =
    List.stable_sort
      (fun (_, _, a) (_, _, b) -> compare (key b) (key a))
      (List.mapi (fun i (d, s) -> (i, d, s)) (List.combine designs staged))
  in
  let comply (_, d, s) =
    match s with
    | Error (e, bt) ->
        Flow.stage ~spec d "comply" (fun () ->
            Printexc.raise_with_backtrace e bt)
    | Ok _ -> comply_design ~blocks ~spec check d
  in
  List.combine order (Parallel.map_result ?jobs comply order)
  |> List.sort (fun ((i, _, _), _) ((j, _, _), _) -> compare i j)
  |> List.map (fun ((_, d, _), r) -> (d, typed d r))

let compliance_all ?jobs ?blocks ~spec designs =
  List.map
    (fun (d, r) ->
      match r with Ok v -> (d, v) | Error e -> raise (Flow.Error e))
    (compliance_all_result ?jobs ?blocks ~spec designs)
