type expr = { id : int; node : node }

and node =
  | Const of Hw.Bits.t
  | Read of reg
  | In of string * int
  | Unop of Hw.Netlist.unop * expr
  | Binop of Hw.Netlist.binop * expr * expr
  | Mux of expr * expr * expr
  | Slice of expr * int * int
  | Uext of expr * int
  | Sext of expr * int

and reg = { rid : int; rname : string; rwidth : int; rinit : int }

type action = { target : reg; when_ : expr option; value : expr }

type rule = {
  rule_name : string;
  guard : expr;
  actions : action list;
  reads : int list;
  writes : int list;
}

type modul = {
  mod_name : string;
  inputs : (string * int) list;
  regs : reg list;
  rules : rule list;
  outputs : (string * expr) list;
}

(* Every constructed node gets a fresh id, from any domain. *)
let next_id = Atomic.make 0
let make node = { id = Atomic.fetch_and_add next_id 1; node }

module Tbl = Hashtbl.Make (struct
  type t = expr

  let equal a b = a.id = b.id
  let hash e = e.id
end)

let memo f =
  let seen = Tbl.create 64 in
  let rec self e =
    match Tbl.find_opt seen e with
    | Some v -> v
    | None ->
        let v = f self e in
        Tbl.add seen e v;
        v
  in
  self

let width_of width e =
  match e.node with
  | Const b -> Hw.Bits.width b
  | Read r -> r.rwidth
  | In (_, w) -> w
  | Unop (_, e) -> width e
  | Binop ((Eq | Ne | Lt _ | Le _), a, b) ->
      let wa = width a and wb = width b in
      if wa <> wb then
        failwith
          (Printf.sprintf "Bsv: comparison width mismatch (%d vs %d)" wa wb);
      1
  | Binop ((Shl | Shr | Sra), a, _) -> width a
  | Binop (_, a, b) ->
      let wa = width a and wb = width b in
      if wa <> wb then
        failwith (Printf.sprintf "Bsv: operand width mismatch (%d vs %d)" wa wb);
      wa
  | Mux (s, a, b) ->
      if width s <> 1 then failwith "Bsv: mux select must be 1 bit";
      let wa = width a and wb = width b in
      if wa <> wb then
        failwith (Printf.sprintf "Bsv: mux arm width mismatch (%d vs %d)" wa wb);
      wa
  | Slice (e, hi, lo) ->
      let w = width e in
      if lo < 0 || hi >= w || hi < lo then
        failwith (Printf.sprintf "Bsv: slice [%d:%d] of width %d" hi lo w);
      hi - lo + 1
  | Uext (e, w) | Sext (e, w) ->
      let we = width e in
      if w < we then failwith "Bsv: extension narrows";
      w

let infer_width e = memo width_of e

let rec width e =
  match e.node with
  | Const b -> Hw.Bits.width b
  | Read r -> r.rwidth
  | In (_, w) | Uext (_, w) | Sext (_, w) -> w
  | Binop ((Eq | Ne | Lt _ | Le _), _, _) -> 1
  | Unop (_, a) | Binop (_, a, _) | Mux (_, a, _) -> width a
  | Slice (_, hi, lo) -> hi - lo + 1

let validate m =
  let infer_width = memo width_of in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem seen r.rid then
        failwith (Printf.sprintf "Bsv: duplicate register id %d" r.rid);
      Hashtbl.replace seen r.rid ())
    m.regs;
  let names = Hashtbl.create 16 in
  List.iter
    (fun (ru : rule) ->
      if Hashtbl.mem names ru.rule_name then
        failwith (Printf.sprintf "Bsv: duplicate rule %s" ru.rule_name);
      Hashtbl.replace names ru.rule_name ();
      if infer_width ru.guard <> 1 then
        failwith (Printf.sprintf "Bsv: rule %s guard is not 1 bit" ru.rule_name);
      List.iter
        (fun a ->
          (match a.when_ with
          | Some w ->
              if infer_width w <> 1 then
                failwith
                  (Printf.sprintf "Bsv: rule %s condition is not 1 bit"
                     ru.rule_name)
          | None -> ());
          let wv = infer_width a.value in
          if wv <> a.target.rwidth then
            failwith
              (Printf.sprintf "Bsv: rule %s writes %d bits into %s (%d bits)"
                 ru.rule_name wv a.target.rname a.target.rwidth))
        ru.actions)
    m.rules;
  List.iter (fun (_, e) -> ignore (infer_width e)) m.outputs

let children e =
  match e.node with
  | Const _ | Read _ | In _ -> []
  | Unop (_, a) | Slice (a, _, _) | Uext (a, _) | Sext (a, _) -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]

let dedup l = List.sort_uniq Int.compare l

let reads_of guard actions =
  let rids = ref [] in
  let visit =
    memo (fun visit e ->
        match e.node with
        | Read r -> rids := r.rid :: !rids
        | _ -> List.iter visit (children e))
  in
  visit guard;
  List.iter
    (fun a ->
      visit a.value;
      Option.iter visit a.when_)
    actions;
  dedup !rids

let read_set ru = ru.reads
let write_set ru = ru.writes

type builder = {
  bname : string;
  mutable next_rid : int;
  mutable bregs : reg list;
  mutable binputs : (string * int) list;      (* reversed *)
  mutable brules : rule list;                 (* reversed *)
  mutable bouts : (string * expr) list;       (* reversed *)
}

let builder bname =
  { bname; next_rid = 0; bregs = []; binputs = []; brules = []; bouts = [] }

let mk_reg b ?(init = 0) rname rwidth =
  let r = { rid = b.next_rid; rname; rwidth; rinit = init } in
  b.next_rid <- b.next_rid + 1;
  b.bregs <- r :: b.bregs;
  r

let mk_input b name w =
  if not (List.mem_assoc name b.binputs) then
    b.binputs <- (name, w) :: b.binputs;
  make (In (name, w))

(* A rule's read and write sets depend only on the rule, so they are
   computed once here, not by every schedule of the module. *)
let mk_rule b name ~guard actions =
  let rule =
    {
      rule_name = name;
      guard;
      actions;
      reads = reads_of guard actions;
      writes = dedup (List.map (fun a -> a.target.rid) actions);
    }
  in
  b.brules <- rule :: b.brules

let mk_output b name e = b.bouts <- (name, e) :: b.bouts

let mk_module b =
  let m =
    {
      mod_name = b.bname;
      inputs = List.rev b.binputs;
      regs = List.rev b.bregs;
      rules = List.rev b.brules;
      outputs = List.rev b.bouts;
    }
  in
  validate m;
  m

let read r = make (Read r)
let unop op a = make (Unop (op, a))
let binop op a b = make (Binop (op, a, b))
let mux s a b = make (Mux (s, a, b))
let slice e hi lo = make (Slice (e, hi, lo))
let uext e w = make (Uext (e, w))
let sext e w = make (Sext (e, w))
let cst w v = make (Const (Hw.Bits.create ~width:w v))
let ( &&: ) = binop Hw.Netlist.And
let ( ||: ) = binop Hw.Netlist.Or
let not_ = unop Hw.Netlist.Not
let ( ==: ) = binop Hw.Netlist.Eq
let ( <>: ) = binop Hw.Netlist.Ne
let ( +: ) = binop Hw.Netlist.Add
let ( -: ) = binop Hw.Netlist.Sub
let assign ?when_ target value = { target; when_; value }
