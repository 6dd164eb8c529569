type s = { suid : Netlist.uid; swidth : int }

type pending = {
  mutable nkind : Netlist.kind;
  mutable nwidth : int;
  mutable nname : string option;
}

type mem_handle = { mid : int; msize : int; mwidth : int }

type t = {
  cname : string;
  mutable cells : pending array;
  mutable count : int;
  cache : (Netlist.kind * int, s) Hashtbl.t;
  mutable ins : (string * Netlist.uid) list;
  mutable outs : (string * Netlist.uid) list;
  mutable mems : (string * int * int) list;          (* reversed: name, size, width *)
  mutable mem_writes : (int * Netlist.write_port) list;
}

let create cname =
  {
    cname;
    cells = Array.make 64 { nkind = Input "?"; nwidth = 1; nname = None };
    count = 0;
    cache = Hashtbl.create 256;
    ins = [];
    outs = [];
    mems = [];
    mem_writes = [];
  }

let width s = s.swidth
let uid s = s.suid

let raw_add t kind width nm =
  if t.count = Array.length t.cells then begin
    let bigger = Array.make (2 * t.count) t.cells.(0) in
    Array.blit t.cells 0 bigger 0 t.count;
    t.cells <- bigger
  end;
  t.cells.(t.count) <- { nkind = kind; nwidth = width; nname = nm };
  t.count <- t.count + 1;
  { suid = t.count - 1; swidth = width }

let const_of t s =
  match t.cells.(s.suid).nkind with
  | Netlist.Const b -> Some b
  | _ -> None

(* Pure nodes are hash-consed: the kind (which embeds operand uids) is the
   structural key, so identical subexpressions map to one node. *)
let pure t kind width =
  match Hashtbl.find_opt t.cache (kind, width) with
  | Some s -> s
  | None ->
      let s = raw_add t kind width None in
      Hashtbl.replace t.cache (kind, width) s;
      s

let input t name w =
  let s = raw_add t (Netlist.Input name) w (Some name) in
  t.ins <- t.ins @ [ (name, s.suid) ];
  s

let constb t b = pure t (Netlist.Const b) (Bits.width b)
let const t ~width v = constb t (Bits.create ~width v)
let zero t w = const t ~width:w 0
let one t w = const t ~width:w 1

let check_same fn a b =
  if a.swidth <> b.swidth then
    failwith
      (Printf.sprintf "Builder.%s: width mismatch (%d vs %d)" fn a.swidth
         b.swidth)

let eval_binop op x y =
  match op with
  | Netlist.Add -> Bits.add x y
  | Netlist.Sub -> Bits.sub x y
  | Netlist.Mul -> Bits.mul x y
  | Netlist.And -> Bits.logand x y
  | Netlist.Or -> Bits.logor x y
  | Netlist.Xor -> Bits.logxor x y
  | Netlist.Shl -> Bits.shift_left x y
  | Netlist.Shr -> Bits.shift_right_logical x y
  | Netlist.Sra -> Bits.shift_right_arith x y
  | Netlist.Eq -> Bits.eq x y
  | Netlist.Ne -> Bits.ne x y
  | Netlist.Lt s -> Bits.lt ~signed:(s = Netlist.Signed) x y
  | Netlist.Le s -> Bits.le ~signed:(s = Netlist.Signed) x y

let binop t op a b =
  check_same (Netlist.binop_name op) a b;
  match (const_of t a, const_of t b) with
  | Some x, Some y -> constb t (eval_binop op x y)
  | _ -> pure t (Netlist.Binop (op, a.suid, b.suid)) a.swidth

let cmp t op a b =
  check_same (Netlist.binop_name op) a b;
  match (const_of t a, const_of t b) with
  | Some x, Some y -> constb t (eval_binop op x y)
  | _ -> pure t (Netlist.Binop (op, a.suid, b.suid)) 1

let add t a b = binop t Netlist.Add a b
let sub t a b = binop t Netlist.Sub a b
let mul t a b = binop t Netlist.Mul a b
let neg t a =
  match const_of t a with
  | Some x -> constb t (Bits.neg x)
  | None -> pure t (Netlist.Unop (Netlist.Neg, a.suid)) a.swidth

let not_ t a =
  match const_of t a with
  | Some x -> constb t (Bits.lognot x)
  | None -> pure t (Netlist.Unop (Netlist.Not, a.suid)) a.swidth
let and_ t a b = binop t Netlist.And a b
let or_ t a b = binop t Netlist.Or a b
let xor_ t a b = binop t Netlist.Xor a b

(* Shift amounts may have any width (their unsigned value is used). *)
let shift_op t op a n =
  match (const_of t a, const_of t n) with
  | Some x, Some y -> constb t (eval_binop op x (Bits.uext y (Bits.width x)))
  | _ -> pure t (Netlist.Binop (op, a.suid, n.suid)) a.swidth

let shl t a n = shift_op t Netlist.Shl a n
let shr t a n = shift_op t Netlist.Shr a n
let sra t a n = shift_op t Netlist.Sra a n

let slice t a ~hi ~lo =
  if hi = a.swidth - 1 && lo = 0 then a
  else
    match const_of t a with
    | Some x -> constb t (Bits.slice x ~hi ~lo)
    | None -> pure t (Netlist.Slice (a.suid, hi, lo)) (hi - lo + 1)

let bit t a i = slice t a ~hi:i ~lo:i

let concat t hi lo = pure t (Netlist.Concat (hi.suid, lo.suid)) (hi.swidth + lo.swidth)

let concat_list t = function
  | [] -> invalid_arg "Builder.concat_list: empty"
  | first :: rest -> List.fold_left (fun acc s -> concat t acc s) first rest

let uext t a w =
  if w = a.swidth then a
  else if w < a.swidth then slice t a ~hi:(w - 1) ~lo:0
  else
    match const_of t a with
    | Some x -> constb t (Bits.uext x w)
    | None -> pure t (Netlist.Uext a.suid) w

let sext t a w =
  if w = a.swidth then a
  else if w < a.swidth then slice t a ~hi:(w - 1) ~lo:0
  else
    match const_of t a with
    | Some x -> constb t (Bits.sext x w)
    | None -> pure t (Netlist.Sext a.suid) w

let shl_const t a n =
  if n = 0 then a
  else if n >= a.swidth then zero t a.swidth
  else concat t (slice t a ~hi:(a.swidth - 1 - n) ~lo:0) (zero t n)

let shr_const t a n =
  if n = 0 then a
  else if n >= a.swidth then zero t a.swidth
  else uext t (slice t a ~hi:(a.swidth - 1) ~lo:n) a.swidth

let sra_const t a n =
  if n = 0 then a
  else
    let n = min n (a.swidth - 1) in
    sext t (slice t a ~hi:(a.swidth - 1) ~lo:n) a.swidth

let eq t a b = cmp t Netlist.Eq a b
let ne t a b = cmp t Netlist.Ne a b
let lt t ~signed a b =
  cmp t (Netlist.Lt (if signed then Netlist.Signed else Netlist.Unsigned)) a b
let le t ~signed a b =
  cmp t (Netlist.Le (if signed then Netlist.Signed else Netlist.Unsigned)) a b
let gt t ~signed a b = lt t ~signed b a
let ge t ~signed a b = le t ~signed b a

let mux t sel a b =
  if sel.swidth <> 1 then failwith "Builder.mux: select must be 1 bit";
  check_same "mux" a b;
  match const_of t sel with
  | Some s -> if Bits.to_int s = 1 then a else b
  | None -> pure t (Netlist.Mux (sel.suid, a.suid, b.suid)) a.swidth

let mux_list t sel cases =
  match cases with
  | [] -> invalid_arg "Builder.mux_list: empty"
  | [ only ] -> only
  | _ ->
      (* Balanced selection tree on the bits of [sel]. *)
      let rec build level cases =
        match cases with
        | [ only ] -> only
        | _ ->
            let rec pair = function
              | a :: b :: rest ->
                  mux t (bit t sel level) b a :: pair rest
              | [ a ] -> [ a ]
              | [] -> []
            in
            build (level + 1) (pair cases)
      in
      let needed_bits =
        let n = List.length cases in
        let rec bits k acc = if k >= n then acc else bits (2 * k) (acc + 1) in
        bits 1 0
      in
      if sel.swidth < needed_bits then
        failwith "Builder.mux_list: select too narrow for case count";
      build 0 cases

let unconnected_sentinel = -1

let reg t ?enable ?(init = 0) ~width name =
  let kind =
    Netlist.Reg
      {
        d = unconnected_sentinel;
        enable = Option.map (fun e -> e.suid) enable;
        init = Bits.create ~width init;
      }
  in
  raw_add t kind width (Some name)

let connect t q d =
  let cell = t.cells.(q.suid) in
  (match cell.nkind with
  | Netlist.Reg r ->
      if r.d <> unconnected_sentinel then
        failwith "Builder.connect: register already connected";
      if d.swidth <> q.swidth then
        failwith
          (Printf.sprintf "Builder.connect: width mismatch (%d vs %d)" q.swidth
             d.swidth);
      cell.nkind <- Netlist.Reg { r with d = d.suid }
  | _ -> failwith "Builder.connect: not a register")

let reg_next t ?enable ?init ?(name = "pipe") d =
  let q = reg t ?enable ?init ~width:d.swidth name in
  connect t q d;
  q

let output t name s = t.outs <- t.outs @ [ (name, s.suid) ]

let name t s n =
  t.cells.(s.suid).nname <- Some n;
  s

let mem t name ~size ~width =
  if size < 2 then invalid_arg "Builder.mem: size must be at least 2";
  let mid = List.length t.mems in
  t.mems <- (name, size, width) :: t.mems;
  { mid; msize = size; mwidth = width }

let mem_addr_width m =
  let rec go k acc = if k >= m.msize then acc else go (2 * k) (acc + 1) in
  max 1 (go 1 0)

let mem_read t m addr =
  if width addr <> mem_addr_width m then
    failwith
      (Printf.sprintf "Builder.mem_read: address width %d, expected %d"
         (width addr) (mem_addr_width m));
  pure t (Netlist.Mem_read (m.mid, addr.suid)) m.mwidth

let mem_write t m ~enable ~addr ~data =
  if width enable <> 1 then failwith "Builder.mem_write: enable must be 1 bit";
  if width addr <> mem_addr_width m then failwith "Builder.mem_write: address width";
  if width data <> m.mwidth then failwith "Builder.mem_write: data width";
  t.mem_writes <-
    (m.mid, { Netlist.w_enable = enable.suid; w_addr = addr.suid; w_data = data.suid })
    :: t.mem_writes

(* The latest-declared register whose input is still the sentinel. *)
let rec last_unconnected t i =
  if i < 0 then None
  else
    match t.cells.(i) with
    | { nkind = Netlist.Reg { d; _ }; nname; _ } when d = unconnected_sentinel
      ->
        Some (Option.value nname ~default:"?")
    | _ -> last_unconnected t (i - 1)

let finalize t =
  (match last_unconnected t (t.count - 1) with
  | None -> ()
  | Some n ->
      failwith
        (Printf.sprintf "Builder.finalize(%s): register %s never connected"
           t.cname n));
  let nodes =
    Array.init t.count (fun i ->
        let c = t.cells.(i) in
        { Netlist.uid = i; width = c.nwidth; kind = c.nkind; name = c.nname })
  in
  let mems =
    List.rev t.mems
    |> List.mapi (fun mem_id (mem_name, mem_size, mem_width) ->
           {
             Netlist.mem_id;
             mem_name;
             mem_size;
             mem_width;
             mem_writes =
               List.rev t.mem_writes
               |> List.filter_map (fun (m, w) -> if m = mem_id then Some w else None);
           })
    |> Array.of_list
  in
  let circuit =
    {
      Netlist.circuit_name = t.cname;
      nodes;
      mems;
      inputs = t.ins;
      outputs = t.outs;
    }
  in
  Netlist.validate circuit;
  circuit
