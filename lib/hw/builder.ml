type s = { suid : Netlist.uid; swidth : int }

type mem_handle = { mid : int; msize : int; mwidth : int }

(* While a circuit is built, node [u] is the [stride] ints of [cells] from
   [u * stride]: a tag, three fields and the width.  Nothing boxed is
   stored per node; [finalize] builds the [Netlist.node] records once.

   tag                 field a         field b          field c
   input               input position  -                -
   const               masked value    -                -
   not, neg            operand         -                -
   binop (15 tags)     lhs             rhs              -
   mux                 select          then             else
   slice               operand         hi               lo
   concat              high            low              -
   uext, sext          operand         -                -
   reg                 d (-1: none)    enable (-1)      masked init
   mem_read            memory          address          -

   Unused fields are 0, so five equal ints are an equal node. *)
let stride = 5
let t_input = 0
let t_const = 1
let t_not = 2
let t_neg = 3
let t_mux = 4
let t_slice = 5
let t_concat = 6
let t_uext = 7
let t_sext = 8
let t_reg = 9
let t_mem_read = 10
let t_binop = 11

let binops =
  Netlist.
    [| Add; Sub; Mul; And; Or; Xor; Shl; Shr; Sra; Eq; Ne; Lt Signed;
       Lt Unsigned; Le Signed; Le Unsigned |]

let binop_tag : Netlist.binop -> int = function
  | Add -> t_binop
  | Sub -> t_binop + 1
  | Mul -> t_binop + 2
  | And -> t_binop + 3
  | Or -> t_binop + 4
  | Xor -> t_binop + 5
  | Shl -> t_binop + 6
  | Shr -> t_binop + 7
  | Sra -> t_binop + 8
  | Eq -> t_binop + 9
  | Ne -> t_binop + 10
  | Lt Signed -> t_binop + 11
  | Lt Unsigned -> t_binop + 12
  | Le Signed -> t_binop + 13
  | Le Unsigned -> t_binop + 14

type t = {
  cname : string;
  mutable cells : int array;
  mutable count : int;
  mutable table : int array;
      (* open addressing over the pure nodes' uids, -1 empty; the length
         is a power of two and at least twice [pure] *)
  mutable pure : int;
  mutable names : (Netlist.uid * string) list;        (* newest first *)
  mutable ins : (string * Netlist.uid) list;          (* reversed *)
  mutable nins : int;
  mutable outs : (string * Netlist.uid) list;         (* reversed *)
  mutable mems : (string * int * int) list;          (* reversed: name, size, width *)
  mutable mem_writes : (int * Netlist.write_port) list;
}

let create cname =
  {
    cname;
    cells = Array.make (64 * stride) 0;
    count = 0;
    table = Array.make 256 (-1);
    pure = 0;
    names = [];
    ins = [];
    nins = 0;
    outs = [];
    mems = [];
    mem_writes = [];
  }

let width s = s.swidth
let uid s = s.suid
let signal t u = { suid = u; swidth = t.cells.((u * stride) + 4) }

let raw_add t tag a b c width =
  let o = t.count * stride in
  if o = Array.length t.cells then begin
    let bigger = Array.make (2 * o) 0 in
    Array.blit t.cells 0 bigger 0 o;
    t.cells <- bigger
  end;
  let cells = t.cells in
  cells.(o) <- tag;
  cells.(o + 1) <- a;
  cells.(o + 2) <- b;
  cells.(o + 3) <- c;
  cells.(o + 4) <- width;
  t.count <- t.count + 1;
  { suid = t.count - 1; swidth = width }

let hash tag a b c w =
  let m = 0x2545F491 in
  let h = (((((((tag * m) + a) * m) + b) * m) + c) * m) + w in
  h lxor (h lsr 31)

(* The slot of [table] holding the pure node equal to the five ints, or
   the empty slot where it belongs. *)
let find_slot t tag a b c w =
  let table = t.table and cells = t.cells in
  let mask = Array.length table - 1 in
  let rec go i =
    let u = table.(i) in
    if u < 0 then i
    else
      let o = u * stride in
      if cells.(o) = tag && cells.(o + 1) = a && cells.(o + 2) = b
         && cells.(o + 3) = c && cells.(o + 4) = w
      then i
      else go ((i + 1) land mask)
  in
  go (hash tag a b c w land mask)

let grow_table t =
  let old = t.table in
  t.table <- Array.make (2 * Array.length old) (-1);
  Array.iter
    (fun u ->
      if u >= 0 then begin
        let o = u * stride and c = t.cells in
        t.table.(find_slot t c.(o) c.(o + 1) c.(o + 2) c.(o + 3) c.(o + 4)) <- u
      end)
    old

(* Pure nodes are hash-consed: the tag, fields and width are the
   structural key (the fields embed operand uids), so identical
   subexpressions map to one node. *)
let pure t tag a b c w =
  let i = find_slot t tag a b c w in
  let u = t.table.(i) in
  if u >= 0 then { suid = u; swidth = w }
  else begin
    let s = raw_add t tag a b c w in
    t.table.(i) <- s.suid;
    t.pure <- t.pure + 1;
    if 2 * t.pure > Array.length t.table then grow_table t;
    s
  end

let is_const t s = t.cells.(s.suid * stride) = t_const
let const_bits t s = Bits.create ~width:s.swidth t.cells.((s.suid * stride) + 1)

let input t name w =
  let s = raw_add t t_input t.nins 0 0 w in
  t.nins <- t.nins + 1;
  t.names <- (s.suid, name) :: t.names;
  t.ins <- (name, s.suid) :: t.ins;
  s

let constb t b = pure t t_const (Bits.to_int b) 0 0 (Bits.width b)
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

let binop_w t op a b w =
  check_same (Netlist.binop_name op) a b;
  if is_const t a && is_const t b then
    constb t (eval_binop op (const_bits t a) (const_bits t b))
  else pure t (binop_tag op) a.suid b.suid 0 w

let arith t op a b = binop_w t op a b a.swidth
let cmp t op a b = binop_w t op a b 1

let add t a b = arith t Netlist.Add a b
let sub t a b = arith t Netlist.Sub a b
let mul t a b = arith t Netlist.Mul a b

let neg t a =
  if is_const t a then constb t (Bits.neg (const_bits t a))
  else pure t t_neg a.suid 0 0 a.swidth

let not_ t a =
  if is_const t a then constb t (Bits.lognot (const_bits t a))
  else pure t t_not a.suid 0 0 a.swidth

let and_ t a b = arith t Netlist.And a b
let or_ t a b = arith t Netlist.Or a b
let xor_ t a b = arith t Netlist.Xor a b

(* Shift amounts may have any width (their unsigned value is used). *)
let shift_op t op a n =
  if is_const t a && is_const t n then
    let x = const_bits t a in
    constb t (eval_binop op x (Bits.uext (const_bits t n) (Bits.width x)))
  else pure t (binop_tag op) a.suid n.suid 0 a.swidth

let shl t a n = shift_op t Netlist.Shl a n
let shr t a n = shift_op t Netlist.Shr a n
let sra t a n = shift_op t Netlist.Sra a n

let slice t a ~hi ~lo =
  if hi = a.swidth - 1 && lo = 0 then a
  else if is_const t a then constb t (Bits.slice (const_bits t a) ~hi ~lo)
  else pure t t_slice a.suid hi lo (hi - lo + 1)

let bit t a i = slice t a ~hi:i ~lo:i

let concat t hi lo = pure t t_concat hi.suid lo.suid 0 (hi.swidth + lo.swidth)

let concat_list t = function
  | [] -> invalid_arg "Builder.concat_list: empty"
  | first :: rest -> List.fold_left (fun acc s -> concat t acc s) first rest

let extend tag fold t a w =
  if w = a.swidth then a
  else if w < a.swidth then slice t a ~hi:(w - 1) ~lo:0
  else if is_const t a then constb t (fold (const_bits t a) w)
  else pure t tag a.suid 0 0 w

let uext t a w = extend t_uext Bits.uext t a w
let sext t a w = extend t_sext Bits.sext t a w

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

let binop t op a b =
  match op with
  | Netlist.Shl | Netlist.Shr | Netlist.Sra -> shift_op t op a b
  | Netlist.Eq | Netlist.Ne | Netlist.Lt _ | Netlist.Le _ -> cmp t op a b
  | _ -> arith t op a b

let mux t sel a b =
  if sel.swidth <> 1 then failwith "Builder.mux: select must be 1 bit";
  check_same "mux" a b;
  if is_const t sel then if Bits.to_int (const_bits t sel) = 1 then a else b
  else pure t t_mux sel.suid a.suid b.suid a.swidth

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

let reg t ?enable ?(init = 0) ~width name =
  let init = Bits.to_int (Bits.create ~width init) in
  let en = match enable with Some e -> e.suid | None -> -1 in
  let s = raw_add t t_reg (-1) en init width in
  t.names <- (s.suid, name) :: t.names;
  s

let connect t q d =
  let o = q.suid * stride in
  if t.cells.(o) <> t_reg then failwith "Builder.connect: not a register";
  if t.cells.(o + 1) >= 0 then
    failwith "Builder.connect: register already connected";
  if d.swidth <> q.swidth then
    failwith
      (Printf.sprintf "Builder.connect: width mismatch (%d vs %d)" q.swidth
         d.swidth);
  t.cells.(o + 1) <- d.suid

let reg_next t ?enable ?init ?(name = "pipe") d =
  let q = reg t ?enable ?init ~width:d.swidth name in
  connect t q d;
  q

let output t name s = t.outs <- (name, s.suid) :: t.outs

let name t s n =
  t.names <- (s.suid, n) :: t.names;
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
  pure t t_mem_read m.mid addr.suid 0 m.mwidth

let mem_write t m ~enable ~addr ~data =
  if width enable <> 1 then failwith "Builder.mem_write: enable must be 1 bit";
  if width addr <> mem_addr_width m then failwith "Builder.mem_write: address width";
  if width data <> m.mwidth then failwith "Builder.mem_write: data width";
  t.mem_writes <-
    (m.mid, { Netlist.w_enable = enable.suid; w_addr = addr.suid; w_data = data.suid })
    :: t.mem_writes

(* The latest-declared register whose input is still unconnected. *)
let rec last_unconnected t i =
  if i < 0 then None
  else
    let o = i * stride in
    if t.cells.(o) = t_reg && t.cells.(o + 1) < 0 then
      Some (Option.value (List.assoc_opt i t.names) ~default:"?")
    else last_unconnected t (i - 1)

let finalize t =
  (match last_unconnected t (t.count - 1) with
  | None -> ()
  | Some n ->
      failwith
        (Printf.sprintf "Builder.finalize(%s): register %s never connected"
           t.cname n));
  (* [names] is newest first: the first name seen for a node wins. *)
  let names = Array.make t.count None in
  List.iter
    (fun (u, n) -> if Option.is_none names.(u) then names.(u) <- Some n)
    t.names;
  let inputs = List.rev t.ins in
  let in_names = Array.of_list (List.map fst inputs) in
  let cells = t.cells in
  (* The tags, as numbered above. *)
  let kind o w : Netlist.kind =
    let a = cells.(o + 1) and b = cells.(o + 2) and c = cells.(o + 3) in
    match cells.(o) with
    | 0 -> Input in_names.(a)
    | 1 -> Const (Bits.create ~width:w a)
    | 2 -> Unop (Not, a)
    | 3 -> Unop (Neg, a)
    | 4 -> Mux (a, b, c)
    | 5 -> Slice (a, b, c)
    | 6 -> Concat (a, b)
    | 7 -> Uext a
    | 8 -> Sext a
    | 9 ->
        Reg
          {
            d = a;
            enable = (if b < 0 then None else Some b);
            init = Bits.create ~width:w c;
          }
    | 10 -> Mem_read (a, b)
    | tag -> Binop (binops.(tag - t_binop), a, b)
  in
  let nodes =
    Array.init t.count (fun i ->
        let o = i * stride in
        let w = cells.(o + 4) in
        { Netlist.uid = i; width = w; kind = kind o w; name = names.(i) })
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
      inputs;
      outputs = List.rev t.outs;
    }
  in
  Netlist.validate circuit;
  circuit
