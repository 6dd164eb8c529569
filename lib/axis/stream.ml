let lanes = 8
let in_width = 12
let out_width = 9

let s_valid = "s_valid"
let s_ready = "s_ready"
let s_last = "s_last"
let s_data i = Printf.sprintf "s_data%d" i
let m_valid = "m_valid"
let m_ready = "m_ready"
let m_last = "m_last"
let m_data i = Printf.sprintf "m_data%d" i

type ports = {
  s_valid : Hw.Builder.s;
  s_last : Hw.Builder.s;
  s_data : Hw.Builder.s array;
  m_ready : Hw.Builder.s;
}

let declare_inputs b =
  let open Hw in
  {
    s_valid = Builder.input b s_valid 1;
    s_last = Builder.input b s_last 1;
    s_data = Array.init lanes (fun i -> Builder.input b (s_data i) in_width);
    m_ready = Builder.input b m_ready 1;
  }

let expose_outputs b ~s_ready:sr ~m_valid:mv ~m_last:ml ~m_data:md =
  let open Hw in
  Builder.output b s_ready sr;
  Builder.output b m_valid mv;
  Builder.output b m_last ml;
  Array.iteri (fun i s -> Builder.output b (m_data i) s) md

let is_wrapped (c : Hw.Netlist.t) =
  let has_in n = List.mem_assoc n c.inputs in
  let has_out n = List.mem_assoc n c.outputs in
  has_in s_valid && has_in s_last && has_in m_ready && has_out s_ready
  && has_out m_valid && has_out m_last
  && List.for_all (fun i -> has_in (s_data i) && has_out (m_data i))
       (List.init lanes Fun.id)
