type row = {
  language : string;
  paradigm : string;
  tool : string;
  tool_type : string;
  openness : string;
}

(* Table I rows come straight off the registration table: one row per
   tool, in registration order. *)
let rows =
  List.map
    (fun (e : Registry.entry) ->
      {
        language = Design.language_name e.tool;
        paradigm = e.paradigm;
        tool = Design.tool_name e.tool;
        tool_type = e.tool_type;
        openness = e.openness;
      })
    Registry.all

let render () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s | %-14s | %-11s | %-5s | %s\n" "Language" "Paradigm"
       "Tool" "Type" "Openness");
  Buffer.add_string buf (String.make 60 '-' ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-8s | %-14s | %-11s | %-5s | %s\n" r.language
           r.paradigm r.tool r.tool_type r.openness))
    rows;
  Buffer.contents buf
