let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let element_children n =
  List.filter (fun c -> not (Node.is_attribute c)) (Node.children n)

let attribute_children n = List.filter Node.is_attribute (Node.children n)

let rec emit buf ~indent ~level (n : Node.t) =
  let pad = if indent then String.make (2 * level) ' ' else "" in
  let nl = if indent then "\n" else "" in
  Buffer.add_string buf pad;
  Buffer.add_char buf '<';
  Buffer.add_string buf n.Node.label;
  List.iter
    (fun (a : Node.t) ->
      let name = String.sub a.Node.label 1 (String.length a.Node.label - 1) in
      let value = match a.Node.text with Some v -> v | None -> "" in
      Buffer.add_char buf ' ';
      Buffer.add_string buf name;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape value);
      Buffer.add_char buf '"')
    (attribute_children n);
  let kids = element_children n in
  match (kids, n.Node.text) with
  | [], None ->
    Buffer.add_string buf "/>";
    Buffer.add_string buf nl
  | [], Some t ->
    Buffer.add_char buf '>';
    Buffer.add_string buf (escape t);
    Buffer.add_string buf "</";
    Buffer.add_string buf n.Node.label;
    Buffer.add_char buf '>';
    Buffer.add_string buf nl
  | _ ->
    Buffer.add_char buf '>';
    (match n.Node.text with Some t -> Buffer.add_string buf (escape t) | None -> ());
    Buffer.add_string buf nl;
    List.iter (emit buf ~indent ~level:(level + 1)) kids;
    Buffer.add_string buf pad;
    Buffer.add_string buf "</";
    Buffer.add_string buf n.Node.label;
    Buffer.add_char buf '>';
    Buffer.add_string buf nl

let node_to_string ?(indent = true) n =
  let buf = Buffer.create 1024 in
  emit buf ~indent ~level:0 n;
  let s = Buffer.contents buf in
  if indent && String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

let to_string ?(indent = true) ?(decl = true) (doc : Doc.t) =
  let header = if decl then "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n" else "" in
  header ^ node_to_string ~indent doc.Doc.root
