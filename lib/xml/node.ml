module Vec = Dtx_util.Vec

type t = {
  id : int;
  mutable label : string;
  mutable text : string option;
  mutable children : t Vec.t;
  mutable parent : t option;
}

let make ~id ~label ?text () =
  { id; label; text; children = Vec.create (); parent = None }

let is_attribute n = String.length n.label > 0 && n.label.[0] = '@'

let add_child parent child =
  (match child.parent with
   | Some _ -> invalid_arg "Node.add_child: child already attached"
   | None -> ());
  Vec.push parent.children child;
  child.parent <- Some parent

let insert_child parent ~at child =
  (match child.parent with
   | Some _ -> invalid_arg "Node.insert_child: child already attached"
   | None -> ());
  let n = Vec.length parent.children in
  let at = if at < 0 then 0 else if at > n then n else at in
  (* Shift the tail right by one. *)
  Vec.push parent.children child;
  for i = n downto at + 1 do
    Vec.set parent.children i (Vec.get parent.children (i - 1))
  done;
  Vec.set parent.children at child;
  child.parent <- Some parent

let child_index n =
  match n.parent with
  | None -> invalid_arg "Node.child_index: detached node"
  | Some p ->
    let rec loop i =
      if i >= Vec.length p.children then
        invalid_arg "Node.child_index: not in parent's children"
      else if (Vec.get p.children i).id = n.id then i
      else loop (i + 1)
    in
    loop 0

let detach n =
  match n.parent with
  | None -> invalid_arg "Node.detach: detached node"
  | Some p ->
    let idx = child_index n in
    let len = Vec.length p.children in
    for i = idx to len - 2 do
      Vec.set p.children i (Vec.get p.children (i + 1))
    done;
    ignore (Vec.pop p.children);
    n.parent <- None;
    idx

let children n = Vec.to_list n.children

let find_child n ~label = Vec.find_opt (fun c -> c.label = label) n.children

let attribute n name =
  match find_child n ~label:("@" ^ name) with
  | Some a -> a.text
  | None -> None

let rec iter f n =
  f n;
  for i = 0 to Vec.length n.children - 1 do
    iter f (Vec.get n.children i)
  done

let fold f acc n =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) n;
  !acc

let subtree_size n = fold (fun acc _ -> acc + 1) 0 n

let rec depth n = match n.parent with None -> 0 | Some p -> 1 + depth p

let label_path n =
  let rec loop n acc =
    match n.parent with None -> n.label :: acc | Some p -> loop p (n.label :: acc)
  in
  loop n []

let ancestors n =
  let rec loop n acc =
    match n.parent with None -> List.rev acc | Some p -> loop p (p :: acc)
  in
  loop n []

let descendant_or_self n = List.rev (fold (fun acc x -> x :: acc) [] n)

let text_content n =
  (* A leaf's text is its own, whether it is an element or an attribute. *)
  if Vec.is_empty n.children then Option.value n.text ~default:""
  else begin
    let buf = Buffer.create 32 in
    (* Attribute children are not part of an element's text, but asking for
       the text of an attribute node itself must yield its value. *)
    iter
      (fun x ->
        if x == n || not (is_attribute x) then
          match x.text with Some s -> Buffer.add_string buf s | None -> ())
      n;
    Buffer.contents buf
  end

let rec clone ~alloc n =
  let copy = make ~id:(alloc ()) ~label:n.label ?text:n.text () in
  Vec.iter (fun c -> add_child copy (clone ~alloc c)) n.children;
  copy

let rec equal_structure a b =
  a.label = b.label
  && a.text = b.text
  && Vec.length a.children = Vec.length b.children
  &&
  let rec loop i =
    i >= Vec.length a.children
    || (equal_structure (Vec.get a.children i) (Vec.get b.children i)
        && loop (i + 1))
  in
  loop 0

let pp ppf n =
  Format.fprintf ppf "<%s#%d%s kids=%d>" n.label n.id
    (match n.text with Some t -> Printf.sprintf " %S" t | None -> "")
    (Vec.length n.children)
