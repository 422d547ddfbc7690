type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
  max_ids : int;
  what : string;
}

let create ?(max_ids = max_int) what =
  { ids = Hashtbl.create 64; names = Array.make 16 ""; count = 0; max_ids;
    what }

let count t = t.count

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some id -> id
  | None ->
    let id = t.count in
    if id >= t.max_ids then
      invalid_arg
        (Printf.sprintf "Intern: %s table overflow (max %d symbols)" t.what
           t.max_ids);
    if id >= Array.length t.names then begin
      let bigger = Array.make (2 * Array.length t.names) "" in
      Array.blit t.names 0 bigger 0 t.count;
      t.names <- bigger
    end;
    t.names.(id) <- s;
    t.count <- id + 1;
    Hashtbl.replace t.ids s id;
    id

let find_opt t s = Hashtbl.find_opt t.ids s

let lookup t id =
  if id < 0 || id >= t.count then
    invalid_arg (Printf.sprintf "Intern: unknown %s id %d" t.what id);
  t.names.(id)
