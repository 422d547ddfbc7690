module Vec = Dtx_util.Vec

type entry =
  | Prepared of {
      txn : int;
      time : float;
      coord : int;
      redo : (string * string) list;
    }
  | Committed of { txn : int; time : float }
  | Aborted of { txn : int; time : float }

(* [state] holds one byte per transaction id (ids are the coordinator's
   dense counter): the low two bits are the latest state [outcome_of]
   reports, bit [pending] is set while the latest record for the id is a
   [Prepared] — what [in_doubt] lists. An id at or past the end reads as
   0, i.e. unknown. It lives beside [log] in the durable record, so a crash
   keeps it as it keeps the log. *)
type t = { log : entry Vec.t; mutable state : Bytes.t }

let st_unknown = 0
let st_in_doubt = 1
let st_committed = 2
let st_aborted = 3
let pending = 4

let create () = { log = Vec.create (); state = Bytes.empty }

let state t txn =
  if txn >= 0 && txn < Bytes.length t.state then
    Char.code (Bytes.unsafe_get t.state txn)
  else st_unknown

let set_state t txn s =
  if txn < 0 then invalid_arg "Wal.append: negative transaction id";
  let len = Bytes.length t.state in
  if txn >= len then begin
    let grown = Bytes.make (max (txn + 1) (max 256 (2 * len))) '\000' in
    Bytes.blit t.state 0 grown 0 len;
    t.state <- grown
  end;
  Bytes.unsafe_set t.state txn (Char.unsafe_chr s)

let append t e =
  (match e with
   | Prepared { txn; _ } ->
     (* A Prepared after an outcome leaves the outcome. *)
     let outcome = state t txn land 3 in
     set_state t txn
       ((if outcome = st_unknown then st_in_doubt else outcome) lor pending)
   | Committed { txn; _ } -> set_state t txn st_committed
   | Aborted { txn; _ } -> set_state t txn st_aborted);
  Vec.push t.log e

let entries t = Vec.to_list t.log

let length t = Vec.length t.log

let outcome_of t txn =
  match state t txn land 3 with
  | 0 -> `Unknown
  | 1 -> `In_doubt
  | 2 -> `Committed
  | _ -> `Aborted

let in_doubt t =
  let acc = ref [] in
  for txn = Bytes.length t.state - 1 downto 0 do
    if Char.code (Bytes.unsafe_get t.state txn) land pending <> 0 then
      acc := txn :: !acc
  done;
  !acc

(* The index rules out a transaction the log holds no record of; otherwise
   the latest Prepared is found by walking back from the tail, which for a
   transaction still in doubt at recovery is the few records logged since
   it prepared. *)
let prepared_record t txn =
  if state t txn = st_unknown then None
  else
    let rec back i =
      if i < 0 then None
      else
        match Vec.get t.log i with
        | Prepared { txn = txn'; coord; redo; _ } when txn' = txn ->
          Some (coord, redo)
        | _ -> back (i - 1)
    in
    back (Vec.length t.log - 1)

let resolve_presumed_abort t =
  let pending = in_doubt t in
  List.iter (fun txn -> append t (Aborted { txn; time = 0.0 })) pending;
  pending
