module Op = Dtx_update.Op

type op_status =
  | Granted
  | Blocked
  | Deadlock
  | Failed of string

type shipment = {
  s_index : int;
  s_doc : string;
  s_op : Op.t;
  s_text : string;
  s_optimistic : bool;
}

let shipment ?(optimistic = false) ~index ~doc op =
  { s_index = index; s_doc = doc; s_op = op; s_text = Op.to_string op;
    s_optimistic = optimistic }

type t =
  | Op_ship of { txn : int; attempt : int; seq : int; ops : shipment list }
  | Op_status of {
      txn : int;
      attempt : int;
      seq : int;
      granted : int;
      status : op_status;
      result_bytes : int;
    }
  | Op_undo of { txn : int; op_index : int; attempt : int }
  | Prepare of { txn : int }
  | Vote of { txn : int; ok : bool }
  | Commit of { txn : int }
  | Abort of { txn : int; quiet : bool }
  | End_ack of { txn : int; ok : bool }
  | Wake of { txn : int }
  | Wound of { txn : int }
  | Victim of { txn : int }
  | Wfg_request
  | Wfg_reply of { edges : (int * int) list }
  | Outcome_query of { txn : int }
  | Outcome_reply of { txn : int; committed : bool }

module Kind = struct
  type t =
    | Op_ship
    | Op_status
    | Op_undo
    | Prepare
    | Vote
    | Commit
    | Abort
    | End_ack
    | Wake
    | Wound
    | Victim
    | Wfg_request
    | Wfg_reply
    | Outcome_query
    | Outcome_reply

  let all =
    [ Op_ship; Op_status; Op_undo; Prepare; Vote; Commit; Abort; End_ack;
      Wake; Wound; Victim; Wfg_request; Wfg_reply; Outcome_query;
      Outcome_reply ]

  let count = 15

  let index = function
    | Op_ship -> 0
    | Op_status -> 1
    | Op_undo -> 2
    | Prepare -> 3
    | Vote -> 4
    | Commit -> 5
    | Abort -> 6
    | End_ack -> 7
    | Wake -> 8
    | Wound -> 9
    | Victim -> 10
    | Wfg_request -> 11
    | Wfg_reply -> 12
    | Outcome_query -> 13
    | Outcome_reply -> 14

  let to_string = function
    | Op_ship -> "op_ship"
    | Op_status -> "op_status"
    | Op_undo -> "op_undo"
    | Prepare -> "prepare"
    | Vote -> "vote"
    | Commit -> "commit"
    | Abort -> "abort"
    | End_ack -> "end_ack"
    | Wake -> "wake"
    | Wound -> "wound"
    | Victim -> "victim"
    | Wfg_request -> "wfg_request"
    | Wfg_reply -> "wfg_reply"
    | Outcome_query -> "outcome_query"
    | Outcome_reply -> "outcome_reply"
end

let kind = function
  | Op_ship _ -> Kind.Op_ship
  | Op_status _ -> Kind.Op_status
  | Op_undo _ -> Kind.Op_undo
  | Prepare _ -> Kind.Prepare
  | Vote _ -> Kind.Vote
  | Commit _ -> Kind.Commit
  | Abort _ -> Kind.Abort
  | End_ack _ -> Kind.End_ack
  | Wake _ -> Kind.Wake
  | Wound _ -> Kind.Wound
  | Victim _ -> Kind.Victim
  | Wfg_request -> Kind.Wfg_request
  | Wfg_reply _ -> Kind.Wfg_reply
  | Outcome_query _ -> Kind.Outcome_query
  | Outcome_reply _ -> Kind.Outcome_reply

let txn = function
  | Op_ship { txn; _ }
  | Op_status { txn; _ }
  | Op_undo { txn; _ }
  | Prepare { txn }
  | Vote { txn; _ }
  | Commit { txn }
  | Abort { txn; _ }
  | End_ack { txn; _ }
  | Wake { txn }
  | Wound { txn }
  | Victim { txn }
  | Outcome_query { txn }
  | Outcome_reply { txn; _ } -> Some txn
  | Wfg_request | Wfg_reply _ -> None

(* --- encoding ------------------------------------------------------- *)

let put_varint b n =
  if n < 0 then invalid_arg "Msg.encode: negative integer";
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

(* One process-wide scratch buffer: [encode] is off the simulation hot path
   (dispatch sizes messages arithmetically, see [size]) but round-trip
   tests and tooling still call it in tight loops; reusing the buffer makes
   each call allocate only its result string. *)
let encode_buf = Buffer.create 256

let encode m =
  let b = encode_buf in
  Buffer.clear b;
  Buffer.add_char b (Char.chr (Kind.index (kind m)));
  (match m with
   | Op_ship { txn; attempt; seq; ops } ->
     put_varint b txn;
     put_varint b attempt;
     put_varint b seq;
     put_varint b (List.length ops);
     List.iter
       (fun s ->
         put_varint b s.s_index;
         put_string b s.s_doc;
         put_string b s.s_text;
         put_bool b s.s_optimistic)
       ops
   | Op_status { txn; attempt; seq; granted; status; result_bytes } ->
     put_varint b txn;
     put_varint b attempt;
     put_varint b seq;
     put_varint b granted;
     (match status with
      | Granted -> Buffer.add_char b '\000'
      | Blocked -> Buffer.add_char b '\001'
      | Deadlock -> Buffer.add_char b '\002'
      | Failed msg ->
        Buffer.add_char b '\003';
        put_string b msg);
     put_varint b result_bytes
   | Op_undo { txn; op_index; attempt } ->
     put_varint b txn;
     put_varint b op_index;
     put_varint b attempt
   | Prepare { txn } | Commit { txn } | Wake { txn } | Wound { txn }
   | Victim { txn } | Outcome_query { txn } ->
     put_varint b txn
   | Vote { txn; ok } | End_ack { txn; ok } ->
     put_varint b txn;
     put_bool b ok
   | Outcome_reply { txn; committed } ->
     put_varint b txn;
     put_bool b committed
   | Abort { txn; quiet } ->
     put_varint b txn;
     put_bool b quiet
   | Wfg_request -> ()
   | Wfg_reply { edges } ->
     put_varint b (List.length edges);
     List.iter
       (fun (w, h) ->
         put_varint b w;
         put_varint b h)
       edges);
  Buffer.contents b

(* --- decoding ------------------------------------------------------- *)

exception Bad of string

let decode s =
  let pos = ref 0 in
  let len = String.length s in
  let byte () =
    if !pos >= len then raise (Bad "truncated message");
    let c = Char.code s.[!pos] in
    incr pos;
    c
  in
  let varint () =
    let rec go shift acc =
      if shift > 62 then raise (Bad "varint overflow");
      let c = byte () in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0
  in
  let bool_ () =
    match byte () with
    | 0 -> false
    | 1 -> true
    | n -> raise (Bad (Printf.sprintf "bad bool byte %d" n))
  in
  let string_ () =
    let n = varint () in
    if !pos + n > len then raise (Bad "truncated string");
    let r = String.sub s !pos n in
    pos := !pos + n;
    r
  in
  (* The wire text is kept verbatim as [s_text]: re-encoding a decoded
     shipment writes the same bytes without re-rendering the operation. *)
  let op_ () =
    let txt = string_ () in
    match Op.parse txt with
    | Ok op -> (op, txt)
    | Error e -> raise (Bad (Printf.sprintf "bad operation %S: %s" txt e))
  in
  try
    if len = 0 then Error "empty message"
    else begin
      let tag = byte () in
      let m =
        match tag with
        | 0 ->
          let txn = varint () in
          let attempt = varint () in
          let seq = varint () in
          let n = varint () in
          let ops =
            List.init n (fun _ ->
                let s_index = varint () in
                let s_doc = string_ () in
                let s_op, s_text = op_ () in
                let s_optimistic = bool_ () in
                { s_index; s_doc; s_op; s_text; s_optimistic })
          in
          Op_ship { txn; attempt; seq; ops }
        | 1 ->
          let txn = varint () in
          let attempt = varint () in
          let seq = varint () in
          let granted = varint () in
          let status =
            match byte () with
            | 0 -> Granted
            | 1 -> Blocked
            | 2 -> Deadlock
            | 3 -> Failed (string_ ())
            | n -> raise (Bad (Printf.sprintf "bad status byte %d" n))
          in
          let result_bytes = varint () in
          Op_status { txn; attempt; seq; granted; status; result_bytes }
        | 2 ->
          let txn = varint () in
          let op_index = varint () in
          let attempt = varint () in
          Op_undo { txn; op_index; attempt }
        | 3 -> Prepare { txn = varint () }
        | 4 ->
          let txn = varint () in
          Vote { txn; ok = bool_ () }
        | 5 -> Commit { txn = varint () }
        | 6 ->
          let txn = varint () in
          Abort { txn; quiet = bool_ () }
        | 7 ->
          let txn = varint () in
          End_ack { txn; ok = bool_ () }
        | 8 -> Wake { txn = varint () }
        | 9 -> Wound { txn = varint () }
        | 10 -> Victim { txn = varint () }
        | 11 -> Wfg_request
        | 12 ->
          let n = varint () in
          let edges =
            List.init n (fun _ ->
                let w = varint () in
                let h = varint () in
                (w, h))
          in
          Wfg_reply { edges }
        | 13 -> Outcome_query { txn = varint () }
        | 14 ->
          let txn = varint () in
          Outcome_reply { txn; committed = bool_ () }
        | n -> raise (Bad (Printf.sprintf "unknown message tag %d" n))
      in
      if !pos <> len then Error "trailing bytes" else Ok m
    end
  with Bad e -> Error e

(* [size] is called by [Net.dispatch] for every message copy, so it computes
   the encoded width arithmetically — one varint-width sum per field, no
   buffer, no string, no allocation. [test_msg] pins it to
   [String.length (encode m)] for every constructor. *)
let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let string_len s = varint_len (String.length s) + String.length s

let size m =
  1
  +
  match m with
  | Op_ship { txn; attempt; seq; ops } ->
    let rec ops_len l acc =
      match l with
      | [] -> acc
      | s :: rest ->
        ops_len rest
          (acc + varint_len s.s_index + string_len s.s_doc
          + string_len s.s_text + 1)
    in
    varint_len txn + varint_len attempt + varint_len seq
    + varint_len (List.length ops)
    + ops_len ops 0
  | Op_status { txn; attempt; seq; granted; status; result_bytes } ->
    varint_len txn + varint_len attempt + varint_len seq + varint_len granted
    + (match status with
      | Granted | Blocked | Deadlock -> 1
      | Failed msg -> 1 + string_len msg)
    + varint_len result_bytes
    (* the modelled result payload rides on top of the encoded bytes *)
    + result_bytes
  | Op_undo { txn; op_index; attempt } ->
    varint_len txn + varint_len op_index + varint_len attempt
  | Prepare { txn }
  | Commit { txn }
  | Wake { txn }
  | Wound { txn }
  | Victim { txn }
  | Outcome_query { txn } -> varint_len txn
  | Vote { txn; _ } | End_ack { txn; _ } | Abort { txn; _ }
  | Outcome_reply { txn; _ } -> varint_len txn + 1
  | Wfg_request -> 0
  | Wfg_reply { edges } ->
    let rec edges_len l acc =
      match l with
      | [] -> acc
      | (w, h) :: rest -> edges_len rest (acc + varint_len w + varint_len h)
    in
    varint_len (List.length edges) + edges_len edges 0

let pp ppf m =
  match m with
  | Op_ship { txn; attempt; seq; ops } ->
    Format.fprintf ppf "op_ship(t%d a%d s%d [%s])" txn attempt seq
      (String.concat "; "
         (List.map (fun s -> Printf.sprintf "#%d %s" s.s_index s.s_doc) ops))
  | Op_status { txn; attempt; seq; granted; status; result_bytes } ->
    Format.fprintf ppf "op_status(t%d a%d s%d granted=%d %s +%dB)" txn attempt
      seq granted
      (match status with
       | Granted -> "granted"
       | Blocked -> "blocked"
       | Deadlock -> "deadlock"
       | Failed e -> "failed:" ^ e)
      result_bytes
  | Op_undo { txn; op_index; attempt } ->
    Format.fprintf ppf "op_undo(t%d #%d a%d)" txn op_index attempt
  | Prepare { txn } -> Format.fprintf ppf "prepare(t%d)" txn
  | Vote { txn; ok } -> Format.fprintf ppf "vote(t%d %b)" txn ok
  | Commit { txn } -> Format.fprintf ppf "commit(t%d)" txn
  | Abort { txn; quiet } ->
    Format.fprintf ppf "abort(t%d%s)" txn (if quiet then " quiet" else "")
  | End_ack { txn; ok } -> Format.fprintf ppf "end_ack(t%d %b)" txn ok
  | Wake { txn } -> Format.fprintf ppf "wake(t%d)" txn
  | Wound { txn } -> Format.fprintf ppf "wound(t%d)" txn
  | Victim { txn } -> Format.fprintf ppf "victim(t%d)" txn
  | Wfg_request -> Format.fprintf ppf "wfg_request"
  | Wfg_reply { edges } ->
    Format.fprintf ppf "wfg_reply(%d edges)" (List.length edges)
  | Outcome_query { txn } -> Format.fprintf ppf "outcome_query(t%d)" txn
  | Outcome_reply { txn; committed } ->
    Format.fprintf ppf "outcome_reply(t%d %s)" txn
      (if committed then "committed" else "aborted")
