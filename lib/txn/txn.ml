module Op = Dtx_update.Op

type status = Active | Waiting | Committed | Aborted | Failed

let status_to_string = function
  | Active -> "active"
  | Waiting -> "waiting"
  | Committed -> "committed"
  | Aborted -> "aborted"
  | Failed -> "failed"

type op_record = {
  op_index : int;
  doc : string;
  op : Op.t;
  op_text : string;
      (* canonical Op.to_string rendering, computed once at creation so
         shipment building and wire sizing never re-render the operation *)
  mutable executed : bool;
  mutable executed_sites : int list;
}

type t = {
  id : int;
  client : int;
  coordinator : int;
  ops : op_record array;
  mutable status : status;
  mutable next_op : int;
  mutable submitted_at : float;
  mutable finished_at : float;
  mutable wait_started : float;
  mutable waited_total : float;
}

let create ~id ~client ~coordinator ops =
  let ops =
    Array.of_list
      (List.mapi
         (fun i (doc, op) ->
           { op_index = i; doc; op; op_text = Op.to_string op;
             executed = false; executed_sites = [] })
         ops)
  in
  { id; client; coordinator; ops; status = Active; next_op = 0;
    submitted_at = 0.0; finished_at = 0.0; wait_started = 0.0;
    waited_total = 0.0 }

let next_operation t =
  if t.next_op < Array.length t.ops then Some t.ops.(t.next_op) else None

let advance t =
  (match next_operation t with
   | Some op -> op.executed <- true
   | None -> ());
  t.next_op <- t.next_op + 1

let is_finished t = t.next_op >= Array.length t.ops

let is_update t =
  Array.exists (fun r -> Op.is_update r.op) t.ops

let docs t =
  Array.to_list t.ops
  |> List.map (fun r -> r.doc)
  |> List.sort_uniq compare

let response_time t = t.finished_at -. t.submitted_at

let pp ppf t =
  Format.fprintf ppf "t%d[client=%d coord=s%d ops=%d status=%s]" t.id t.client
    t.coordinator (Array.length t.ops) (status_to_string t.status)
