module IntSet = Set.Make (Int)

module H = Hashtbl.Make (Int)

(* [inc] is the exact reverse of [out]: [h ∈ out(w)] iff [w ∈ inc(h)]. It
   exists so [remove_txn] — called for every finished transaction — touches
   only the removed vertex's neighbours instead of folding over the whole
   table (which made transaction completion O(live transactions) per site). *)
type t = { out : IntSet.t H.t; inc : IntSet.t H.t }

let create () = { out = H.create 32; inc = H.create 32 }

let set_of tbl v =
  match H.find_opt tbl v with Some s -> s | None -> IntSet.empty

let update tbl v s =
  if IntSet.is_empty s then H.remove tbl v else H.replace tbl v s

let add_wait t ~waiter ~holders =
  let cur = set_of t.out waiter in
  let s =
    List.fold_left
      (fun s h ->
        if h = waiter then s
        else begin
          if not (IntSet.mem h s) then
            update t.inc h (IntSet.add waiter (set_of t.inc h));
          IntSet.add h s
        end)
      cur holders
  in
  update t.out waiter s

let clear_waits_of t txn =
  match H.find_opt t.out txn with
  | None -> ()
  | Some s ->
    H.remove t.out txn;
    IntSet.iter
      (fun h -> update t.inc h (IntSet.remove txn (set_of t.inc h)))
      s

let remove_txn t txn =
  clear_waits_of t txn;
  match H.find_opt t.inc txn with
  | None -> ()
  | Some waiters ->
    H.remove t.inc txn;
    IntSet.iter
      (fun w -> update t.out w (IntSet.remove txn (set_of t.out w)))
      waiters

let waits_of t txn =
  match H.find_opt t.out txn with
  | Some s -> IntSet.elements s
  | None -> []

let waiters_of t txn =
  match H.find_opt t.inc txn with
  | Some s -> IntSet.elements s
  | None -> []

let edges t =
  H.fold (fun w s acc -> IntSet.fold (fun h acc -> (w, h) :: acc) s acc) t.out []
  |> List.sort compare

let txns t =
  let set =
    H.fold
      (fun w s acc -> IntSet.union (IntSet.add w acc) s)
      t.out IntSet.empty
  in
  IntSet.elements set

(* DFS with a colour map from every vertex with out-edges, in sorted order:
   the reported cycle is a function of the graph content alone, which is what
   makes deadlock-victim choice deterministic. *)
let find_cycle t =
  let color = H.create 32 in
  (* absent = white, 1 = grey (on stack), 2 = black. Every site runs this on
     each blocked acquire, so probes use [find] + [Not_found] (no [Some]
     box) and successors are walked in place, in ascending order. *)
  let result = ref None in
  let rec dfs path txn =
    match H.find color txn with
    | 1 ->
      (* Found a back edge: extract the cycle from the path. *)
      if !result = None then begin
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if x = txn then x :: acc else take (x :: acc) rest
        in
        result := Some (take [] path)
      end
    | _ -> ()
    | exception Not_found ->
      H.replace color txn 1;
      (match H.find t.out txn with
       | succs ->
         let path = txn :: path in
         IntSet.iter (fun s -> if !result = None then dfs path s) succs
       | exception Not_found -> ());
      H.replace color txn 2
  in
  let starts = List.sort Int.compare (H.fold (fun w _ acc -> w :: acc) t.out []) in
  List.iter (fun v -> if !result = None then dfs [] v) starts;
  !result

let union graphs =
  let t = create () in
  List.iter
    (fun g ->
      H.iter
        (fun w s -> add_wait t ~waiter:w ~holders:(IntSet.elements s))
        g.out)
    graphs;
  t

let copy t = union [ t ]

let size t = H.fold (fun _ s acc -> acc + IntSet.cardinal s) t.out 0

let pp ppf t =
  List.iter (fun (w, h) -> Format.fprintf ppf "%d -> %d@." w h) (edges t)

let clear t =
  H.reset t.out;
  H.reset t.inc
