(* Tests for lock modes (the XDGL compatibility matrix), the lock table and
   the wait-for graph. *)

module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Wfg = Dtx_locks.Wfg

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Mode --------------------------------------------------------------- *)

let test_matrix_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb
            (Printf.sprintf "compat %s/%s symmetric" (Mode.to_string a)
               (Mode.to_string b))
            (Mode.compatible a b) (Mode.compatible b a))
        Mode.all)
    Mode.all

let test_exclusive_conflicts_with_all () =
  List.iter
    (fun m ->
      checkb ("X vs " ^ Mode.to_string m) false (Mode.compatible Mode.X m);
      checkb ("XT vs " ^ Mode.to_string m) false (Mode.compatible Mode.XT m))
    Mode.all

let test_paper_key_incompatibility () =
  (* The Fig.-6 scenario hinges on IX vs ST. *)
  checkb "IX/ST conflict" false (Mode.compatible Mode.IX Mode.ST);
  checkb "IS/ST ok" true (Mode.compatible Mode.IS Mode.ST);
  checkb "IS/IX ok" true (Mode.compatible Mode.IS Mode.IX)

let test_shared_family_compatible () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb
            (Printf.sprintf "%s/%s shared-compatible" (Mode.to_string a)
               (Mode.to_string b))
            true (Mode.compatible a b))
        [ Mode.IS; Mode.SI; Mode.SA; Mode.SB ])
    [ Mode.IS; Mode.IX; Mode.SI; Mode.SA; Mode.SB ]

let test_insert_shared_vs_tree () =
  (* Insertion-shared locks update the subtree an ST protects. *)
  checkb "SI/ST conflict" false (Mode.compatible Mode.SI Mode.ST);
  checkb "SA/ST conflict" false (Mode.compatible Mode.SA Mode.ST);
  checkb "SB/ST conflict" false (Mode.compatible Mode.SB Mode.ST);
  checkb "ST/ST ok" true (Mode.compatible Mode.ST Mode.ST)

let test_intention_for () =
  checkb "X -> IX" true (Mode.intention_for Mode.X = Mode.IX);
  checkb "XT -> IX" true (Mode.intention_for Mode.XT = Mode.IX);
  checkb "ST -> IS" true (Mode.intention_for Mode.ST = Mode.IS);
  checkb "SI -> IS" true (Mode.intention_for Mode.SI = Mode.IS);
  checkb "IS -> IS" true (Mode.intention_for Mode.IS = Mode.IS);
  checkb "IX -> IX" true (Mode.intention_for Mode.IX = Mode.IX)

let test_conflict_mask_matches_compat () =
  (* The bitmask encoding must agree with the pattern-match matrix on every
     ordered pair — this is what lets the table answer compatibility with
     one AND. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let via_mask = Mode.conflict_mask a land Mode.bit b <> 0 in
          checkb
            (Printf.sprintf "mask %s/%s" (Mode.to_string a) (Mode.to_string b))
            (not (Mode.compatible a b)) via_mask;
          checkb
            (Printf.sprintf "mask_compatible %s/%s" (Mode.to_string a)
               (Mode.to_string b))
            (Mode.compatible a b)
            (Mode.mask_compatible a ~held_mask:(Mode.bit b)))
        Mode.all)
    Mode.all

let test_conflict_mask_symmetric () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checkb
            (Printf.sprintf "mask symmetry %s/%s" (Mode.to_string a)
               (Mode.to_string b))
            (Mode.conflict_mask a land Mode.bit b <> 0)
            (Mode.conflict_mask b land Mode.bit a <> 0))
        Mode.all)
    Mode.all

let test_mode_index_bit () =
  List.iter
    (fun m ->
      checkb "of_index inverse" true (Mode.of_index (Mode.index m) = m);
      check "bit is power of two" (1 lsl Mode.index m) (Mode.bit m))
    Mode.all;
  (* Indexes are dense and distinct. *)
  Alcotest.(check (list int))
    "dense indexes"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.sort compare (List.map Mode.index Mode.all))

let test_mask_union_semantics () =
  (* mask_compatible over a union mask == compatible with every member. *)
  let held = [ Mode.IS; Mode.SI; Mode.IX ] in
  let mask = List.fold_left (fun m h -> m lor Mode.bit h) 0 held in
  List.iter
    (fun m ->
      checkb
        (Printf.sprintf "union semantics %s" (Mode.to_string m))
        (List.for_all (fun h -> Mode.compatible h m) held)
        (Mode.mask_compatible m ~held_mask:mask))
    Mode.all

let test_mode_strings () =
  List.iter
    (fun m ->
      match Mode.of_string (Mode.to_string m) with
      | Some m' -> checkb "roundtrip" true (m = m')
      | None -> Alcotest.fail "of_string failed")
    Mode.all;
  checkb "unknown" true (Mode.of_string "ZZ" = None)

(* --- Table --------------------------------------------------------------- *)

let r doc node = Table.resource doc node

let test_resource_accessors () =
  let a = Table.resource "docA" 17 in
  Alcotest.(check string) "doc" "docA" (Table.resource_doc a);
  check "node" 17 (Table.resource_node a);
  checkb "no value" true (Table.resource_value a = None);
  let v = Table.value_resource "docA" 17 "42" in
  Alcotest.(check string) "vdoc" "docA" (Table.resource_doc v);
  check "vnode" 17 (Table.resource_node v);
  checkb "value" true (Table.resource_value v = Some "42");
  checkb "value resource distinct" true (Table.compare_resource a v <> 0);
  checkb "same triple same key" true
    (Table.compare_resource v (Table.value_resource "docA" 17 "42") = 0);
  checkb "other value distinct" true
    (Table.compare_resource v (Table.value_resource "docA" 17 "43") <> 0);
  check "node id bound rejected" 1
    (try ignore (Table.resource "d" (1 lsl 28)); 0
     with Invalid_argument _ -> 1)

let test_dedup_requests () =
  let reqs =
    [ (r "d" 2, Mode.IS); (r "d" 1, Mode.ST); (r "d" 2, Mode.IS);
      (r "d" 1, Mode.X); (r "d" 1, Mode.ST) ]
  in
  let deduped = Table.dedup_requests reqs in
  check "three distinct requests" 3 (List.length deduped);
  checkb "sorted by resource" true
    (deduped
     |> List.map (fun (r, _) -> Table.resource_node r)
     |> fun l -> List.sort compare l = l);
  List.iter
    (fun req -> checkb "kept" true (List.mem req deduped))
    [ (r "d" 2, Mode.IS); (r "d" 1, Mode.ST); (r "d" 1, Mode.X) ]

let test_acquire_release () =
  let t = Table.create () in
  (match Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.ST); (r "d" 2, Mode.IS) ] with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "should grant");
  check "grants" 2 (Table.lock_count t);
  check "holders of 1" 1 (List.length (Table.holders t (r "d" 1)));
  let freed = Table.release_txn t ~txn:1 in
  check "freed resources" 2 (List.length freed);
  check "empty" 0 (Table.lock_count t)

let test_conflict_reported () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.ST) ]);
  (match Table.acquire_all t ~txn:2 [ (r "d" 1, Mode.IX) ] with
   | Error [ 1 ] -> ()
   | Error l -> Alcotest.failf "wrong blockers (%d)" (List.length l)
   | Ok () -> Alcotest.fail "should conflict");
  (* All-or-nothing: the failed request must leave no grants behind. *)
  check "txn 2 holds nothing" 0 (List.length (Table.locks_of t ~txn:2))

let test_all_or_nothing () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 5, Mode.X) ]);
  (match
     Table.acquire_all t ~txn:2 [ (r "d" 4, Mode.IS); (r "d" 5, Mode.IS) ]
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "should conflict on node 5");
  checkb "node 4 untouched" true (Table.holders t (r "d" 4) = [])

let test_own_locks_never_conflict () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.ST) ]);
  (match Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.X) ] with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "self-upgrade must succeed");
  checkb "holds both modes" true
    (Table.txn_holds t ~txn:1 (r "d" 1) Mode.ST
     && Table.txn_holds t ~txn:1 (r "d" 1) Mode.X)

let test_refcounted_grants () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.IS) ]);
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.IS) ]);
  check "two grants" 2 (Table.lock_count t);
  Table.release_request t ~txn:1 [ (r "d" 1, Mode.IS) ];
  checkb "still held" true (Table.txn_holds t ~txn:1 (r "d" 1) Mode.IS);
  Table.release_request t ~txn:1 [ (r "d" 1, Mode.IS) ];
  checkb "now gone" false (Table.txn_holds t ~txn:1 (r "d" 1) Mode.IS);
  check "empty" 0 (Table.lock_count t)

(* Regression: releasing a transaction must be idempotent, and undoing a
   grant down to zero must leave no stale per-transaction bookkeeping — a
   later [release_txn] must not touch entries that now belong to someone
   else. *)
let test_release_txn_idempotent () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "d" 1, Mode.IS) ]);
  (* Full undo: txn 1 no longer holds anything on d#1. *)
  Table.release_request t ~txn:1 [ (r "d" 1, Mode.IS) ];
  check "nothing held after undo" 0 (List.length (Table.locks_of t ~txn:1));
  (* The resource is free; another transaction takes an exclusive lock. *)
  (match Table.acquire_all t ~txn:2 [ (r "d" 1, Mode.X) ] with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "resource should be free after undo");
  (* End-of-transaction release of txn 1 must be a no-op: no freed
     resources reported (no spurious wakes) and txn 2's grant intact. *)
  check "release after undo frees nothing" 0
    (List.length (Table.release_txn t ~txn:1));
  checkb "txn 2 keeps its lock" true (Table.txn_holds t ~txn:2 (r "d" 1) Mode.X);
  (match Table.acquire_all t ~txn:3 [ (r "d" 1, Mode.IS) ] with
   | Error [ 2 ] -> ()
   | Error _ | Ok () -> Alcotest.fail "mask must still show txn 2's X");
  (* Double release of a finished transaction is a no-op too. *)
  check "first release frees" 1 (List.length (Table.release_txn t ~txn:2));
  check "second release frees nothing" 0
    (List.length (Table.release_txn t ~txn:2));
  check "table empty" 0 (Table.lock_count t)

let test_multiple_blockers_sorted () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:5 [ (r "d" 1, Mode.IS) ]);
  ignore (Table.acquire_all t ~txn:3 [ (r "d" 1, Mode.IS) ]);
  match Table.acquire_all t ~txn:9 [ (r "d" 1, Mode.X) ] with
  | Error blockers -> Alcotest.(check (list int)) "sorted distinct" [ 3; 5 ] blockers
  | Ok () -> Alcotest.fail "should conflict"

let test_resources_namespaced_by_doc () =
  let t = Table.create () in
  ignore (Table.acquire_all t ~txn:1 [ (r "a" 1, Mode.X) ]);
  match Table.acquire_all t ~txn:2 [ (r "b" 1, Mode.X) ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "same node id in another doc must not conflict"

let test_many_documents_intern () =
  (* Regression: 7 doc bits capped the process at 128 interned document
     names, so 1000-site scale runs (one fragment doc per site) blew up in
     [Intern]. The 11-bit field must take >128 docs in stride. *)
  for i = 0 to 299 do
    let doc = Printf.sprintf "intern-cap-%03d" i in
    let r = Table.resource doc (i * 7 land 0xffff) in
    Alcotest.(check string) "doc roundtrip" doc (Table.resource_doc r)
  done

let prop_release_after_acquire_empty =
  QCheck.Test.make ~name:"acquire-all then release-txn leaves table empty"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 10) (int_range 0 7)))
    (fun reqs ->
      let t = Table.create () in
      let modes = Array.of_list Mode.all in
      let reqs =
        List.map (fun (node, mi) -> (r "d" node, modes.(mi))) reqs
      in
      (match Table.acquire_all t ~txn:1 reqs with
       | Ok () -> ()
       | Error _ -> failwith "self conflict impossible");
      ignore (Table.release_txn t ~txn:1);
      Table.lock_count t = 0)

(* --- Differential oracle ------------------------------------------------- *)

(* The pre-optimization lock table, verbatim semantics: resources are plain
   records hashed polymorphically, compatibility is answered by scanning the
   holder list. Randomized traces must produce identical grant/block
   outcomes, blocker sets, lock counts and freed-resource sets in the
   optimized (interned, bitmasked) table. *)
module Oracle = struct
  type res = { o_doc : string; o_node : int; o_value : string option }

  type holder = { h_txn : int; h_mode : Mode.t; mutable h_count : int }

  type t = { table : (res, holder list ref) Hashtbl.t; mutable grants : int }

  let create () = { table = Hashtbl.create 64; grants = 0 }

  let conflicts_on t ~txn r mode =
    match Hashtbl.find_opt t.table r with
    | None -> []
    | Some e ->
      List.filter_map
        (fun h ->
          if h.h_txn <> txn && not (Mode.compatible h.h_mode mode) then
            Some h.h_txn
          else None)
        !e

  let grant t ~txn r mode =
    let e =
      match Hashtbl.find_opt t.table r with
      | Some e -> e
      | None ->
        let e = ref [] in
        Hashtbl.replace t.table r e;
        e
    in
    (match List.find_opt (fun h -> h.h_txn = txn && h.h_mode = mode) !e with
     | Some h -> h.h_count <- h.h_count + 1
     | None -> e := { h_txn = txn; h_mode = mode; h_count = 1 } :: !e);
    t.grants <- t.grants + 1

  let ungrant t ~txn r mode =
    match Hashtbl.find_opt t.table r with
    | None -> ()
    | Some e -> (
      match List.find_opt (fun h -> h.h_txn = txn && h.h_mode = mode) !e with
      | None -> ()
      | Some h ->
        h.h_count <- h.h_count - 1;
        t.grants <- t.grants - 1;
        if h.h_count = 0 then begin
          e := List.filter (fun h' -> not (h' == h)) !e;
          if !e = [] then Hashtbl.remove t.table r
        end)

  let acquire_all t ~txn requests =
    let conflicting =
      List.concat_map (fun (r, mode) -> conflicts_on t ~txn r mode) requests
    in
    match List.sort_uniq compare conflicting with
    | [] ->
      List.iter (fun (r, mode) -> grant t ~txn r mode) requests;
      Ok ()
    | blockers -> Error blockers

  let release_request t ~txn requests =
    List.iter (fun (r, mode) -> ungrant t ~txn r mode) requests

  let release_txn t ~txn =
    let freed = ref [] in
    Hashtbl.iter
      (fun r e ->
        if List.exists (fun h -> h.h_txn = txn) !e then freed := r :: !freed)
      t.table;
    List.iter
      (fun r ->
        match Hashtbl.find_opt t.table r with
        | None -> ()
        | Some e ->
          let mine, others = List.partition (fun h -> h.h_txn = txn) !e in
          List.iter (fun h -> t.grants <- t.grants - h.h_count) mine;
          if others = [] then Hashtbl.remove t.table r else e := others)
      !freed;
    !freed

  let lock_count t = t.grants
end

(* One trace step: (selector, txn, [(node, mode idx, value selector)]). *)
let cmd_gen =
  QCheck.(
    triple (int_range 0 3) (int_range 1 4)
      (list_of_size Gen.(1 -- 6)
         (triple (int_range 0 7) (int_range 0 7) (int_range 0 2))))

let oracle_res (node, _, vsel) =
  let doc = if node land 1 = 0 then "oda" else "odb" in
  match vsel with
  | 0 -> { Oracle.o_doc = doc; o_node = node; o_value = None }
  | v -> { Oracle.o_doc = doc; o_node = node; o_value = Some (string_of_int v) }

let table_res (node, _, vsel) =
  let doc = if node land 1 = 0 then "oda" else "odb" in
  match vsel with
  | 0 -> Table.resource doc node
  | v -> Table.value_resource doc node (string_of_int v)

let res_triple r =
  (Table.resource_doc r, Table.resource_node r, Table.resource_value r)

let oracle_triple (r : Oracle.res) = (r.Oracle.o_doc, r.Oracle.o_node, r.Oracle.o_value)

let mode_of (_, mi, _) = List.nth Mode.all mi

let prop_differential_vs_oracle =
  QCheck.Test.make ~name:"optimized table behaves like pre-optimization oracle"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) cmd_gen)
    (fun cmds ->
      let t = Table.create () in
      let o = Oracle.create () in
      List.for_all
        (fun (sel, txn, reqs) ->
          let t_reqs = List.map (fun q -> (table_res q, mode_of q)) reqs in
          let o_reqs = List.map (fun q -> (oracle_res q, mode_of q)) reqs in
          let step_ok =
            match sel with
            | 0 | 1 -> (
              (* acquire (twice as likely as the release variants) *)
              match
                (Table.acquire_all t ~txn t_reqs, Oracle.acquire_all o ~txn o_reqs)
              with
              | Ok (), Ok () -> true
              | Error a, Error b -> a = b
              | _ -> false)
            | 2 ->
              Table.release_request t ~txn t_reqs;
              Oracle.release_request o ~txn o_reqs;
              true
            | _ ->
              let freed_t =
                Table.release_txn t ~txn |> List.map res_triple |> List.sort compare
              in
              let freed_o =
                Oracle.release_txn o ~txn
                |> List.map oracle_triple |> List.sort compare
              in
              freed_t = freed_o
          in
          step_ok && Table.lock_count t = Oracle.lock_count o)
        cmds)

(* Differential for the batched [acquire_all] rewrite: drive a second table
   through the verbatim per-request loop — conflicts collected one request
   at a time against the pre-batch state via the public [holders] view, then
   grants issued as singleton [acquire_all] calls — and require behavioural
   equality on every step of a random acquire/release/undo trace. *)
let per_request_acquire_all t ~txn requests =
  let blockers =
    List.concat_map
      (fun (r, mode) ->
        List.filter_map
          (fun (htxn, hmode) ->
            if htxn <> txn && not (Mode.compatible hmode mode) then Some htxn
            else None)
          (Table.holders t r))
      requests
  in
  match List.sort_uniq compare blockers with
  | [] ->
    List.iter
      (fun req ->
        match Table.acquire_all t ~txn [ req ] with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "singleton grant conflicted after check")
      requests;
    Ok ()
  | bs -> Error bs

let prop_batched_vs_per_request =
  QCheck.Test.make
    ~name:"batched acquire_all behaves like the per-request loop" ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) cmd_gen)
    (fun cmds ->
      let batched = Table.create () in
      let looped = Table.create () in
      List.for_all
        (fun (sel, txn, reqs) ->
          let rs = List.map (fun q -> (table_res q, mode_of q)) reqs in
          let step_ok =
            match sel with
            | 0 | 1 -> (
              match
                ( Table.acquire_all batched ~txn rs,
                  per_request_acquire_all looped ~txn rs )
              with
              | Ok (), Ok () -> true
              | Error a, Error b -> a = b
              | _ -> false)
            | 2 ->
              Table.release_request batched ~txn rs;
              Table.release_request looped ~txn rs;
              true
            | _ ->
              let fa = Table.release_txn batched ~txn |> List.sort compare in
              let fb = Table.release_txn looped ~txn |> List.sort compare in
              fa = fb
          in
          step_ok
          && Table.lock_count batched = Table.lock_count looped
          && List.sort compare (Table.locks_of batched ~txn)
             = List.sort compare (Table.locks_of looped ~txn))
        cmds)

(* --- Wfg ----------------------------------------------------------------- *)

let test_wfg_edges () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2; 3 ];
  Alcotest.(check (list (pair int int))) "edges" [ (1, 2); (1, 3) ] (Wfg.edges g);
  Alcotest.(check (list int)) "waits of 1" [ 2; 3 ] (Wfg.waits_of g 1);
  check "size" 2 (Wfg.size g);
  Wfg.add_wait g ~waiter:1 ~holders:[ 1 ];
  check "self edge ignored" 2 (Wfg.size g)

let test_wfg_no_cycle () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2 ];
  Wfg.add_wait g ~waiter:2 ~holders:[ 3 ];
  checkb "chain has no cycle" true (Wfg.find_cycle g = None)

let test_wfg_cycle () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2 ];
  Wfg.add_wait g ~waiter:2 ~holders:[ 1 ];
  match Wfg.find_cycle g with
  | Some cycle ->
    Alcotest.(check (list int)) "both in cycle" [ 1; 2 ] (List.sort compare cycle)
  | None -> Alcotest.fail "cycle missed"

let test_wfg_remove_breaks_cycle () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2 ];
  Wfg.add_wait g ~waiter:2 ~holders:[ 3 ];
  Wfg.add_wait g ~waiter:3 ~holders:[ 1 ];
  checkb "cycle present" true (Wfg.find_cycle g <> None);
  Wfg.remove_txn g 2;
  checkb "cycle gone" true (Wfg.find_cycle g = None);
  checkb "edges to 2 gone" true (List.for_all (fun (_, h) -> h <> 2) (Wfg.edges g))

let test_wfg_clear_waits () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2 ];
  Wfg.add_wait g ~waiter:3 ~holders:[ 1 ];
  Wfg.clear_waits_of g 1;
  Alcotest.(check (list (pair int int))) "only 3->1 left" [ (3, 1) ] (Wfg.edges g)

let test_wfg_union_finds_distributed_cycle () =
  (* The paper's Fig.-6 situation: each site's graph is acyclic; the union
     is not. *)
  let s1 = Wfg.create () and s2 = Wfg.create () in
  Wfg.add_wait s1 ~waiter:1 ~holders:[ 2 ];
  Wfg.add_wait s2 ~waiter:2 ~holders:[ 1 ];
  checkb "site 1 acyclic" true (Wfg.find_cycle s1 = None);
  checkb "site 2 acyclic" true (Wfg.find_cycle s2 = None);
  let merged = Wfg.union [ s1; s2 ] in
  checkb "union cyclic" true (Wfg.find_cycle merged <> None);
  (* Union must not mutate inputs. *)
  check "s1 unchanged" 1 (Wfg.size s1)

let test_wfg_reverse_index () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 3 ];
  Wfg.add_wait g ~waiter:2 ~holders:[ 3; 4 ];
  Alcotest.(check (list int)) "waiters of 3" [ 1; 2 ] (Wfg.waiters_of g 3);
  Alcotest.(check (list int)) "waiters of 4" [ 2 ] (Wfg.waiters_of g 4);
  Alcotest.(check (list int)) "no waiters of 1" [] (Wfg.waiters_of g 1);
  (* Duplicate edge additions must not duplicate reverse entries. *)
  Wfg.add_wait g ~waiter:1 ~holders:[ 3 ];
  Alcotest.(check (list int)) "still two waiters" [ 1; 2 ] (Wfg.waiters_of g 3);
  Wfg.clear_waits_of g 1;
  Alcotest.(check (list int)) "waiter 1 unindexed" [ 2 ] (Wfg.waiters_of g 3);
  Wfg.remove_txn g 3;
  Alcotest.(check (list int)) "removed vertex has no waiters" []
    (Wfg.waiters_of g 3);
  Alcotest.(check (list (pair int int))) "only 2->4 left" [ (2, 4) ]
    (Wfg.edges g)

(* Regression for the O(V) remove_txn fold: the reverse index must stay an
   exact mirror of the forward edges under arbitrary churn, and removing
   every transaction must leave both directions empty. *)
let prop_reverse_index_mirrors_edges =
  QCheck.Test.make ~name:"reverse index mirrors forward edges under churn"
    ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 40)
        (triple (int_range 0 3) (int_range 0 8)
           (list_of_size Gen.(0 -- 3) (int_range 0 8))))
    (fun cmds ->
      let g = Wfg.create () in
      List.iter
        (fun (sel, v, hs) ->
          match sel with
          | 0 | 1 -> Wfg.add_wait g ~waiter:v ~holders:hs
          | 2 -> Wfg.clear_waits_of g v
          | _ -> Wfg.remove_txn g v)
        cmds;
      let mirror_ok =
        List.for_all
          (fun (w, h) -> List.mem w (Wfg.waiters_of g h))
          (Wfg.edges g)
        && List.for_all
             (fun v ->
               List.for_all
                 (fun w -> List.mem v (Wfg.waits_of g w))
                 (Wfg.waiters_of g v))
             (Wfg.txns g)
      in
      List.iter (fun v -> Wfg.remove_txn g v) (Wfg.txns g);
      mirror_ok && Wfg.size g = 0 && Wfg.edges g = []
      && List.for_all (fun v -> Wfg.waiters_of g v = []) (List.init 9 Fun.id))

let test_wfg_copy_independent () =
  let g = Wfg.create () in
  Wfg.add_wait g ~waiter:1 ~holders:[ 2 ];
  let c = Wfg.copy g in
  Wfg.add_wait g ~waiter:2 ~holders:[ 1 ];
  checkb "copy unaffected" true (Wfg.find_cycle c = None);
  checkb "original cyclic" true (Wfg.find_cycle g <> None)

(* Oracle: a cycle exists iff some txn can reach itself (naive reachability). *)
let naive_has_cycle edges =
  let succs x = List.filter_map (fun (a, b) -> if a = x then Some b else None) edges in
  let txns = List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges) in
  let reaches_self start =
    let visited = Hashtbl.create 16 in
    let rec go x =
      List.exists
        (fun y ->
          y = start
          ||
          if Hashtbl.mem visited y then false
          else begin
            Hashtbl.add visited y ();
            go y
          end)
        (succs x)
    in
    go start
  in
  List.exists reaches_self txns

let prop_cycle_detection_matches_oracle =
  QCheck.Test.make ~name:"find_cycle agrees with naive reachability" ~count:300
    QCheck.(list_of_size Gen.(0 -- 25) (pair (int_range 0 8) (int_range 0 8)))
    (fun edges ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let g = Wfg.create () in
      List.iter (fun (a, b) -> Wfg.add_wait g ~waiter:a ~holders:[ b ]) edges;
      (Wfg.find_cycle g <> None) = naive_has_cycle edges)

let prop_cycle_members_form_cycle =
  QCheck.Test.make ~name:"reported cycle is a real cycle" ~count:300
    QCheck.(list_of_size Gen.(1 -- 25) (pair (int_range 0 8) (int_range 0 8)))
    (fun edges ->
      let edges = List.filter (fun (a, b) -> a <> b) edges in
      let g = Wfg.create () in
      List.iter (fun (a, b) -> Wfg.add_wait g ~waiter:a ~holders:[ b ]) edges;
      match Wfg.find_cycle g with
      | None -> true
      | Some cycle ->
        let n = List.length cycle in
        n >= 2
        && List.for_all
             (fun i ->
               let a = List.nth cycle i and b = List.nth cycle ((i + 1) mod n) in
               List.mem b (Wfg.waits_of g a))
             (List.init n (fun i -> i)))

(* The Alg.-4 detector picks its deadlock victim from the cycle
   [find_cycle] reports, so pin it exactly. Starts run in ascending
   order: 1's tail dead-ends at 8, then enters the 9 -> 7 -> 5 cycle, which
   wins over the disjoint 2 <-> 3 cycle despite 2 being the smallest vertex
   on any cycle. A cycle is reported from the vertex where the DFS re-met
   it. *)
let test_wfg_canonical_cycle () =
  let g = Wfg.create () in
  List.iter
    (fun (w, hs) -> Wfg.add_wait g ~waiter:w ~holders:hs)
    [ (1, [ 4 ]); (4, [ 9; 8 ]); (9, [ 7 ]); (7, [ 5 ]); (5, [ 9 ]);
      (2, [ 3 ]); (3, [ 2 ]) ];
  Alcotest.(check (option (list int))) "tail-reached cycle first"
    (Some [ 9; 7; 5 ]) (Wfg.find_cycle g);
  Wfg.remove_txn g 4;
  Alcotest.(check (option (list int))) "then the smallest start's cycle"
    (Some [ 2; 3 ]) (Wfg.find_cycle g);
  Wfg.remove_txn g 3;
  Alcotest.(check (option (list int))) "rotation follows the start"
    (Some [ 5; 9; 7 ]) (Wfg.find_cycle g)

let () =
  Alcotest.run "locks"
    [ ( "modes",
        [ Alcotest.test_case "matrix symmetric" `Quick test_matrix_symmetric;
          Alcotest.test_case "X/XT conflict all" `Quick test_exclusive_conflicts_with_all;
          Alcotest.test_case "IX vs ST (paper)" `Quick test_paper_key_incompatibility;
          Alcotest.test_case "shared family" `Quick test_shared_family_compatible;
          Alcotest.test_case "SI/SA/SB vs ST" `Quick test_insert_shared_vs_tree;
          Alcotest.test_case "intention_for" `Quick test_intention_for;
          Alcotest.test_case "conflict mask = compat (64 pairs)" `Quick
            test_conflict_mask_matches_compat;
          Alcotest.test_case "conflict mask symmetric" `Quick
            test_conflict_mask_symmetric;
          Alcotest.test_case "index/bit encoding" `Quick test_mode_index_bit;
          Alcotest.test_case "mask union semantics" `Quick
            test_mask_union_semantics;
          Alcotest.test_case "strings" `Quick test_mode_strings ] );
      ( "table",
        [ Alcotest.test_case "resource accessors" `Quick test_resource_accessors;
          Alcotest.test_case "dedup requests" `Quick test_dedup_requests;
          Alcotest.test_case "acquire/release" `Quick test_acquire_release;
          Alcotest.test_case "conflicts reported" `Quick test_conflict_reported;
          Alcotest.test_case "all-or-nothing" `Quick test_all_or_nothing;
          Alcotest.test_case "self never conflicts" `Quick test_own_locks_never_conflict;
          Alcotest.test_case "refcounted" `Quick test_refcounted_grants;
          Alcotest.test_case "release_txn idempotent" `Quick
            test_release_txn_idempotent;
          Alcotest.test_case "blockers sorted" `Quick test_multiple_blockers_sorted;
          Alcotest.test_case "doc namespaces" `Quick test_resources_namespaced_by_doc;
          Alcotest.test_case ">128 documents" `Quick test_many_documents_intern;
          QCheck_alcotest.to_alcotest prop_release_after_acquire_empty;
          QCheck_alcotest.to_alcotest prop_differential_vs_oracle;
          QCheck_alcotest.to_alcotest prop_batched_vs_per_request ] );
      ( "wfg",
        [ Alcotest.test_case "edges" `Quick test_wfg_edges;
          Alcotest.test_case "no cycle" `Quick test_wfg_no_cycle;
          Alcotest.test_case "cycle" `Quick test_wfg_cycle;
          Alcotest.test_case "remove breaks cycle" `Quick test_wfg_remove_breaks_cycle;
          Alcotest.test_case "clear waits" `Quick test_wfg_clear_waits;
          Alcotest.test_case "union distributed cycle" `Quick
            test_wfg_union_finds_distributed_cycle;
          Alcotest.test_case "copy independent" `Quick test_wfg_copy_independent;
          Alcotest.test_case "reverse index" `Quick test_wfg_reverse_index;
          Alcotest.test_case "canonical cycle" `Quick test_wfg_canonical_cycle;
          QCheck_alcotest.to_alcotest prop_reverse_index_mirrors_edges;
          QCheck_alcotest.to_alcotest prop_cycle_detection_matches_oracle;
          QCheck_alcotest.to_alcotest prop_cycle_members_form_cycle ] ) ]
