(* Unit + property tests for Dtx_util: Vec, Heap, Rng, Stats, Intern. *)

module Vec = Dtx_util.Vec
module Heap = Dtx_util.Heap
module Rng = Dtx_util.Rng
module Stats = Dtx_util.Stats
module Intern = Dtx_util.Intern

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* --- Vec ---------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do Vec.push v i done;
  check "length" 100 (Vec.length v);
  for i = 0 to 99 do check "get" i (Vec.get v i) done

let test_vec_pop () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check "len" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "empty pop" None (Vec.pop v)

let test_vec_set_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set") (fun () ->
      Vec.set v (-1) 0)

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check "fold" 6 (Vec.fold_left ( + ) 0 v);
  checkb "exists" true (Vec.exists (fun x -> x = 2) v);
  checkb "not exists" false (Vec.exists (fun x -> x = 9) v);
  Alcotest.(check (option int)) "find" (Some 2) (Vec.find_opt (fun x -> x > 1) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check "iteri count" 3 (List.length !acc)

let test_vec_make_clear () =
  let v = Vec.make 5 'x' in
  check "make len" 5 (Vec.length v);
  Vec.clear v;
  checkb "cleared" true (Vec.is_empty v);
  check "to_array" 0 (Array.length (Vec.to_array v))

(* --- Heap --------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
      out := x :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 5; 4; 3; 1; 1; 0 ] !out

let test_heap_peek () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "empty peek" None (Heap.peek h);
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "min" (Some 1) (Heap.peek h);
  check "peek does not pop" 2 (Heap.length h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

(* --- Calqueue ------------------------------------------------------------ *)

module Calqueue = Dtx_util.Calqueue

let cq_create () = Calqueue.create ~time:fst ~seq:snd ()

let test_calqueue_ordering () =
  let q = cq_create () in
  List.iteri (fun i t -> Calqueue.push q (t, i)) [ 5.0; 1.0; 4.0; 1.0; 3.0 ];
  let rec drain acc =
    match Calqueue.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list (pair (float 0.0) int)))
    "(time, seq) order incl. FIFO tie"
    [ (1.0, 1); (1.0, 3); (3.0, 4); (4.0, 2); (5.0, 0) ]
    (drain [])

let test_calqueue_peek_remove () =
  let q = cq_create () in
  for i = 0 to 99 do
    Calqueue.push q (float_of_int (i mod 10), i)
  done;
  check "length" 100 (Calqueue.length q);
  Alcotest.(check (option (pair (float 0.0) int)))
    "peek min" (Some (0.0, 0)) (Calqueue.peek q);
  check "peek does not pop" 100 (Calqueue.length q);
  (* every third seq: a few from each timestamp's group *)
  for i = 0 to 99 do
    if i mod 3 = 1 then Calqueue.remove q (float_of_int (i mod 10), i)
  done;
  check "removed" 67 (Calqueue.length q);
  Alcotest.(check (option (pair (float 0.0) int)))
    "min survives removal" (Some (0.0, 0)) (Calqueue.peek q);
  Alcotest.check_raises "absent element"
    (Invalid_argument "Calqueue.remove: element not queued") (fun () ->
      Calqueue.remove q (1.0, 1));
  let rec drain acc =
    match Calqueue.pop q with Some (_, s) -> drain (s :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "the rest in (time, seq) order"
    (List.sort
       (fun a b -> compare (a mod 10, a) (b mod 10, b))
       (List.filter (fun i -> i mod 3 <> 1) (List.init 100 Fun.id)))
    (drain [])

(* The property that lets the simulator swap queues without a trace diff:
   any interleaving of pushes and pops drains in exactly the heap's
   (time, seq) order — including sparse far-future times that force the
   calendar's direct-search jump, and resize churn both ways. *)
let prop_calqueue_matches_heap =
  QCheck.Test.make ~name:"calendar queue = binary heap dispatch order"
    ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (pair (oneofl [ 0.0; 0.5; 1.0; 3.0; 1e3; 1e7 ]) (float_bound_exclusive 50.0)))
    (fun ops ->
      let cmp (t1, s1) (t2, s2) =
        let c = compare (t1 : float) t2 in
        if c <> 0 then c else compare (s1 : int) s2
      in
      let q = cq_create () and h = Heap.create ~cmp in
      let ok = ref true in
      List.iteri
        (fun i (base, jitter) ->
          Calqueue.push q (base +. jitter, i);
          Heap.push h (base +. jitter, i);
          (* pop a third of the time, interleaved with pushes *)
          if i mod 3 = 0 then ok := !ok && Calqueue.pop q = Heap.pop h)
        ops;
      let rec drain () =
        match (Calqueue.pop q, Heap.pop h) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      !ok && drain ())

(* In-place removal anywhere in the queue (the chooser's out-of-order
   fire) leaves the survivors draining in (time, seq) order, across the
   same sparse times and resize churn as the heap differential; whole-ms
   offsets make removals hit shared-timestamp groups. *)
let prop_calqueue_remove =
  QCheck.Test.make ~name:"calendar queue remove keeps the rest ordered"
    ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 120)
        (pair (oneofl [ 0.0; 0.5; 1.0; 3.0; 1e3; 1e7 ]) (int_bound 20)))
    (fun ops ->
      let q = cq_create () in
      let xs =
        List.mapi (fun i (base, ms) -> (base +. float_of_int ms, i)) ops
      in
      List.iter (Calqueue.push q) xs;
      List.iter (fun (t, i) -> if i mod 3 = 1 then Calqueue.remove q (t, i)) xs;
      let rec drain acc =
        match Calqueue.pop q with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare (List.filter (fun (_, i) -> i mod 3 <> 1) xs))

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 50 do
    checkb "same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    checkb "in [0,10)" true (x >= 0 && x < 10);
    let y = Rng.int_in r 5 9 in
    checkb "in [5,9]" true (y >= 5 && y <= 9);
    let f = Rng.float r 2.0 in
    checkb "float range" true (f >= 0.0 && f < 2.0)
  done

let test_rng_invalid () =
  let r = Rng.create 1 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int r 0));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick") (fun () ->
      ignore (Rng.pick r [||]))

let test_rng_split_independent () =
  let a = Rng.create 42 in
  let b = Rng.split a in
  (* The split stream should not equal the parent's continued stream. *)
  let xs = List.init 8 (fun _ -> Rng.bits64 a) in
  let ys = List.init 8 (fun _ -> Rng.bits64 b) in
  checkb "different streams" true (xs <> ys)

let test_rng_pct () =
  let r = Rng.create 3 in
  for _ = 1 to 100 do
    checkb "0%% never" false (Rng.pct r 0)
  done;
  for _ = 1 to 100 do
    checkb "100%% always" true (Rng.pct r 100)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 5 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* --- Stats -------------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  check "count" 4 s.Stats.count;
  checkf "mean" 2.5 s.Stats.mean;
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 4.0 s.Stats.max;
  checkf "p50" 2.5 s.Stats.p50

let test_stats_empty () =
  let s = Stats.summarize [] in
  check "count" 0 s.Stats.count;
  checkf "mean" 0.0 s.Stats.mean

let test_timeline () =
  let tl = Stats.Timeline.create ~bucket:10.0 in
  Stats.Timeline.incr tl ~time:1.0;
  Stats.Timeline.incr tl ~time:5.0;
  Stats.Timeline.incr tl ~time:25.0;
  (match Stats.Timeline.buckets tl with
   | [ (t0, v0); (t2, v2) ] ->
     checkf "bucket 0 start" 0.0 t0;
     checkf "bucket 0 count" 2.0 v0;
     checkf "bucket 2 start" 20.0 t2;
     checkf "bucket 2 count" 1.0 v2
   | other -> Alcotest.failf "unexpected buckets (%d)" (List.length other));
  match Stats.Timeline.cumulative tl with
  | [ (_, a); (_, b); (_, c) ] ->
    checkf "cum 0" 2.0 a;
    checkf "cum gap carries" 2.0 b;
    checkf "cum end" 3.0 c
  | other -> Alcotest.failf "unexpected cumulative (%d)" (List.length other)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"summary stays within min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.p50 >= s.Stats.min -. 1e-9
      && s.Stats.p50 <= s.Stats.max +. 1e-9
      && s.Stats.p95 >= s.Stats.p50 -. 1e-9
      && s.Stats.p99 <= s.Stats.max +. 1e-9)

let test_chart_renders () =
  let out =
    Dtx_util.Chart.render ~xlabel:"x" ~ylabel:"y"
      [ ("a", [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ]);
        ("b", [ (0.0, 4.0); (2.0, 0.0) ]) ]
  in
  checkb "mentions series a" true
    (String.length out > 100
     && String.split_on_char '\n' out
        |> List.exists (fun l ->
               String.length l > 2
               && String.sub l (String.length l - 1) 1 = "a"));
  checkb "contains markers" true (String.contains out '*' && String.contains out 'o')

let test_chart_empty () =
  Alcotest.(check string) "placeholder" "(no data)" (Dtx_util.Chart.render []);
  Alcotest.(check string) "placeholder for empty series" "(no data)"
    (Dtx_util.Chart.render [ ("a", []) ])

let test_chart_single_point () =
  let out = Dtx_util.Chart.render [ ("solo", [ (5.0, 5.0) ]) ] in
  checkb "renders" true (String.contains out '*')

(* --- Intern --------------------------------------------------------------- *)

(* A full table refuses a fresh symbol and leaves its existing state
   intact: nothing is half-inserted by the failed call. *)
let test_intern_overflow () =
  let t = Intern.create ~max_ids:2 "test symbol" in
  let a = Intern.intern t "a" and b = Intern.intern t "b" in
  Alcotest.check_raises "third symbol overflows"
    (Invalid_argument "Intern: test symbol table overflow (max 2 symbols)")
    (fun () -> ignore (Intern.intern t "c"));
  check "count unchanged" 2 (Intern.count t);
  Alcotest.(check string) "first id" "a" (Intern.lookup t a);
  Alcotest.(check string) "second id" "b" (Intern.lookup t b);
  check "re-intern keeps id" a (Intern.intern t "a");
  checkb "failed symbol absent" true (Intern.find_opt t "c" = None)

let () =
  Alcotest.run "util"
    [ ( "vec",
        [ Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "bounds" `Quick test_vec_set_bounds;
          Alcotest.test_case "iterators" `Quick test_vec_iterators;
          Alcotest.test_case "make/clear" `Quick test_vec_make_clear ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek" `Quick test_heap_peek;
          QCheck_alcotest.to_alcotest prop_heap_sorts ] );
      ( "calqueue",
        [ Alcotest.test_case "ordering" `Quick test_calqueue_ordering;
          Alcotest.test_case "peek/remove" `Quick test_calqueue_peek_remove;
          QCheck_alcotest.to_alcotest prop_calqueue_matches_heap;
          QCheck_alcotest.to_alcotest prop_calqueue_remove ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "pct extremes" `Quick test_rng_pct;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation ] );
      ( "chart",
        [ Alcotest.test_case "renders" `Quick test_chart_renders;
          Alcotest.test_case "empty" `Quick test_chart_empty;
          Alcotest.test_case "single point" `Quick test_chart_single_point ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "timeline" `Quick test_timeline;
          QCheck_alcotest.to_alcotest prop_percentile_bounds ] );
      ( "intern",
        [ Alcotest.test_case "overflow" `Quick test_intern_overflow ] ) ]
