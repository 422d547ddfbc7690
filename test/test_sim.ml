(* Tests for the discrete-event simulator: ordering, determinism, the
   chooser hook, periodic processes. *)

module Sim = Dtx_sim.Sim

let checkf = Alcotest.(check (float 1e-9))
let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_time_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "fired by time" [ 3; 2; 1 ] !log;
  checkf "clock at last event" 3.0 (Sim.now sim)

let test_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO among equal timestamps"
    [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] !log

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         log := "a" :: !log;
         ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := "c" :: !log))));
  ignore (Sim.schedule sim ~delay:1.5 (fun () -> log := "b" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "interleaved" [ "c"; "b"; "a" ] !log

let test_negative_delay_rejected () =
  let sim = Sim.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sim.schedule: negative delay") (fun () ->
      ignore (Sim.schedule sim ~delay:(-1.0) (fun () -> ())))

let test_schedule_at_past_clamps () =
  let sim = Sim.create () in
  let fired_at = ref (-1.0) in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         ignore
           (Sim.schedule_at sim ~time:1.0 (fun () -> fired_at := Sim.now sim))));
  Sim.run sim;
  checkf "clamped to now" 5.0 !fired_at

(* Scripts checked against a sorted-list model of the (time, seq) dispatch
   order: event [i] fires at its delay, and every event whose index is a
   multiple of 7 schedules a follow-up 1 ms later. The second shape draws
   whole-ms delays in 0..5, so hundreds of events tie (FIFO order among
   equal times) and the queue grows past its initial capacity. *)
let script_arb =
  QCheck.(
    oneof
      [ list_of_size Gen.(1 -- 200) (float_bound_exclusive 50.0);
        list_of_size Gen.(100 -- 400) (map float_of_int (int_bound 5)) ])

(* Run a script, logging (label, clock) per fired event; follow-ups are
   labelled [1000 + i]. The chooser (if any) picks the first [chosen] events;
   the rest fire in the queue's own order. *)
let run_script ?chooser ?(chosen = max_int) script =
  let sim = Sim.create () in
  let log = ref [] in
  List.iteri
    (fun i d ->
      ignore
        (Sim.schedule sim ~delay:d (fun () ->
             log := (i, Sim.now sim) :: !log;
             if i mod 7 = 0 then
               ignore
                 (Sim.schedule sim ~delay:1.0 (fun () ->
                      log := (1000 + i, Sim.now sim) :: !log)))))
    script;
  Sim.set_chooser sim chooser;
  Sim.run ~max_events:chosen sim;
  Sim.set_chooser sim None;
  Sim.run sim;
  (!log, Sim.pending sim)

(* The model: pending (time, seq, label) triples, kept sorted. [pick n]
   chooses which of the [n] pending events fires next (default: the head);
   the clock only ratchets forward, as {!Sim.set_chooser} specifies. *)
let model ?(pick = fun _ -> 0) script =
  let next_seq = ref (List.length script) in
  let rec drain clock pending acc =
    match pending with
    | [] -> acc
    | _ ->
      let time, seq, label = List.nth pending (pick (List.length pending)) in
      let clock = Float.max clock time in
      let rest = List.filter (fun (_, s, _) -> s <> seq) pending in
      let rest =
        if label < 1000 && label mod 7 = 0 then begin
          let seq = !next_seq in
          incr next_seq;
          List.merge compare [ (clock +. 1.0, seq, 1000 + label) ] rest
        end
        else rest
      in
      drain clock rest ((label, clock) :: acc)
  in
  drain 0.0 (List.sort compare (List.mapi (fun i d -> (d, i, i)) script)) []

let prop_model_order =
  QCheck.Test.make ~name:"event queue matches sorted model" ~count:100
    script_arb (fun script -> run_script script = (model script, 0))

(* A seeded chooser takes candidate [k mod n] for the first half of the
   script's events, [k] drawn from the seed, so most fires remove an event
   from the middle of the queue; the rest then drain in heap order, which
   shows whether those removals kept the heap intact. The model makes the
   same picks from the same seed, then takes the head. *)
let seeded_pick seed ~chosen =
  let st = Random.State.make [| seed |] and picked = ref 0 in
  fun n ->
    incr picked;
    if !picked <= chosen then Random.State.bits st mod n else 0

let prop_seeded_chooser =
  QCheck.Test.make ~name:"seeded chooser matches model" ~count:100
    QCheck.(pair script_arb int)
    (fun (script, seed) ->
      let chosen = List.length script / 2 in
      let pick = seeded_pick seed ~chosen in
      let chooser cs = (List.nth cs (pick (List.length cs))).Sim.c_seq in
      run_script ~chooser ~chosen script
      = (model ~pick:(seeded_pick seed ~chosen) script, 0))

(* A chooser that always takes the head of the (time, seq)-sorted
   candidates is the no-chooser dispatch order, clock included. *)
let prop_chooser_first =
  QCheck.Test.make ~name:"chooser picking the first candidate = no chooser"
    ~count:100 script_arb (fun script ->
      run_script ~chooser:(fun cs -> (List.hd cs).Sim.c_seq) script
      = run_script script)

(* Taking the last candidate removes exactly that event: [pending] drops by
   one per step, and the rest still fire in (time, seq) order once the
   chooser is gone. *)
let test_chooser_last () =
  let sim = Sim.create () in
  let log = ref [] in
  let times = [ 3.0; 1.0; 2.0; 1.0; 3.0; 0.5; 2.0; 1.0 ] in
  List.iteri
    (fun i tm ->
      ignore (Sim.schedule_at sim ~time:tm (fun () -> log := i :: !log)))
    times;
  let last cs = (List.nth cs (List.length cs - 1)).Sim.c_seq in
  Sim.set_chooser sim (Some last);
  for k = 1 to 3 do
    checkb "step fires" true (Sim.step sim);
    check "pending drops by one" (List.length times - k) (Sim.pending sim)
  done;
  Alcotest.(check (list int)) "latest (time, seq) first" [ 4; 0; 6 ]
    (List.rev !log);
  checkf "clock at the latest time" 3.0 (Sim.now sim);
  log := [];
  Sim.set_chooser sim None;
  Sim.run sim;
  Alcotest.(check (list int)) "the rest in (time, seq) order"
    [ 5; 1; 3; 7; 2 ] (List.rev !log);
  check "drained" 0 (Sim.pending sim)

let test_chooser_non_pending () =
  let sim = Sim.create () in
  let fired = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  Sim.run sim;
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  Sim.set_chooser sim (Some (fun _ -> fired));
  Alcotest.check_raises "fired id"
    (Invalid_argument "Sim.step: chooser picked a non-pending event")
    (fun () -> ignore (Sim.step sim));
  check "nothing removed" 1 (Sim.pending sim)

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr count))
  done;
  Sim.run ~until:5.0 sim;
  check "only events <= 5.0" 5 !count;
  check "rest pending" 5 (Sim.pending sim);
  Sim.run sim;
  check "drained" 10 !count

let test_max_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Sim.schedule sim ~delay:1.0 (fun () -> incr count))
  done;
  Sim.run ~max_events:3 sim;
  check "stopped after 3" 3 !count

let test_step () =
  let sim = Sim.create () in
  checkb "step on empty" false (Sim.step sim);
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> ()));
  checkb "step fires" true (Sim.step sim);
  checkb "then empty" false (Sim.step sim)

let test_every () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  Sim.every sim ~period:10.0 (fun () ->
      incr ticks;
      !ticks < 5);
  Sim.run sim;
  check "stopped after callback returned false" 5 !ticks;
  checkf "last tick time" 50.0 (Sim.now sim)

let test_every_start_offset () =
  let sim = Sim.create () in
  let first = ref (-1.0) in
  Sim.every sim ~period:10.0 ~start:2.0 (fun () ->
      if !first < 0.0 then first := Sim.now sim;
      false);
  Sim.run sim;
  checkf "start offset honoured" 2.0 !first

let prop_deterministic =
  QCheck.Test.make ~name:"same schedule, same trace" ~count:50
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_exclusive 100.0))
    (fun delays ->
      let trace () =
        let sim = Sim.create () in
        let log = ref [] in
        List.iteri
          (fun i d ->
            ignore (Sim.schedule sim ~delay:d (fun () -> log := (i, Sim.now sim) :: !log)))
          delays;
        Sim.run sim;
        !log
      in
      trace () = trace ())

let () =
  Alcotest.run "sim"
    [ ( "events",
        [ Alcotest.test_case "time ordering" `Quick test_time_ordering;
          Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "schedule_at clamps" `Quick test_schedule_at_past_clamps;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "step" `Quick test_step ] );
      ( "chooser",
        [ Alcotest.test_case "last candidate" `Quick test_chooser_last;
          Alcotest.test_case "non-pending id" `Quick test_chooser_non_pending
        ] );
      ( "periodic",
        [ Alcotest.test_case "every" `Quick test_every;
          Alcotest.test_case "every with start" `Quick test_every_start_offset ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_model_order;
          QCheck_alcotest.to_alcotest prop_chooser_first;
          QCheck_alcotest.to_alcotest prop_seeded_chooser ] ) ]
