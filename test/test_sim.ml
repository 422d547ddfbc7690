(* Tests for the discrete-event simulator: ordering, determinism,
   cancellation, periodic processes. *)

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

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel sim id;
  Sim.run sim;
  checkb "cancelled event did not fire" false !fired;
  (* Cancelling twice or after drain is harmless. *)
  Sim.cancel sim id

let test_cancel_no_leak () =
  (* Regression: a cancel aimed at an already-fired (or never-firing) event
     used to park its id in the cancelled table forever. *)
  let sim = Sim.create () in
  let id = Sim.schedule sim ~delay:1.0 (fun () -> ()) in
  Sim.run sim;
  Sim.cancel sim id;
  (* fired: no-op, nothing retained *)
  check "no backlog after cancelling fired event" 0 (Sim.cancelled_backlog sim);
  let foreign =
    let other = Sim.create () in
    let last = ref None in
    for _ = 1 to 5 do
      last := Some (Sim.schedule other ~delay:1.0 (fun () -> ()))
    done;
    Option.get !last
  in
  Sim.cancel sim foreign;
  (* id unknown to this simulator: no-op, nothing retained *)
  check "no backlog after cancelling unknown id" 0 (Sim.cancelled_backlog sim);
  let id2 = Sim.schedule sim ~delay:1.0 (fun () -> Alcotest.fail "cancelled") in
  Sim.cancel sim id2;
  check "one pending cancellation" 1 (Sim.cancelled_backlog sim);
  Sim.cancel sim id2;
  (* double cancel counted once *)
  check "double cancel counted once" 1 (Sim.cancelled_backlog sim);
  Sim.run sim;
  check "backlog drained with the queue" 0 (Sim.cancelled_backlog sim)

let test_compaction () =
  (* Mass cancellation must not leave garbage parked until the clock catches
     up: once >= 64 cancellations are pending and they outnumber half the
     queue, the queue is rebuilt without them. *)
  let sim = Sim.create () in
  let fired = ref 0 in
  let ids =
    List.init 200 (fun i ->
        Sim.schedule sim ~delay:(float_of_int (i + 1)) (fun () -> incr fired))
  in
  List.iteri (fun i id -> if i < 150 then Sim.cancel sim id) ids;
  (* The 101st cancel trips 2*101 > 200 and compacts to zero backlog; the
     trailing 49 sit below the 64-cancellation floor. *)
  checkb "compaction ran" true (Sim.cancelled_backlog sim < 64);
  check "leftover below floor" 49 (Sim.cancelled_backlog sim);
  check "live events remain" 99 (Sim.pending sim);
  Sim.run sim;
  check "only uncancelled fired" 50 !fired;
  check "backlog drained" 0 (Sim.cancelled_backlog sim);
  check "queue empty" 0 (Sim.pending sim)

(* Schedule/cancel scripts checked against a sorted-list model of the
   (time, seq) dispatch order. Every event whose index is a multiple of 7
   schedules a follow-up, and the cancellations (two in three events) push
   long scripts past the 64-cancellation compaction floor; the model also
   tracks the backlog/pending bookkeeping that compaction resets. *)
let prop_model_order =
  QCheck.Test.make ~name:"calendar queue matches sorted model" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 200)
        (pair (float_bound_exclusive 50.0)
           (make Gen.(frequencyl [ (1, false); (2, true) ]))))
    (fun script ->
      let sim = Sim.create () in
      let log = ref [] in
      let ids =
        List.mapi
          (fun i (d, _) ->
            Sim.schedule sim ~delay:d (fun () ->
                log := (i, Sim.now sim) :: !log;
                if i mod 7 = 0 then
                  ignore
                    (Sim.schedule sim ~delay:1.0 (fun () ->
                         log := (1000 + i, Sim.now sim) :: !log))))
          script
      in
      List.iter2
        (fun id (_, cancel) -> if cancel then Sim.cancel sim id)
        ids script;
      (* Bookkeeping model: cancelled events stay live until compaction
         drops the whole backlog at once. *)
      let live = ref (List.length script) and backlog = ref 0 in
      List.iter
        (fun (_, cancel) ->
          if cancel then begin
            incr backlog;
            if !backlog >= 64 && !backlog * 2 > !live then begin
              live := !live - !backlog;
              backlog := 0
            end
          end)
        script;
      let bookkeeping =
        Sim.pending sim = !live && Sim.cancelled_backlog sim = !backlog
      in
      Sim.run sim;
      (* Dispatch model: pending (time, seq, label) triples, kept sorted. *)
      let next_seq = ref (List.length script) in
      let rec drain pending acc =
        match pending with
        | [] -> acc
        | (time, _, label) :: rest ->
          let rest =
            if label < 1000 && label mod 7 = 0 then begin
              let seq = !next_seq in
              incr next_seq;
              List.merge compare [ (time +. 1.0, seq, 1000 + label) ] rest
            end
            else rest
          in
          drain rest ((label, time) :: acc)
      in
      let initial =
        List.mapi (fun i (d, cancel) -> if cancel then [] else [ (d, i, i) ])
          script
        |> List.concat |> List.sort compare
      in
      bookkeeping && !log = drain initial []
      && Sim.pending sim = 0
      && Sim.cancelled_backlog sim = 0)

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
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel leaks nothing" `Quick test_cancel_no_leak;
          Alcotest.test_case "mass-cancel compaction" `Quick test_compaction;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "max events" `Quick test_max_events;
          Alcotest.test_case "step" `Quick test_step ] );
      ( "periodic",
        [ Alcotest.test_case "every" `Quick test_every;
          Alcotest.test_case "every with start" `Quick test_every_start_offset ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_model_order ] ) ]
