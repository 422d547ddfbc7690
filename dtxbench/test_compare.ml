(* Unit tests of [dtxbench compare]'s judgement and of the JSON reader it
   relies on: direction, bound, exact match, and unresolved spreads. *)

open Dtxbench_lib

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let point v = { Metrics.median = v; q1 = v; q3 = v; lo = v; hi = v }

let spread ?(lo_hi = 0.02) ~iqr v =
  { Metrics.median = v; q1 = v *. (1.0 -. (iqr /. 2.0)); q3 = v *. (1.0 +. (iqr /. 2.0));
    lo = v *. (1.0 -. lo_hi); hi = v *. (1.0 +. lo_hi) }

let lower share = { Compare.direction = Compare.Lower; share }

let higher share = { Compare.direction = Compare.Higher; share }

let counted = Metrics.Counted

let timed = Metrics.Timed

let () =
  (* Counted metrics: exact match, direction, bound. *)
  check "counted equal is Same"
    (Compare.judge counted (lower 0.01) ~base:(point 10.0) ~now:(point 10.0) = Compare.Same);
  check "counted lower-is-better drop is Better"
    (match Compare.judge counted (lower 0.01) ~base:(point 10.0) ~now:(point 9.0) with
     | Compare.Better _ -> true
     | _ -> false);
  check "counted higher-is-better drop beyond bound regresses"
    (match Compare.judge counted (higher 0.05) ~base:(point 100.0) ~now:(point 90.0) with
     | Compare.Regressed s -> Float.abs (s -. 0.1) < 1e-9
     | _ -> false);
  check "counted worsening within the bound is reported, not a regression"
    (match Compare.judge counted (lower 0.05) ~base:(point 100.0) ~now:(point 102.0) with
     | Compare.Worse _ -> true
     | _ -> false);
  check "counted tiny change is still a change"
    (Compare.judge counted (lower 0.05) ~base:(point 100.0) ~now:(point 100.000001)
     <> Compare.Same);
  (* Timed metrics: spread within the bound resolves, wider does not. *)
  check "timed worsening beyond a resolved bound regresses"
    (match
       Compare.judge timed (higher 0.1) ~base:(spread ~iqr:0.02 1000.0)
         ~now:(spread ~iqr:0.02 850.0)
     with
     | Compare.Regressed _ -> true
     | _ -> false);
  check "timed small change within the bound is not a regression"
    (match
       Compare.judge timed (higher 0.1) ~base:(spread ~iqr:0.02 1000.0)
         ~now:(spread ~iqr:0.02 980.0)
     with
     | Compare.Worse _ -> true
     | _ -> false);
  check "timed spread wider than the bound is unresolved"
    (match
       Compare.judge timed (higher 0.1) ~base:(spread ~lo_hi:0.3 ~iqr:0.25 1000.0)
         ~now:(spread ~lo_hi:0.3 ~iqr:0.02 700.0)
     with
     | Compare.Unresolved _ -> true
     | _ -> false);
  check "timed: every new round better than every base round wins despite spread"
    (match
       Compare.judge timed (lower 0.1) ~base:(spread ~lo_hi:0.1 ~iqr:0.15 10.0)
         ~now:(spread ~lo_hi:0.1 ~iqr:0.15 5.0)
     with
     | Compare.Better _ -> true
     | _ -> false);
  (* The reader and the spec/result plumbing. *)
  let spec =
    Json.parse
      {|{"end_to_end": [{"name": "sim_txn_per_s", "unit": "txn/s", "better": "higher", "bound": 0.1},
                        {"name": "virt_resp_p50_ms", "unit": "virt_ms", "better": "lower", "bound": 0.05}]}|}
  in
  let bounds =
    match spec with
    | Ok spec -> (match Compare.bounds_of_spec spec with Ok b -> b | Error _ -> [])
    | Error _ -> []
  in
  check "bounds read from the spec" (List.length bounds = 2);
  let file s = match Json.parse s with Ok (Json.Obj l) -> l | _ -> [] in
  let base =
    file
      {|{"workloads": "w", "w/sim_txn_per_s": 1000, "w/sim_txn_per_s/q1": 990,
         "w/sim_txn_per_s/q3": 1010, "w/sim_txn_per_s/min": 980, "w/sim_txn_per_s/max": 1020,
         "w/virt_resp_p50_ms": 12.5}|}
  in
  let now =
    file
      {|{"workloads": "w", "w/sim_txn_per_s": 1005, "w/sim_txn_per_s/q1": 995,
         "w/sim_txn_per_s/q3": 1015, "w/sim_txn_per_s/min": 985, "w/sim_txn_per_s/max": 1025,
         "w/virt_resp_p50_ms": 14.0}|}
  in
  let rows = Compare.rows ~bounds ~base ~now in
  check "one row per workload" (List.length rows = 1);
  check "counted regression found through the files"
    (match Compare.regressions rows with
     | [ ("w", "virt_resp_p50_ms", s) ] -> Float.abs (s -. 0.12) < 1e-9
     | _ -> false);
  check "nothing unresolved" (Compare.unresolved rows = []);
  check "JSON escapes round-trip"
    (Json.parse (Json.to_string (Json.Str "a\"b\\c\nd")) = Ok (Json.Str "a\"b\\c\nd"));
  check "JSON numbers keep their digits"
    (Json.parse (Json.to_string (Json.Num 0.1234567890123)) = Ok (Json.Num 0.1234567890123));
  check "JSON rejects trailing data" (Result.is_error (Json.parse "{} x"));
  if !failures > 0 then exit 1;
  print_endline "test_compare: all cases passed"
