(* The seeded-fault registry, run under the test gate: every fault must be
   caught by the check it names, its fault-free twin must be clean, and no
   fault may leak into a later clean run. *)

module Faults = Dtx_faults.Faults
module Cert = Dtx_cert.Cert

let test_names_unique () =
  let names = List.map (fun (e : Faults.t) -> e.name) Faults.all in
  Alcotest.(check int)
    "one entry per name"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* Each entry's verdict, violation count included: a fault that starts
   tripping its check more or less often changed what the check sees. *)
let expected_verdicts =
  let v check n =
    Printf.sprintf "caught by %s (%d violation(s)); clean without the fault"
      check n
  in
  [ ("lattice/compat-flip", v "mode-lattice" 2);
    ("analyze/skip-release", v "lock-compat" 6);
    ("analyze/skip-one-release", v "lock-balance" 1);
    ("analyze/commit-reorder", v "2pc-order" 4);
    ("chaos/drop-as-deliver", v "partition" 11);
    ("explore/skip-release", v "lock-compat" 8);
    ("explore/commit-reorder", v "2pc-order" 20);
    ("cert/flip-compat-bit", v "lock-coverage" 24);
    ("cert/drop-handler", v "fsm" 1);
    ("cert/weaken-commute", v "lock-coverage" 5) ]

let test_every_fault_caught () =
  Alcotest.(check (list string))
    "registry order" (List.map fst expected_verdicts)
    (List.map (fun (e : Faults.t) -> e.name) Faults.all);
  List.iter
    (fun (e : Faults.t) ->
      match Faults.assess e with
      | Ok verdict ->
        Alcotest.(check string) e.name (List.assoc e.name expected_verdicts)
          verdict
      | Error why -> Alcotest.failf "%s: %s" e.name why)
    Faults.all

(* Every check the gates trust has at least one fault proving it can fire. *)
let test_checks_covered () =
  let covered c = List.exists (fun (e : Faults.t) -> e.check = c) Faults.all in
  List.iter
    (fun c -> Alcotest.(check bool) c true (covered c))
    [ "mode-lattice"; "lock-compat"; "lock-balance"; "2pc-order";
      "partition"; "lock-coverage"; "fsm" ]

(* Injected faults must leave no state behind: a clean run after all of
   them still certifies. *)
let test_clean_after_faults () =
  List.iter (fun (e : Faults.t) -> ignore (e.run ~inject:true)) Faults.all;
  Alcotest.(check bool) "certified" true (Cert.certify ()).Cert.r_certified

let () =
  Alcotest.run "faults"
    [ ( "registry",
        [ Alcotest.test_case "names unique" `Quick test_names_unique;
          Alcotest.test_case "every fault caught, twin clean" `Quick
            test_every_fault_caught;
          Alcotest.test_case "every check covered" `Quick test_checks_covered;
          Alcotest.test_case "cert certifies after all faults" `Quick
            test_clean_after_faults ] ) ]
