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

let test_every_fault_caught () =
  List.iter
    (fun (e : Faults.t) ->
      match Faults.assess e with
      | Ok _ -> ()
      | Error why -> Alcotest.failf "%s: %s" e.name why)
    Faults.all

(* Every check the gates trust has at least one fault proving it can fire. *)
let test_checks_covered () =
  let covered c = List.exists (fun (e : Faults.t) -> e.check = c) Faults.all in
  List.iter
    (fun c -> Alcotest.(check bool) c true (covered c))
    [ "mode-lattice"; "lock-compat"; "lock-balance"; "2pc-order";
      "lock-coverage"; "fsm"; "caps" ]

(* The wrong-caps fault registers its probe kind globally; certification
   must exclude it by name, so a clean run still certifies. *)
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
