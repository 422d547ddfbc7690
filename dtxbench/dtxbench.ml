(* dtxbench: the one benchmark for DTX. See dtxbench/README.md.

     dtxbench --workload W --seed N --seconds S --trace 0|1
     dtxbench run [--seed N] [--seconds S] [--out FILE]
     dtxbench compare BASE NEW [--spec BENCHMARK.json]
     dtxbench smoke [--spec BENCHMARK.json]

   The first form measures one workload for about S seconds and ends its
   output with one JSON line: the end-to-end metrics, or with --trace 1 the
   per-layer ones. [run] measures all four workloads, each in its own child
   process so each heap peak is its own, and writes one result file with a
   host block. *)

open Dtxbench_lib

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("dtxbench: " ^ s);
      exit 2)
    fmt

(* "--key value" pairs, each key one of [known]; the rest are positional. *)
let parse_flags ~known args =
  let rec go flags pos = function
    | k :: _ when String.length k > 2 && String.sub k 0 2 = "--" && not (List.mem k known)
      ->
      die "unknown flag %s (expected one of: %s)" k (String.concat " " known)
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((k, v) :: flags) pos rest
    | [ k ] when String.length k > 2 && String.sub k 0 2 = "--" ->
      die "%s needs a value" k
    | x :: rest -> go flags (x :: pos) rest
    | [] -> (flags, List.rev pos)
  in
  go [] [] args

let flag flags key ~default conv =
  match List.assoc_opt key flags with
  | None -> default
  | Some v -> (
    match conv v with Some x -> x | None -> die "bad value %S for %s" v key)

let workload_flag flags key =
  let name = flag flags key ~default:"" Option.some in
  match Workloads.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))

let trace_flag flags =
  flag flags "--trace" ~default:false (function
    | "0" -> Some false
    | "1" -> Some true
    | _ -> None)

(* Knob hygiene for timed runs: one domain, and none of the ablation or
   debugging backends — those measure some other configuration. *)
let pin_knobs () =
  List.iter
    (fun k ->
      match Sys.getenv_opt k with
      | Some v when v <> "" -> die "%s=%s is set; timed runs measure the defaults" k v
      | _ -> ())
    [ "DTX_SIM_QUEUE"; "DTX_LOCK_SHARDS"; "DTX_RACE" ];
  Unix.putenv "DTX_DOMAINS" "1"

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

let default_seconds = 30.0

let single flags =
  let w = workload_flag flags "--workload" in
  let seed = flag flags "--seed" ~default:7 int_of_string_opt in
  let seconds = flag flags "--seconds" ~default:default_seconds float_of_string_opt in
  let trace = trace_flag flags in
  pin_knobs ();
  let r = Measure.run w ~seed ~inputs:(Workloads.inputs_for w ~seconds) ~seconds ~trace in
  Report.print Format.std_formatter r;
  print_endline (Report.summary r ~trace);
  exit (if r.Measure.errors = [] then 0 else 1)

(* The child side of [run]: the table, then the flat result fields as the
   last line. *)
let child flags =
  let w = workload_flag flags "--workload" in
  let seed = flag flags "--seed" ~default:7 int_of_string_opt in
  let seconds = flag flags "--seconds" ~default:default_seconds float_of_string_opt in
  pin_knobs ();
  let r =
    Measure.run w ~seed ~inputs:(Workloads.inputs_for w ~seconds) ~seconds ~trace:true
  in
  Report.print Format.std_formatter r;
  print_endline (Json.to_string (Json.Obj (Report.fields r)));
  exit (if r.Measure.errors = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* All four workloads                                                  *)
(* ------------------------------------------------------------------ *)

let command_line cmd =
  match Unix.open_process_args_in cmd.(0) cmd with
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> String.trim l
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let host ~seed ~seconds =
  let dtx_env =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "DTX_")
    |> List.sort compare
  in
  [ ("host/nproc", Json.Str (command_line [| "nproc" |]));
    ( "host/recommended_domains",
      Json.Num (float_of_int (Domain.recommended_domain_count ())) );
    ("host/ocaml", Json.Str Sys.ocaml_version);
    ( "host/commit",
      Json.Str
        (command_line [| "git"; "describe"; "--always"; "--dirty"; "--abbrev=40" |]) );
    ("host/seconds", Json.Num seconds);
    ("host/seed", Json.Num (float_of_int seed));
    ("host/dtx_env", Json.Str (String.concat " " dtx_env)) ]

let run_all flags =
  let seed = flag flags "--seed" ~default:7 int_of_string_opt in
  let seconds = flag flags "--seconds" ~default:default_seconds float_of_string_opt in
  let out = flag flags "--out" ~default:"dtxbench-results.json" Option.some in
  pin_knobs ();
  let host = host ~seed ~seconds in
  let ok = ref true in
  let results =
    List.concat_map
      (fun (w : Workloads.t) ->
        let cmd =
          [| Sys.executable_name; "workload"; "--workload"; w.Workloads.name; "--seed";
             string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name cmd in
        let rec relay last =
          match In_channel.input_line ic with
          | Some l ->
            Option.iter print_endline last;
            relay (Some l)
          | None -> last
        in
        let last = relay None in
        let status = Unix.close_process_in ic in
        if status <> Unix.WEXITED 0 then ok := false;
        match Option.map Json.parse last with
        | Some (Ok (Json.Obj fields)) -> fields
        | _ ->
          prerr_endline ("dtxbench: no result from " ^ w.Workloads.name);
          ok := false;
          [])
      Workloads.all
  in
  let workloads =
    ("workloads", Json.Str (String.concat "," (List.map (fun w -> w.Workloads.name) Workloads.all)))
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Json.to_lines ((workloads :: host) @ results)));
  Printf.printf "results written to %s\n" out;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare, smoke                                                      *)
(* ------------------------------------------------------------------ *)

let read_or_die path =
  match Json.read_file path with Ok v -> v | Error e -> die "%s" e

let compare_runs flags = function
  | [ base; now ] ->
    let spec = read_or_die (flag flags "--spec" ~default:"BENCHMARK.json" Option.some) in
    let bounds = match Compare.bounds_of_spec spec with Ok b -> b | Error e -> die "%s" e in
    let fields path =
      match read_or_die path with Json.Obj l -> l | _ -> die "%s: not an object" path
    in
    let rows = Compare.rows ~bounds ~base:(fields base) ~now:(fields now) in
    Compare.print_rows Format.std_formatter rows;
    let missing =
      List.exists (fun r -> List.exists (fun (_, v) -> v = None) r.Compare.cells) rows
    in
    let regressions = Compare.regressions rows in
    List.iter
      (fun (w, m, s) -> Printf.printf "regression: %s %s worse by %.2f%%\n" w m (100.0 *. s))
      regressions;
    List.iter (fun (w, m) -> Printf.printf "unresolved: %s %s\n" w m) (Compare.unresolved rows);
    if missing then print_endline "some metrics are missing from one of the files";
    exit (if regressions = [] && rows <> [] && not missing then 0 else 1)
  | _ -> die "usage: dtxbench compare BASE NEW [--spec BENCHMARK.json]"

(* The spec and the dictionary must name the same metrics with the same
   units, in the same order. *)
let spec_errors spec =
  let listed key =
    match Json.member key spec with
    | Some (Json.Arr items) ->
      List.map
        (fun i ->
          match (Json.member "name" i, Json.member "unit" i) with
          | Some (Json.Str n), Some (Json.Str u) -> (n, u)
          | _ -> ("?", "?"))
        items
    | _ -> []
  in
  let check key expected =
    if listed key <> expected then
      [ Printf.sprintf "BENCHMARK.json %s differs from the bench's dictionary" key ]
    else []
  in
  check "end_to_end" (List.map (fun (n, u, _) -> (n, u)) Metrics.end_to_end)
  @ check "per_layer" Metrics.per_layer
  @
  match Json.member "workloads" spec with
  | Some (Json.Arr items)
    when List.map (fun i -> Json.member "name" i) items
         = List.map (fun w -> Some (Json.Str w.Workloads.name)) Workloads.all ->
    []
  | _ -> [ "BENCHMARK.json workloads differ from the bench's" ]

(* Paths the smoke's replays must have crossed in at least one workload,
   so the fidelity checks are not passing vacuously. *)
let smoke_coverage =
  [ "locks.blocked_share"; "wfg.deadlock_aborts_per_ktxn"; "update.undos_per_txn";
    "msg.vote_no_per_ktxn"; "optimist.lockfree_op_share" ]

let smoke flags =
  let t0 = Unix.gettimeofday () in
  let spec_problems =
    spec_errors (read_or_die (flag flags "--spec" ~default:"BENCHMARK.json" Option.some))
  in
  let results =
    List.map
      (fun w -> Measure.run ~smoke:true w ~seed:7 ~inputs:1 ~seconds:0.0 ~trace:true)
      Workloads.all
  in
  let problems =
    spec_problems
    @ List.concat_map
        (fun (r : Measure.result) ->
          let missing =
            if List.map fst r.Measure.per_layer <> List.map fst Metrics.per_layer then
              [ "per-layer metrics differ from the dictionary" ]
            else []
          in
          Printf.printf "smoke %-18s %4d txns, %4d committed: %s\n" r.Measure.workload
            (r.Measure.attempted / r.Measure.passes) r.Measure.resp_samples
            (String.concat ", "
               (List.map
                  (fun m ->
                    match List.assoc_opt m r.Measure.per_layer with
                    | Some v -> Printf.sprintf "%s %.3g" m v
                    | None -> m ^ " -")
                  smoke_coverage));
          List.map (fun e -> r.Measure.workload ^ ": " ^ e) (r.Measure.errors @ missing))
        results
    @ List.filter_map
        (fun m ->
          if
            List.exists
              (fun (r : Measure.result) ->
                Option.value (List.assoc_opt m r.Measure.per_layer) ~default:0.0 > 0.0)
              results
          then None
          else Some ("no smoke workload exercised " ^ m))
        smoke_coverage
  in
  List.iter (fun p -> print_endline ("  " ^ p)) problems;
  Printf.printf "smoke %s in %.1f s\n" (if problems = [] then "passed" else "FAILED")
    (Unix.gettimeofday () -. t0);
  exit (if problems = [] then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_all (fst (parse_flags ~known:[ "--seed"; "--seconds"; "--out" ] rest))
  | "workload" :: rest ->
    child (fst (parse_flags ~known:[ "--workload"; "--seed"; "--seconds" ] rest))
  | "compare" :: rest ->
    let flags, pos = parse_flags ~known:[ "--spec" ] rest in
    compare_runs flags pos
  | "smoke" :: rest -> smoke (fst (parse_flags ~known:[ "--spec" ] rest))
  | args -> (
    match parse_flags ~known:[ "--workload"; "--seed"; "--seconds"; "--trace" ] args with
    | flags, [] when flags <> [] -> single flags
    | _ ->
      die
        "usage: dtxbench --workload W --seed N --seconds S --trace 0|1 | run | \
         compare BASE NEW | smoke")
