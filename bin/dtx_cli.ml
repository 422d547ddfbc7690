(* The dtx command-line tool.

     dtx generate   --mb 4 -o auctions.xml        XMark-schema generator
     dtx query      -f doc.xml "/site/people/person[@id = \"p3\"]/name"
     dtx update     -f doc.xml -e 'CHANGE //price TO "9.99"' [-o out.xml]
     dtx dataguide  -f doc.xml                    print the strong DataGuide
     dtx locks      -f doc.xml -e 'REMOVE //item' [--protocol node2pl]
     dtx workload   --protocol commute --clients 50 --update-pct 20 ...
     dtx scale      --sites 1000 --clients 10000   extreme-scale single run
     dtx explore    --scenario ref [--naive] [--json]
     dtx selftest                                 every seeded fault is caught
     dtx experiment all [--quick] [--export DIR]  the paper's evaluation

   Everything runs on the simulated cluster; [experiment] regenerates the
   paper's figures, the qualitative summary and the ablations. *)

open Cmdliner

module Doc = Dtx_xml.Doc
module Node = Dtx_xml.Node
module Xml_parser = Dtx_xml.Parser
module Printer = Dtx_xml.Printer
module Xp = Dtx_xpath.Parser
module Eval = Dtx_xpath.Eval
module Dataguide = Dtx_dataguide.Dataguide
module Op = Dtx_update.Op
module Exec = Dtx_update.Exec
module Protocol = Dtx_protocol.Protocol
module Mode = Dtx_locks.Mode
module Table = Dtx_locks.Table
module Generator = Dtx_xmark.Generator
module Workload = Dtx_workload.Workload
module Experiments = Dtx_workload.Experiments
module Allocation = Dtx_frag.Allocation
module Stats = Dtx_util.Stats
module Json = Dtx_util.Json
module Protocol_arg = Dtx_cli_args.Protocol_arg

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* File errors end the command with one line on stderr and exit 1. *)
let write_output out text =
  match out with
  | None -> print_string text
  | Some path -> (
    try Out_channel.with_open_bin path (fun oc -> output_string oc text)
    with Sys_error msg ->
      Printf.eprintf "dtx_cli: cannot write %s: %s\n" path msg;
      exit 1)

let load_doc path =
  match
    Xml_parser.parse ~name:(Filename.remove_extension (Filename.basename path))
      (read_file path)
  with
  | doc -> doc
  | exception Xml_parser.Parse_error (msg, off) ->
    Printf.eprintf "dtx_cli: %s: XML parse error at offset %d: %s\n" path off
      msg;
    exit 1
  | exception Sys_error msg ->
    Printf.eprintf "dtx_cli: cannot read %s: %s\n" path msg;
    exit 1

(* --- common args ---------------------------------------------------------- *)

let file_arg =
  Arg.(required & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"XML document to operate on.")

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the result to $(docv) instead of stdout.")

(* Protocol selection is shared, registry-driven plumbing: see
   {!Protocol_arg}. [--protocol] picks one kind; the sweep subcommands
   (analyze, chaos) take [--protocols] config lists instead. *)
let protocol_arg = Protocol_arg.arg

(* --- generate -------------------------------------------------------------- *)

let generate_cmd =
  let mb =
    Arg.(value & opt Protocol_arg.mb 1.0 & info [ "mb" ] ~docv:"MB"
           ~doc:"Database size in paper-MB (1 MB \xe2\x89\x88 250 nodes).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Generator seed.") in
  let run mb seed out =
    let doc = Generator.generate (Generator.params_of_mb ~seed mb) in
    write_output out (Printer.to_string doc ^ "\n");
    Printf.eprintf "generated %d nodes (%d items, %d persons)\n" (Doc.size doc)
      (List.length (Generator.item_ids doc))
      (List.length (Generator.person_ids doc))
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate an XMark-schema auction document.")
    Term.(const run $ mb $ seed $ output_arg)

(* --- query ----------------------------------------------------------------- *)

let query_cmd =
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"XPATH"
           ~doc:"Path expression (the XDGL XPath subset).")
  in
  let run file path_text =
    let doc = load_doc file in
    match Xp.parse path_text with
    | exception Xp.Parse_error (msg, off) ->
      Printf.eprintf "parse error at %d: %s\n" off msg;
      exit 1
    | path ->
      let results = Eval.select doc path in
      Printf.printf "<!-- %d result(s) -->\n" (List.length results);
      List.iter (fun n -> print_endline (Printer.node_to_string n)) results
  in
  Cmd.v (Cmd.info "query" ~doc:"Evaluate an XPath expression over a document.")
    Term.(const run $ file_arg $ path)

(* --- update ---------------------------------------------------------------- *)

let op_arg =
  Arg.(required & opt (some string) None & info [ "e"; "op" ] ~docv:"OP"
         ~doc:"Operation in the textual update syntax, e.g. 'INSERT INTO \
               /site/people <person/>' or 'CHANGE //price TO \"9.99\"'.")

let update_cmd =
  let run file op_text out =
    let doc = load_doc file in
    match Op.parse op_text with
    | Error e ->
      Printf.eprintf "bad operation: %s\n" e;
      exit 1
    | Ok op -> (
      match Exec.apply doc op with
      | Error e ->
        Printf.eprintf "failed: %s\n" (Exec.error_to_string e);
        exit 1
      | Ok eff ->
        Printf.eprintf "%d node(s) affected, %d touched\n" eff.Exec.result_count
          eff.Exec.touched;
        write_output out (Printer.to_string doc ^ "\n"))
  in
  Cmd.v (Cmd.info "update" ~doc:"Apply one update operation to a document.")
    Term.(const run $ file_arg $ op_arg $ output_arg)

(* --- txn ------------------------------------------------------------------- *)

let txn_cmd =
  let script_arg =
    Arg.(required & opt (some string) None & info [ "e"; "script" ] ~docv:"SCRIPT"
           ~doc:"Transaction script: one operation per line ('#' comments).")
  in
  let run file script out =
    let doc = load_doc file in
    match Op.parse_script script with
    | Error e ->
      Printf.eprintf "bad script: %s\n" e;
      exit 1
    | Ok ops ->
      (* All-or-nothing: undo already-applied operations if a later one
         fails — the same rollback discipline DTX uses on abort. *)
      let rec apply_all done_ = function
        | [] ->
          Printf.eprintf "%d operation(s) applied\n" (List.length done_);
          write_output out (Printer.to_string doc ^ "\n")
        | op :: rest -> (
          match Exec.apply doc op with
          | Ok eff -> apply_all (eff :: done_) rest
          | Error e ->
            List.iter (fun eff -> ignore (Exec.undo doc eff.Exec.undo)) done_;
            Printf.eprintf "failed (%s): %s — rolled back\n" (Op.to_string op)
              (Exec.error_to_string e);
            exit 1)
      in
      apply_all [] ops
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:"Apply a multi-operation transaction to a document, atomically.")
    Term.(const run $ file_arg $ script_arg $ output_arg)

(* --- dataguide ------------------------------------------------------------- *)

let dataguide_cmd =
  let run file =
    let doc = load_doc file in
    let dg = Dataguide.build doc in
    Format.printf "%a" Dataguide.pp dg;
    Printf.printf "(%d DataGuide nodes for %d document nodes: %.1fx smaller)\n"
      (Dataguide.size dg) (Doc.size doc)
      (float_of_int (Doc.size doc) /. float_of_int (Dataguide.size dg))
  in
  Cmd.v
    (Cmd.info "dataguide"
       ~doc:"Print the strong DataGuide of a document (the XDGL lock space).")
    Term.(const run $ file_arg)

(* --- locks ----------------------------------------------------------------- *)

let locks_cmd =
  let run file op_text kind =
    let doc = load_doc file in
    let proto = Protocol.create kind in
    Protocol.add_doc proto doc;
    match Op.parse op_text with
    | Error e ->
      Printf.eprintf "bad operation: %s\n" e;
      exit 1
    | Ok op -> (
      match Protocol.lock_requests proto ~doc:doc.Doc.name op with
      | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
      | Ok (requests, processed) ->
        Printf.printf "%s would process %d lock request(s), retaining %d:\n"
          (Protocol.kind_to_string kind) processed (List.length requests);
        List.iter
          (fun ((r : Table.resource), mode) ->
            Printf.printf "  %-4s %s#%d\n" (Mode.to_string mode)
              (Table.resource_doc r) (Table.resource_node r))
          requests)
  in
  Cmd.v
    (Cmd.info "locks"
       ~doc:"Show the lock set a protocol computes for an operation.")
    Term.(const run $ file_arg $ op_arg $ protocol_arg)

(* --- workload ---------------------------------------------------------------*)

let policy_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "detection" -> Ok Dtx.Site.Detection
        | "wait-die" | "waitdie" -> Ok Dtx.Site.Wait_die
        | "wound-wait" | "woundwait" -> Ok Dtx.Site.Wound_wait
        | other -> Error (`Msg ("unknown policy " ^ other))),
      fun ppf p ->
        Format.pp_print_string ppf
          (match p with
           | Dtx.Site.Detection -> "detection"
           | Dtx.Site.Wait_die -> "wait-die"
           | Dtx.Site.Wound_wait -> "wound-wait") )

let workload_cmd =
  let clients = Arg.(value & opt Protocol_arg.count 50 & info [ "clients" ] ~doc:"Number of clients.") in
  let sites = Arg.(value & opt Protocol_arg.count 4 & info [ "sites" ] ~doc:"Number of sites.") in
  let txns = Arg.(value & opt Protocol_arg.count 5 & info [ "txns" ] ~doc:"Transactions per client.") in
  let ops = Arg.(value & opt Protocol_arg.count 5 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let upd = Arg.(value & opt Protocol_arg.percent 20 & info [ "update-pct" ] ~doc:"Percent update transactions.") in
  let mb = Arg.(value & opt Protocol_arg.mb 40.0 & info [ "mb" ] ~doc:"Base size in paper-MB.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload seed.") in
  let total = Arg.(value & flag & info [ "total-replication" ] ~doc:"Replicate every document everywhere.") in
  let retries = Arg.(value & opt Protocol_arg.non_negative 0 & info [ "retries" ] ~doc:"Client resubmissions after abort.") in
  let two_phase = Arg.(value & flag & info [ "two-phase" ] ~doc:"Commit with the 2PC extension.") in
  let wan = Arg.(value & flag & info [ "wan" ] ~doc:"WAN link profile instead of LAN.") in
  let policy =
    Arg.(value & opt policy_conv Dtx.Site.Detection
         & info [ "deadlock-policy" ] ~docv:"POLICY"
             ~doc:"detection, wait-die or wound-wait.")
  in
  let run kind clients sites txns ops upd mb seed total retries two_phase wan
      policy =
    let p =
      { Workload.default_params with
        protocol = kind; n_clients = clients; n_sites = sites;
        txns_per_client = txns; ops_per_txn = ops; update_txn_pct = upd;
        base_size_mb = mb; seed; retries;
        replication =
          (if total then Allocation.Total else Allocation.Partial { copies = 1 });
        two_phase_commit = two_phase;
        net_config = (if wan then Dtx_net.Net.Config.wan else Dtx_net.Net.Config.lan);
        deadlock_policy = policy }
    in
    let r = Workload.run p in
    Format.printf "%a@." Workload.pp_result r
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:"Run one DTXTester workload on the simulated cluster.")
    Term.(const run $ protocol_arg $ clients $ sites $ txns $ ops $ upd $ mb
          $ seed $ total $ retries $ two_phase $ wan $ policy)

(* --- scale ------------------------------------------------------------------*)

let scale_cmd =
  let clients = Arg.(value & opt Protocol_arg.count 10_000 & info [ "clients" ] ~doc:"Number of clients.") in
  let sites = Arg.(value & opt Protocol_arg.count 1000 & info [ "sites" ] ~doc:"Number of sites.") in
  let txns = Arg.(value & opt Protocol_arg.count 1 & info [ "txns" ] ~doc:"Transactions per client.") in
  let ops = Arg.(value & opt Protocol_arg.count 3 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let upd = Arg.(value & opt Protocol_arg.percent 20 & info [ "update-pct" ] ~doc:"Percent update transactions.") in
  let mb = Arg.(value & opt Protocol_arg.mb 10.0 & info [ "mb" ] ~doc:"Base size in paper-MB.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Workload seed.") in
  let no_timing =
    Arg.(value & flag
         & info [ "no-timing" ]
             ~doc:"Omit wall-clock timing lines, leaving only deterministic \
                   simulation output (for byte-for-byte run comparisons).")
  in
  let run kind clients sites txns ops upd mb seed no_timing =
    let p =
      { Workload.default_params with
        protocol = kind; n_clients = clients; n_sites = sites;
        txns_per_client = txns; ops_per_txn = ops; update_txn_pct = upd;
        base_size_mb = mb; seed;
        (* At 1000 sites the paper's one-copy partial allocation is the only
           affordable choice; scale runs keep it. *)
        replication = Allocation.Partial { copies = 1 } }
    in
    let t0 = Unix.gettimeofday () in
    let database = Workload.build_database p in
    let t1 = Unix.gettimeofday () in
    let r = Workload.run ~database p in
    let t2 = Unix.gettimeofday () in
    let committed_per_s =
      if r.Workload.makespan_ms > 0.0 then
        float_of_int r.Workload.committed /. (r.Workload.makespan_ms /. 1000.0)
      else 0.0
    in
    Format.printf "%a@." Workload.pp_result r;
    Format.printf
      "scale: %d sites, %d clients, %d/%d txns committed@ \
       virtual throughput %.0f txn/s, mean response %.2f ms@."
      sites clients r.Workload.committed r.Workload.planned_txns
      committed_per_s r.Workload.response.Stats.mean;
    if not no_timing then
      Format.printf
        "wall clock: %.2f s database + %.2f s run (%.0f txn/s real)@."
        (t1 -. t0) (t2 -. t1)
        (if t2 -. t1 > 0.0 then float_of_int r.Workload.committed /. (t2 -. t1)
         else 0.0)
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:"Run one extreme-scale workload (defaults: 1000 sites, 10000 \
             clients) and report throughput, latency and wall-clock cost.")
    Term.(const run $ protocol_arg $ clients $ sites $ txns $ ops $ upd $ mb
          $ seed $ no_timing)

(* --- analyze ----------------------------------------------------------------*)

module Checker = Dtx_check.Checker
module Lattice = Dtx_check.Lattice

let analyze_cmd =
  let seeds =
    Arg.(value & opt Protocol_arg.seeds [ 7; 107 ] & info [ "seeds" ] ~docv:"SEEDS"
           ~doc:"Comma-separated workload seeds.")
  in
  let clients = Arg.(value & opt Protocol_arg.count 12 & info [ "clients" ] ~doc:"Number of clients.") in
  let sites = Arg.(value & opt Protocol_arg.count 4 & info [ "sites" ] ~doc:"Number of sites.") in
  let txns = Arg.(value & opt Protocol_arg.count 4 & info [ "txns" ] ~doc:"Transactions per client.") in
  let ops = Arg.(value & opt Protocol_arg.count 5 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let upd = Arg.(value & opt Protocol_arg.percent 30 & info [ "update-pct" ] ~doc:"Percent update transactions.") in
  let mb = Arg.(value & opt Protocol_arg.mb 4.0 & info [ "mb" ] ~doc:"Base size in paper-MB.") in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Tiny single-seed configuration (the make-check gate).")
  in
  let ring =
    Arg.(value & opt Protocol_arg.count 256 & info [ "ring" ]
           ~doc:"Trace ring-buffer capacity (violation suffix length).")
  in
  let run seeds clients sites txns ops upd mb smoke ring protocols =
    let clients, sites, txns, ops, mb, seeds =
      if smoke then
        (6, 3, 3, 4, 2.0, [ List.nth_opt seeds 0 |> Option.value ~default:7 ])
      else (clients, sites, txns, ops, mb, seeds)
    in
    (match Lattice.check () with
     | Ok () -> print_endline "mode-lattice: ok (64 pairs, masks, hierarchy)"
     | Error msgs ->
       Printf.printf "mode-lattice: %d violation(s)\n" (List.length msgs);
       List.iter (fun m -> Printf.printf "  [mode-lattice] %s\n" m) msgs;
       exit 1);
    let base =
      { Workload.default_params with
        n_clients = clients; n_sites = sites; txns_per_client = txns;
        ops_per_txn = ops; update_txn_pct = upd; base_size_mb = mb }
    in
    let failed = ref false in
    List.iter
      (fun seed ->
        List.iter
          (fun (proto, two_phase) ->
            if not !failed then begin
              let p =
                { base with seed; protocol = proto;
                  two_phase_commit = two_phase }
              in
              let label =
                Printf.sprintf "%s%s seed=%d" (Protocol.kind_to_string proto)
                  (if two_phase then "+2pc" else "")
                  seed
              in
              let checker = Checker.create ~ring () in
              let r =
                Workload.run
                  ~instrument:(fun cluster ->
                    Checker.attach checker cluster)
                  p
              in
              match Checker.finish checker with
              | [] ->
                Format.printf
                  "%-22s ok: %d committed, %d aborted, %d deadlock(s)@." label
                  r.Workload.committed r.Workload.aborted r.Workload.deadlocks
              | vs ->
                failed := true;
                Format.printf "%-22s %d violation(s):@." label (List.length vs);
                List.iter
                  (fun v -> Format.printf "%a@." Checker.pp_violation v)
                  vs
            end)
          protocols)
      seeds;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run seeded workloads under every protocol with the invariant \
             checker attached; exit non-zero on the first violation.")
    Term.(const run $ seeds $ clients $ sites $ txns $ ops $ upd $ mb $ smoke
          $ ring $ Protocol_arg.configs_arg)

(* --- chaos ------------------------------------------------------------------*)

module Fault_plan = Dtx_fault.Fault_plan
module Injector = Dtx_fault.Injector

let chaos_cmd =
  let plans =
    Arg.(value & opt Protocol_arg.count 20 & info [ "plans" ] ~docv:"N"
           ~doc:"Seeded fault plans to run under every configuration.")
  in
  let first_seed =
    Arg.(value & opt int 1 & info [ "first-seed" ]
           ~doc:"Seed of the first plan; plan $(i,i) uses first-seed + i.")
  in
  let sites = Arg.(value & opt Protocol_arg.count 4 & info [ "sites" ] ~doc:"Number of sites.") in
  let clients = Arg.(value & opt Protocol_arg.count 6 & info [ "clients" ] ~doc:"Number of clients.") in
  let txns = Arg.(value & opt Protocol_arg.count 10 & info [ "txns" ] ~doc:"Transactions per client.") in
  let ops = Arg.(value & opt Protocol_arg.count 4 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let upd = Arg.(value & opt Protocol_arg.percent 40 & info [ "update-pct" ] ~doc:"Percent update transactions.") in
  let horizon =
    Arg.(value & opt Protocol_arg.positive_ms 160.0 & info [ "horizon" ] ~docv:"MS"
           ~doc:"Fault-plan horizon in virtual ms; keep it inside the \
                 fault-free makespan so the scheduled faults actually \
                 overlap the run. Generated faults all self-heal inside \
                 it: partitions close and crashed sites restart, so every \
                 run drains.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"Reduced matrix (the make-check gate): 3 plans, the XDGL \
                 and Commute flavours only.")
  in
  let show_plans =
    Arg.(value & flag & info [ "show-plans" ]
           ~doc:"Print each fault plan before running it.")
  in
  let ring =
    Arg.(value & opt Protocol_arg.count 256 & info [ "ring" ]
           ~doc:"Trace ring-buffer capacity (violation suffix length).")
  in
  let run plans first_seed sites clients txns ops upd horizon smoke show_plans
      ring protocols =
    let plans, configs =
      if smoke then
        ( 3,
          [ (Protocol.xdgl, false); (Protocol.xdgl, true);
            (Protocol.commute, false); (Protocol.commute, true) ] )
      else (plans, protocols)
    in
    let base =
      { Workload.default_params with
        n_clients = clients; n_sites = sites; txns_per_client = txns;
        ops_per_txn = ops; update_txn_pct = upd; base_size_mb = 2.0;
        (* The retransmission span (base 5 ms, 8 doublings ≈ 1.3 s) must
           outlast the longest partition the plan generator emits, so
           give-up fallbacks stay exceptional; the transaction timeout is
           the valve for work stranded behind a partition-stalled detector. *)
        retransmit_ms = Some 5.0;
        txn_timeout_ms = Some (4.0 *. horizon) }
    in
    let failed = ref 0 in
    let runs = ref 0 in
    let committed = ref 0 in
    let aborted = ref 0 in
    for i = 0 to plans - 1 do
      let plan_seed = first_seed + i in
      let plan =
        Fault_plan.random ~seed:plan_seed ~n_sites:sites ~horizon_ms:horizon
      in
      if show_plans then Format.printf "%a@." Fault_plan.pp plan;
      List.iter
        (fun (proto, two_phase) ->
          let p =
            { base with seed = 9000 + plan_seed; protocol = proto;
              two_phase_commit = two_phase }
          in
          let label =
            Printf.sprintf "plan %-3d %s%s" plan_seed
              (Protocol.kind_to_string proto)
              (if two_phase then "+2pc" else "")
          in
          (* One-phase commit is not crash-atomic — a site crash loses
             executed-but-uncommitted effects and there is no WAL redo to
             replay (the paper's §5 future-work gap; the 2PC extension is
             the fix). Crash events therefore run only under 2PC; the
             one-phase configs keep every message- and partition-level
             fault. *)
          let plan =
            if two_phase then plan
            else { plan with Fault_plan.crashes = [] }
          in
          let checker = Checker.create ~ring () in
          let r =
            Workload.run
              ~instrument:(fun cluster ->
                let inj = Injector.install cluster plan in
                Checker.set_link_oracle checker
                  (Some (Injector.link_oracle inj));
                Checker.attach checker cluster)
              p
          in
          incr runs;
          committed := !committed + r.Workload.committed;
          aborted := !aborted + r.Workload.aborted + r.Workload.failed;
          match Checker.finish checker with
          | [] ->
            Format.printf "%-28s ok: %d committed, %d aborted/failed@." label
              r.Workload.committed
              (r.Workload.aborted + r.Workload.failed)
          | vs ->
            incr failed;
            Format.printf "%-28s %d violation(s):@." label (List.length vs);
            List.iter
              (fun v -> Format.printf "%a@." Checker.pp_violation v)
              vs)
        configs
    done;
    Format.printf "chaos: %d run(s), %d committed, %d aborted/failed, %d \
                   failing run(s)@."
      !runs !committed !aborted !failed;
    if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run seeded workloads under scripted fault plans — message \
             drop/duplication/reordering, partitions, site crash and \
             WAL-replay restart — with the invariant checker attached; \
             exit non-zero if any run violates an invariant.")
    Term.(const run $ plans $ first_seed $ sites $ clients $ txns $ ops $ upd
          $ horizon $ smoke $ show_plans $ ring $ Protocol_arg.configs_arg)

(* --- explore ----------------------------------------------------------------*)

module Explore = Dtx_explore.Explore

let explore_cmd =
  let scenario =
    Arg.(value & opt string "ref" & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Scenario to explore (or $(b,all)); see $(b,--list).")
  in
  let list_scenarios =
    Arg.(value & flag & info [ "list" ] ~doc:"List scenarios and exit.")
  in
  let two_phase =
    Arg.(value & flag & info [ "two-phase" ]
           ~doc:"Commit with the 2PC extension.")
  in
  let naive =
    Arg.(value & flag & info [ "naive" ]
           ~doc:"Disable the commutativity-driven sleep sets and explore \
                 every delivery order (the reduction baseline).")
  in
  let random =
    Arg.(value & opt Protocol_arg.non_negative 0 & info [ "random" ] ~docv:"N"
           ~doc:"Also run $(docv) seeded random (bounded-jitter) schedules \
                 and report how many seeds find a violation.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit one machine-readable JSON object per configuration.")
  in
  let gate_reduction =
    Arg.(value & opt float 0.0 & info [ "gate-reduction" ] ~docv:"X"
           ~doc:"Also run the naive baseline and fail unless \
                 naive/DPOR schedule count is at least $(docv).")
  in
  let max_schedules =
    Arg.(value & opt Protocol_arg.count Explore.default_config.Explore.max_schedules
           & info [ "max-schedules" ]
               ~doc:"Explored + pruned schedule budget.")
  in
  let ring =
    Arg.(value & opt Protocol_arg.count Explore.default_config.Explore.ring
           & info [ "ring" ]
               ~doc:"Per-replay trace ring-buffer capacity.")
  in
  let run scenario list_scenarios protocol two_phase naive random json
      gate_reduction max_schedules ring =
    if list_scenarios then begin
      List.iter
        (fun s ->
          Printf.printf "%-10s %s\n" s.Explore.sc_name s.Explore.sc_about)
        Explore.scenarios;
      exit 0
    end;
    let scens =
      if scenario = "all" then Explore.scenarios
      else
        match Explore.find_scenario scenario with
        | Some s -> [ s ]
        | None ->
          Printf.eprintf "unknown scenario %s (try --list)\n" scenario;
          exit 2
    in
    let failed = ref false in
    List.iter
      (fun scen ->
        let cfg =
          { Explore.default_config with
            Explore.protocol; two_phase; naive; max_schedules; ring }
        in
        let o = Explore.explore ~config:cfg scen in
        let baseline =
          if gate_reduction > 0.0 && not naive then
            Some
              (Explore.explore
                 ~config:{ cfg with Explore.naive = true }
                 scen)
          else None
        in
        let reduction =
          match baseline with
          | Some b when o.Explore.o_explored > 0 ->
            Some (float_of_int b.Explore.o_explored
                  /. float_of_int o.Explore.o_explored)
          | _ -> None
        in
        let random_hits =
          if random > 0 then
            let seeds = List.init random (fun i -> i + 1) in
            let runs = Explore.random_runs scen cfg ~seeds in
            Some (List.length (List.filter (fun (_, vs) -> vs <> []) runs))
          else None
        in
        let label =
          Printf.sprintf "%s %s%s%s" scen.Explore.sc_name
            (Protocol.kind_to_string protocol)
            (if two_phase then "+2pc" else "")
            (if naive then " naive" else "")
        in
        if json then begin
          let fopt = function
            | Some r -> Printf.sprintf "%.2f" r
            | None -> "null"
          in
          let iopt = function
            | Some i -> string_of_int i
            | None -> "null"
          in
          Printf.printf
            "{\"scenario\":%s,\"protocol\":%s,\"two_phase\":%b,\
             \"naive\":%b,\"schedules_explored\":%d,\
             \"schedules_pruned\":%d,\"violations\":%d,\"max_depth\":%d,\
             \"truncated\":%b,\"unsound\":%d,\"reduction\":%s,\
             \"random_seeds\":%d,\"random_violating_seeds\":%s,\
             \"violation_detail\":[%s]}\n"
            (Json.string scen.Explore.sc_name)
            (Json.string (Protocol.kind_to_string protocol))
            two_phase naive
            o.Explore.o_explored o.Explore.o_pruned o.Explore.o_violations
            o.Explore.o_max_depth o.Explore.o_truncated
            (List.length o.Explore.o_unsound)
            (fopt reduction) random
            (iopt random_hits)
            (String.concat ","
               (List.concat_map
                  (fun vs ->
                    List.map Checker.violation_json
                      vs.Explore.vs_violations)
                  o.Explore.o_violating))
        end
        else begin
          Format.printf
            "%-28s %d schedule(s) explored, %d pruned, depth %d%s%s@." label
            o.Explore.o_explored o.Explore.o_pruned o.Explore.o_max_depth
            (match reduction with
             | Some r ->
               Printf.sprintf ", %.1fx reduction (naive %d)" r
                 (match baseline with
                  | Some b -> b.Explore.o_explored
                  | None -> 0)
             | None -> "")
            (if o.Explore.o_truncated then " [TRUNCATED]" else "");
          List.iter
            (fun m -> Format.printf "  [commute-unsound] %s@." m)
            o.Explore.o_unsound;
          (match random_hits with
           | Some hits ->
             Format.printf
               "  random baseline: %d/%d seed(s) found a violation@." hits
               random
           | None -> ());
          if o.Explore.o_violations > 0 then begin
            Format.printf "  %d violation(s) in %d schedule(s); first:@."
              o.Explore.o_violations
              (List.length o.Explore.o_violating);
            match o.Explore.o_violating with
            | [] -> ()
            | vs :: _ ->
              Format.printf "  schedule [%s]:@."
                (String.concat "; " (List.map string_of_int vs.Explore.vs_path));
              List.iter
                (fun v -> Format.printf "%a@." Checker.pp_violation v)
                vs.Explore.vs_violations
          end
        end;
        if o.Explore.o_violations > 0 || o.Explore.o_unsound <> [] then
          failed := true;
        (match reduction with
         | Some r when r < gate_reduction ->
           Format.printf "  reduction gate FAILED: %.2f < %.2f@." r
             gate_reduction;
           failed := true
         | _ -> ());
        if o.Explore.o_truncated then begin
          Format.printf "  truncated run cannot certify the schedule space@.";
          failed := true
        end)
      scens;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Model-check a pinned scenario over every inequivalent \
             message-delivery schedule (sleep-set DPOR seeded by the static \
             operation-commutativity analysis), with the invariant checker \
             as oracle; exit non-zero on any violation.")
    Term.(const run $ scenario $ list_scenarios $ protocol_arg $ two_phase
          $ naive $ random $ json $ gate_reduction $ max_schedules
          $ ring)

(* --- cert -------------------------------------------------------------------*)

module Cert = Dtx_cert.Cert

let cert_cmd =
  let max_seconds =
    Arg.(
      value & opt float 60.0
      & info [ "max-seconds" ] ~docv:"S"
          ~doc:
            "Budget for the bounded-universe pass; exceeding it fails \
             certification (the cert-smoke gate).")
  in
  let run max_seconds = exit (Cert.run ~max_seconds ())
  in
  Cmd.v
    (Cmd.info "cert"
       ~doc:
         "Symbolically certify every registered protocol: lock-coverage \
          soundness over a bounded operation universe (with per-protocol \
          precision metrics), exhaustive FSM (state x message-kind) \
          coverage cross-checked against explore-style runs including \
          crash/restart recovery, WAL crash-point recovery mapping, and \
          registry-capability coherence. Prints a JSON report; exits \
          non-zero on any violation.")
    Term.(const run $ max_seconds)

(* --- selftest ---------------------------------------------------------------*)

module Faults = Dtx_faults.Faults

let selftest_cmd =
  let run () =
    let failed = ref false in
    List.iter
      (fun (e : Faults.t) ->
        match Faults.assess e with
        | Ok verdict -> Printf.printf "%-24s %s\n%!" e.name verdict
        | Error why ->
          failed := true;
          Printf.printf "%-24s FAILED: %s\n%!" e.name why)
      Faults.all;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Run every seeded fault of the registry (checker taps, the lattice \
          flip, certifier faults): each must be caught by the check it names, \
          and the same run without the fault must be clean. Exits non-zero \
          otherwise.")
    Term.(const run $ const ())

(* --- experiment -------------------------------------------------------------*)

let experiment_cmd =
  let target =
    Arg.(required & pos 0 (some (enum Experiments.targets)) None
         & info [] ~docv:"TARGET"
             ~doc:("The evaluation to run: "
                   ^ doc_alts_enum Experiments.targets
                   ^ ". $(b,all) prints every figure, $(b,summary) checks \
                      the paper's qualitative claims (exit 1 if one \
                      prints MISMATCH), $(b,ablation) runs the design \
                      ablations."))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced scale.") in
  let export =
    Arg.(value & opt (some string) None & info [ "export" ] ~docv:"DIR"
           ~doc:"Also write each figure as $(docv)/<figure id>.csv.")
  in
  let run target quick export =
    match Experiments.run ?export ~quick Format.std_formatter target with
    | true -> ()
    | false -> exit 1
    | exception Sys_error msg ->
      Printf.eprintf "dtx_cli: cannot export: %s\n" msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run the paper's evaluation: a figure, the qualitative summary \
             or the ablations.")
    Term.(const run $ target $ quick $ export)

let () =
  let doc = "DTX: distributed concurrency control for XML data (reproduction)" in
  let info = Cmd.info "dtx" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; query_cmd; update_cmd; txn_cmd; dataguide_cmd;
            locks_cmd; workload_cmd; scale_cmd; analyze_cmd; chaos_cmd;
            explore_cmd; cert_cmd; selftest_cmd; experiment_cmd ]))
