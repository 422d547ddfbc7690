(* One workload, measured: the rounds, the checks, the traced round and the
   replays, reduced to the metric dictionary.

   A run measures K inputs, input k at seed [Workloads.sub_seed ~seed k]:
   - an untimed warm-up on the workload's tiny version;
   - passes over the K inputs, untraced, one round per input per pass, as
     many as fit the time budget and at least two. Passes run one after
     the other, so the rounds of one input lie a whole pass apart and one
     slow phase of a shared host rarely covers them all. Each later pass
     must repeat the first pass's counted figures exactly;
   - counted metrics pool the first pass's K rounds (their responses,
     commits and allocations): the virtual figures of one generated input
     vary a lot from seed to seed, and pooling K inputs is what makes a
     run's figures steady;
   - timed metrics take each input's best pass — interference only adds
     time — and report the median over inputs;
   - a checked round at input 0's seed with the execution history on (the
     traced round when [trace] is set). Its history must be
     conflict-serializable and its counted figures must repeat input 0's
     exactly — the history and the tracer observe, they must not steer.
   Every round must also account for each planned transaction. *)

module Workload = Dtx_workload.Workload
module Cluster = Dtx.Cluster
module Sim = Dtx_sim.Sim
module Net = Dtx_net.Net
module Msg = Dtx_net.Msg
module Stats = Dtx_util.Stats
module Vec = Dtx_util.Vec
module Generator = Dtx_xmark.Generator
module Fragment = Dtx_frag.Fragment
module Allocation = Dtx_frag.Allocation

let constant v = { Metrics.median = v; q1 = v; q3 = v; lo = v; hi = v }

let stat_of values =
  let a = Array.of_list values in
  Array.sort compare a;
  let p = Stats.percentile a in
  { Metrics.median = p 0.5; q1 = p 0.25; q3 = p 0.75; lo = a.(0);
    hi = a.(Array.length a - 1) }

type result = {
  workload : string;
  seed : int;
  inputs : int;
  passes : int;
  end_to_end : (string * Metrics.stat) list;  (** in [Metrics.end_to_end] order *)
  per_layer : (string * float) list;  (** empty unless traced *)
  attempted : int;  (** planned transactions over all timed rounds *)
  failed : int;  (** transactions that ended Failed (an abort that could not complete) *)
  resp_samples : int;  (** pooled committed responses behind the percentiles *)
  errors : string list;  (** failed self-checks; empty when correct *)
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let per n x = ratio x (float_of_int n)

let percentile values q =
  let a = Array.copy values in
  Array.sort compare a;
  if a = [||] then 0.0 else Stats.percentile a q

(* ------------------------------------------------------------------ *)
(* Set-up, split into its parts                                        *)
(* ------------------------------------------------------------------ *)

(* [Workload.build_database] and the start of [Workload.run], step by step
   with the same inputs, so each part of [setup_s] gets its own clock. *)
let setup_parts (p : Workload.params) =
  let t0 = Clock.now_s () in
  let base =
    Generator.generate ~name:"xmark"
      (Generator.params_of_mb ~seed:(p.Workload.seed + 1) p.Workload.base_size_mb)
  in
  let t1 = Clock.now_s () in
  let parts =
    if p.Workload.n_fragments > 0 then p.Workload.n_fragments else p.Workload.n_sites
  in
  let fragments = Fragment.fragment base ~parts in
  let t2 = Clock.now_s () in
  let placements =
    Allocation.allocate ~n_sites:p.Workload.n_sites p.Workload.replication fragments
  in
  let sim = Sim.create () in
  let net = Net.of_config ~sim p.Workload.net_config in
  let config =
    { Cluster.protocol = p.Workload.protocol;
      cost = p.Workload.cost;
      deadlock_period_ms = p.Workload.deadlock_period_ms;
      storage = `Memory;
      commit =
        (if p.Workload.two_phase_commit then Cluster.Two_phase else Cluster.One_phase);
      deadlock_policy = p.Workload.deadlock_policy;
      op_timeout_ms = p.Workload.op_timeout_ms;
      retransmit_ms = p.Workload.retransmit_ms;
      txn_timeout_ms = p.Workload.txn_timeout_ms }
  in
  let t3 = Clock.now_s () in
  ignore (Cluster.create ~sim ~net ~n_sites:p.Workload.n_sites config ~placements);
  let t4 = Clock.now_s () in
  [ ("xmark.generate_s", t1 -. t0);
    ("frag.fragment_s", t2 -. t1);
    ("cluster.create_s", t4 -. t3) ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the traced round                             *)
(* ------------------------------------------------------------------ *)

let layer_metrics (p : Workload.params) (tr : Trace.t) ~untraced_ns_per_txn
    ~round0_run_s =
  let r = tr.Trace.round in
  let c = r.Round.committed in
  let per_txn x = per c x in
  let per_ktxn n = per c (1000.0 *. float_of_int n) in
  let ns = Clock.ns_net in
  let words (m : Clock.meter) = m.Clock.words in
  let calls (m : Clock.meter) = float_of_int m.Clock.calls in
  let site = Replay.site_pass p tr in
  let mt, counts = Replay.split_pass p tr in
  let xpath, visited = Replay.xpath_pass tr site.Replay.processed in
  let msg = Replay.msg_pass tr in
  let sim = Replay.sim_pass tr in
  let wfg, wfg_rounds, wfg_edges = Replay.wfg_pass tr in
  let count_sent f =
    Vec.fold_left (fun n (_, _, m) -> if f m then n + 1 else n) 0 tr.Trace.sent
  in
  let shipped, optimistic =
    Hashtbl.fold
      (fun _ (_, ops) (n, o) ->
        ( n + List.length ops,
          o + List.length (List.filter (fun (s : Msg.shipment) -> s.Msg.s_optimistic) ops) ))
      tr.Trace.ships (0, 0)
  in
  let ticks = Vec.length tr.Trace.tick_times in
  let derivations = site.Replay.cache_hits + site.Replay.cache_misses in
  let locks_ns = ns mt.Replay.acquire +. ns mt.Replay.release_txn +. ns mt.Replay.locks_other in
  let locks_words =
    words mt.Replay.acquire +. words mt.Replay.release_txn +. words mt.Replay.locks_other
  in
  let update_ns = ns mt.Replay.apply +. ns mt.Replay.undo +. ns mt.Replay.note in
  let update_words = words mt.Replay.apply +. words mt.Replay.undo +. words mt.Replay.note in
  let site_ns_txn = per_txn (ns site.Replay.site_meter) in
  let msg_ns_txn = per_txn (ns msg.Replay.size_meter) in
  let sim_ns_txn = per_txn (ns sim) in
  let wfg_ns_txn = per_txn (ns wfg) in
  [ ("sim.events_per_txn", per_txn (float_of_int ticks));
    ("sim.ns_per_event", per ticks (ns sim));
    ("sim.ns_per_txn", sim_ns_txn);
    ("sim.words_per_txn", per_txn (words sim));
    ("msg.msgs_per_txn", per_txn (float_of_int r.Round.messages));
    ("msg.bytes_per_txn", per_txn (float_of_int r.Round.net_bytes));
    ( "msg.op_ship_per_txn",
      per_txn (float_of_int (count_sent (function Msg.Op_ship _ -> true | _ -> false))) );
    ( "msg.wake_per_txn",
      per_txn (float_of_int (count_sent (function Msg.Wake _ -> true | _ -> false))) );
    ( "msg.vote_no_per_ktxn",
      per_ktxn (count_sent (function Msg.Vote { ok = false; _ } -> true | _ -> false)) );
    ("msg.encode_ns", per msg.Replay.n_msgs (ns msg.Replay.encode_meter));
    ("msg.decode_ns", per msg.Replay.n_msgs (ns msg.Replay.decode_meter));
    ("msg.ns_per_txn", msg_ns_txn);
    ("msg.words_per_txn", per_txn (words msg.Replay.size_meter));
    ("protocol.derivations_per_txn", per_txn (float_of_int derivations));
    ("protocol.lock_requests_per_txn", per_txn (float_of_int r.Round.lock_requests));
    ("protocol.cache_hit_ratio", per derivations (float_of_int site.Replay.cache_hits));
    ("protocol.ns_per_derivation", ratio (ns mt.Replay.derive) (calls mt.Replay.derive));
    ("protocol.ns_per_txn", per_txn (ns mt.Replay.derive));
    ("protocol.words_per_txn", per_txn (words mt.Replay.derive));
    ("locks.acquire_calls_per_txn", per_txn (calls mt.Replay.acquire));
    ("locks.grants_per_txn", per_txn (float_of_int counts.Replay.grants));
    ("locks.blocked_share", ratio (float_of_int counts.Replay.blocked) (calls mt.Replay.acquire));
    ("locks.ns_per_acquire", ratio (ns mt.Replay.acquire) (calls mt.Replay.acquire));
    ("locks.ns_per_release_txn", ratio (ns mt.Replay.release_txn) (calls mt.Replay.release_txn));
    ("locks.ns_per_txn", per_txn locks_ns);
    ("locks.words_per_txn", per_txn locks_words);
    ("wfg.rounds_per_ktxn", per_ktxn wfg_rounds);
    ("wfg.edges_per_round", per wfg_rounds (float_of_int wfg_edges));
    ("wfg.deadlock_aborts_per_ktxn", per_ktxn r.Round.deadlock_aborts);
    ("wfg.ns_per_round", per wfg_rounds (ns wfg));
    ("wfg.ns_per_txn", wfg_ns_txn);
    ("update.applies_per_txn", per_txn (calls mt.Replay.apply));
    ("update.undos_per_txn", per_txn (calls mt.Replay.undo));
    ("update.op_failures_per_ktxn", per_ktxn counts.Replay.op_failures);
    ("update.ns_per_apply", ratio (ns mt.Replay.apply) (calls mt.Replay.apply));
    ("update.ns_per_undo", ratio (ns mt.Replay.undo) (calls mt.Replay.undo));
    ("update.ns_per_txn", per_txn update_ns);
    ("update.words_per_txn", per_txn update_words);
    ("xpath.nodes_visited_per_op", per (Vec.length site.Replay.processed) (float_of_int visited));
    ("xpath.ns_per_select", ratio (ns xpath) (calls xpath));
    ("xpath.ns_per_txn", per_txn (ns xpath));
    ("site.ns_per_txn", site_ns_txn);
    ("site.words_per_txn", per_txn (words site.Replay.site_meter));
    ("optimist.lockfree_op_share", per shipped (float_of_int optimistic));
    ("optimist.validation_aborts_per_ktxn", per_ktxn r.Round.validation_aborts);
    ("core.retries_per_txn", per_txn (float_of_int (r.Round.submitted - r.Round.planned)));
    ( "core.residual_ns_per_txn",
      untraced_ns_per_txn -. (site_ns_txn +. msg_ns_txn +. sim_ns_txn +. wfg_ns_txn) ) ]
  @ setup_parts p
  @ [ ("trace.overhead_pct", 100.0 *. ((r.Round.run_s /. round0_run_s) -. 1.0)) ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

(* At least two passes, so every input has a repeat; more while the next
   pass and the checked round, at the mean round time so far, still end
   within [seconds] of the start. *)
let min_passes = 2

let run ?(smoke = false) (w : Workloads.t) ~seed ~inputs ~seconds ~trace =
  if inputs < 1 then invalid_arg "Measure.run: inputs < 1";
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let base = if smoke then w.Workloads.smoke else w.Workloads.params in
  let params k = { base with Workload.seed = Workloads.sub_seed ~seed k } in
  let p0 = params 0 in
  let check_round label (r : Round.t) =
    match Round.accounting_error ~retries:base.Workload.retries r with
    | Some e -> error "%s: %s" label e
    | None -> ()
  in
  let t_start = Clock.now_s () in
  (* Warm the code paths and the heap on the tiny version first, so input 0
     is not the only input paying for them. *)
  ignore (Round.run { w.Workloads.smoke with Workload.seed = p0.Workload.seed });
  let t_passes = Clock.now_s () in
  let first =
    Array.init inputs (fun k ->
        let r, _ = Round.run (params k) in
        check_round (Printf.sprintf "input %d" k) r;
        r)
  in
  (* The peak after one pass is a function of the seed; later passes only
     add the allocator's fragmentation. *)
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let best_run = Array.map (fun r -> r.Round.run_s) first in
  let best_setup = Array.map (fun r -> r.Round.setup_s) first in
  let rec more_passes done_ =
    let now = Clock.now_s () in
    let round_s = (now -. t_passes) /. float_of_int (done_ * inputs) in
    if done_ < min_passes
       || now -. t_start +. (round_s *. float_of_int (inputs + 1)) <= seconds
    then begin
      let pass = done_ + 1 in
      Array.iteri
        (fun k r1 ->
          let r, _ = Round.run (params k) in
          if Round.fingerprint r <> Round.fingerprint r1 then
            error "input %d: pass %d differs from pass 1" k pass;
          best_run.(k) <- Float.min best_run.(k) r.Round.run_s;
          best_setup.(k) <- Float.min best_setup.(k) r.Round.setup_s)
        first;
      more_passes pass
    end
    else done_
  in
  let passes = more_passes 1 in
  let timed = Array.to_list first in
  let r0 = first.(0) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 timed in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 timed in
  let committed = sum (fun r -> r.Round.committed) in
  let responses = Array.concat (List.map (fun r -> r.Round.responses) timed) in
  let best_stat f = stat_of (List.mapi (fun k r -> f r best_run.(k)) timed) in
  let (checked, serializable), per_layer =
    if trace then begin
      let tr = Trace.run p0 in
      let untraced_ns_per_txn =
        (best_stat (fun r run_s -> run_s *. 1e9 /. float_of_int r.Round.committed))
          .Metrics.median
      in
      let layers =
        match
          layer_metrics p0 tr ~untraced_ns_per_txn ~round0_run_s:best_run.(0)
        with
        | layers -> layers
        | exception Replay.Infidelity e -> error "replay: %s" e; []
      in
      ((tr.Trace.round, tr.Trace.serializable), layers)
    end
    else begin
      let r, cluster =
        Round.run ~instrument:(fun c -> ignore (Cluster.enable_history c)) p0
      in
      ((r, Cluster.check_serializable cluster), [])
    end
  in
  check_round "checked round" checked;
  if Round.fingerprint checked <> Round.fingerprint r0 then
    error "the %s round differs from input 0 at the same seed"
      (if trace then "traced" else "history");
  (match serializable with
   | Ok () -> ()
   | Error e -> error "history not conflict-serializable: %s" e);
  let end_to_end =
    [ ("virt_resp_p50_ms", constant (percentile responses 0.5));
      ("virt_resp_p99_ms", constant (percentile responses 0.99));
      ("commit_share", constant (per (sum (fun r -> r.Round.planned)) (float_of_int committed)));
      ("sim_txn_per_s", best_stat (fun r run_s -> float_of_int r.Round.committed /. run_s));
      ("setup_s", stat_of (Array.to_list best_setup));
      ("minor_words_per_txn", constant (per committed (sumf (fun r -> r.Round.run_words))));
      ("heap_peak_mb", constant heap_mb) ]
  in
  { workload = w.Workloads.name;
    seed;
    inputs;
    passes;
    end_to_end;
    per_layer;
    attempted = passes * sum (fun r -> r.Round.planned);
    failed = passes * sum (fun r -> r.Round.failed);
    resp_samples = Array.length responses;
    errors = List.rev !errors }
