(* The metric dictionary: every name the bench reports, with its unit.
   Directions and regression bounds live in BENCHMARK.json, the spec every
   later comparison is measured against; the smoke checks that the two
   agree on names and units. *)

type kind =
  | Counted
      (** a pure function of the seed (virtual clock, counts, allocation):
          it repeats exactly, so any change is real *)
  | Timed
      (** wall clock: each input's best pass, the median over inputs,
          reported with its quartiles and extremes so a comparison can
          tell change from noise *)

(* How an end-to-end metric is reported: a counted metric is one value
   (all five fields equal); a timed one is its distribution over inputs. *)
type stat = {
  median : float;
  q1 : float;
  q3 : float;
  lo : float;
  hi : float;
}

let end_to_end =
  [ ("virt_resp_p50_ms", "virt_ms", Counted);
    ("virt_resp_p99_ms", "virt_ms", Counted);
    ("commit_share", "ratio", Counted);
    ("sim_txn_per_s", "txn/s", Timed);
    ("setup_s", "s", Timed);
    ("minor_words_per_txn", "words", Counted);
    ("heap_peak_mb", "MB", Counted) ]

let per_layer =
  [ ("sim.events_per_txn", "count");
    ("sim.ns_per_event", "ns");
    ("sim.ns_per_txn", "ns");
    ("sim.words_per_txn", "words");
    ("msg.msgs_per_txn", "count");
    ("msg.bytes_per_txn", "B");
    ("msg.op_ship_per_txn", "count");
    ("msg.wake_per_txn", "count");
    ("msg.vote_no_per_ktxn", "1/ktxn");
    ("msg.encode_ns", "ns");
    ("msg.decode_ns", "ns");
    ("msg.ns_per_txn", "ns");
    ("msg.words_per_txn", "words");
    ("protocol.derivations_per_txn", "count");
    ("protocol.lock_requests_per_txn", "count");
    ("protocol.cache_hit_ratio", "ratio");
    ("protocol.ns_per_derivation", "ns");
    ("protocol.ns_per_txn", "ns");
    ("protocol.words_per_txn", "words");
    ("locks.acquire_calls_per_txn", "count");
    ("locks.grants_per_txn", "count");
    ("locks.blocked_share", "ratio");
    ("locks.ns_per_acquire", "ns");
    ("locks.ns_per_release_txn", "ns");
    ("locks.ns_per_txn", "ns");
    ("locks.words_per_txn", "words");
    ("wfg.rounds_per_ktxn", "1/ktxn");
    ("wfg.edges_per_round", "count");
    ("wfg.deadlock_aborts_per_ktxn", "1/ktxn");
    ("wfg.ns_per_round", "ns");
    ("wfg.ns_per_txn", "ns");
    ("update.applies_per_txn", "count");
    ("update.undos_per_txn", "count");
    ("update.op_failures_per_ktxn", "1/ktxn");
    ("update.ns_per_apply", "ns");
    ("update.ns_per_undo", "ns");
    ("update.ns_per_txn", "ns");
    ("update.words_per_txn", "words");
    ("xpath.nodes_visited_per_op", "count");
    ("xpath.ns_per_select", "ns");
    ("xpath.ns_per_txn", "ns");
    ("site.ns_per_txn", "ns");
    ("site.words_per_txn", "words");
    ("optimist.lockfree_op_share", "ratio");
    ("optimist.validation_aborts_per_ktxn", "1/ktxn");
    ("core.retries_per_txn", "count");
    ("core.residual_ns_per_txn", "ns");
    ("xmark.generate_s", "s");
    ("frag.fragment_s", "s");
    ("cluster.create_s", "s");
    ("trace.overhead_pct", "%") ]

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) end_to_end with
  | Some (_, u, _) -> Some u
  | None -> List.assoc_opt name per_layer

let kind_of name =
  List.find_map (fun (n, _, k) -> if n = name then Some k else None) end_to_end
