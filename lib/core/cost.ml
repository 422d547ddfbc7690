type t = {
  lock_request_ms : float;
  node_touch_ms : float;
  sched_ms : float;
  persist_node_ms : float;
  result_bytes_per_node : int;
}

let default =
  { lock_request_ms = 0.012;
    node_touch_ms = 0.002;
    sched_ms = 0.05;
    persist_node_ms = 0.001;
    result_bytes_per_node = 64 }
