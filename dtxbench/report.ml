(* Rendering a measured workload: the human table (every metric by name,
   with its unit), the flat result fields, and the one-line JSON summary. *)

let unit_of name = Option.value (Metrics.unit_of name) ~default:"?"

let print ppf (r : Measure.result) =
  Format.fprintf ppf
    "== %s (seed %d, %d inputs x %d passes, %d txns attempted, %d failed) ==@."
    r.Measure.workload r.Measure.seed r.Measure.inputs r.Measure.passes
    r.Measure.attempted r.Measure.failed;
  List.iter
    (fun (name, (s : Metrics.stat)) ->
      match Metrics.kind_of name with
      | Some Metrics.Timed ->
        Format.fprintf ppf "  %-36s %14.6g %-10s median; q1 %.6g, q3 %.6g@." name
          s.Metrics.median (unit_of name) s.Metrics.q1 s.Metrics.q3
      | _ ->
        Format.fprintf ppf "  %-36s %14.6g %s@." name s.Metrics.median (unit_of name))
    r.Measure.end_to_end;
  Format.fprintf ppf "  %-36s %14d committed responses pooled@." "virt_resp samples"
    r.Measure.resp_samples;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-36s %14.6g %s@." name v (unit_of name))
    r.Measure.per_layer;
  List.iter (fun e -> Format.fprintf ppf "  CHECK FAILED: %s@." e) r.Measure.errors

(* "<workload>/<metric>" holds the median; timed metrics add their
   quartiles and extremes over inputs, which [Compare] needs to tell
   change from noise. *)
let fields (r : Measure.result) =
  let key name = r.Measure.workload ^ "/" ^ name in
  let num v = Json.Num v in
  List.concat_map
    (fun (name, (s : Metrics.stat)) ->
      let k = key name in
      match Metrics.kind_of name with
      | Some Metrics.Timed ->
        [ (k, num s.Metrics.median); (k ^ "/q1", num s.Metrics.q1);
          (k ^ "/q3", num s.Metrics.q3); (k ^ "/min", num s.Metrics.lo);
          (k ^ "/max", num s.Metrics.hi) ]
      | _ -> [ (k, num s.Metrics.median) ])
    r.Measure.end_to_end
  @ List.map (fun (name, v) -> (key name, num v)) r.Measure.per_layer
  @ [ (key "inputs", num (float_of_int r.Measure.inputs));
      (key "passes", num (float_of_int r.Measure.passes));
      (key "attempted", num (float_of_int r.Measure.attempted));
      (key "failed", num (float_of_int r.Measure.failed));
      (key "virt_resp_samples", num (float_of_int r.Measure.resp_samples));
      (key "correct", Json.Bool (r.Measure.errors = [])) ]

(* The summary line: end-to-end medians, or the per-layer metrics of a
   traced run. *)
let summary (r : Measure.result) ~trace =
  let metrics =
    if trace then r.Measure.per_layer
    else List.map (fun (n, (s : Metrics.stat)) -> (n, s.Metrics.median)) r.Measure.end_to_end
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.Measure.errors = []));
         ("attempted", Json.Num (float_of_int r.Measure.attempted));
         ("failed", Json.Num (float_of_int r.Measure.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v) ->
                  (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ]))
                metrics) ) ])
