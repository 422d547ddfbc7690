(* [dtxbench compare BASE NEW]: judge each end-to-end metric of each
   workload against the direction and bound BENCHMARK.json gives it.

   - Counted metrics repeat exactly for a seed, so they are compared as
     they are: equal is "=", any difference is reported with its share, and
     a worsening beyond the bound is a regression.
   - Timed metrics carry their spread over inputs, (q3 - q1) / median.
     When either run's spread exceeds the bound, the two runs cannot
     resolve a change of that size: the metric is "unresolved" — unless
     every input of NEW reads better than every input of BASE. Otherwise a
     median worsening beyond the bound is a regression. *)

type direction = Lower | Higher

type bound = { direction : direction; share : float }

type verdict =
  | Same
  | Better of float  (** share improved *)
  | Worse of float  (** share worsened, within the bound *)
  | Regressed of float  (** share worsened beyond the bound *)
  | Unresolved of float  (** median change, but spread wider than the bound *)

(* The share by which [now] is worse than [base]: positive is worse. *)
let worsening direction ~base ~now =
  let d = if base = 0.0 then now -. base else (now -. base) /. Float.abs base in
  match direction with Lower -> d | Higher -> -.d

let spread (r : Metrics.stat) =
  if r.median = 0.0 then 0.0 else (r.q3 -. r.q1) /. Float.abs r.median

let judge (kind : Metrics.kind) b ~(base : Metrics.stat) ~(now : Metrics.stat) =
  let w = worsening b.direction ~base:base.median ~now:now.median in
  match kind with
  | Metrics.Counted ->
    if now.median = base.median then Same
    else if w > b.share then Regressed w
    else if w > 0.0 then Worse w
    else Better (-.w)
  | Metrics.Timed ->
    let all_better =
      match b.direction with Lower -> now.hi < base.lo | Higher -> now.lo > base.hi
    in
    if all_better then Better (-.w)
    else if spread base > b.share || spread now > b.share then Unresolved w
    else if w > b.share then Regressed w
    else if w > 0.0 then Worse w
    else if w < 0.0 then Better (-.w)
    else Same

let cell = function
  | Same -> "="
  | Better s -> Printf.sprintf "+%.2f%%" (100.0 *. s)
  | Worse s -> Printf.sprintf "-%.2f%%" (100.0 *. s)
  | Regressed s -> Printf.sprintf "REGRESSED -%.2f%%" (100.0 *. s)
  | Unresolved s -> Printf.sprintf "unresolved (%+.2f%%)" (-100.0 *. s)

(* ------------------------------------------------------------------ *)
(* Reading BENCHMARK.json and result files                             *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let bounds_of_spec spec =
  match Json.member "end_to_end" spec with
  | Some (Json.Arr items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match
          (Json.member "name" item, Json.member "better" item, Json.member "bound" item)
        with
        | Some (Json.Str name), Some (Json.Str better), Some (Json.Num share) -> (
          match better with
          | "lower" -> Ok ((name, { direction = Lower; share }) :: acc)
          | "higher" -> Ok ((name, { direction = Higher; share }) :: acc)
          | other -> Error (Printf.sprintf "%s: better = %S" name other))
        | _ -> Error "an end_to_end entry lacks name, better or bound")
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "BENCHMARK.json has no end_to_end list"

(* A result file is one flat object: "<workload>/<metric>" holds the
   median, and timed metrics add "/q1", "/q3", "/min" and "/max". *)
let reading fields key =
  let num k = match List.assoc_opt k fields with Some (Json.Num f) -> Some f | _ -> None in
  match num key with
  | None -> None
  | Some median ->
    let or_median k = Option.value (num (key ^ "/" ^ k)) ~default:median in
    Some
      { Metrics.median; q1 = or_median "q1"; q3 = or_median "q3";
        lo = or_median "min"; hi = or_median "max" }

let workloads_of fields =
  match List.assoc_opt "workloads" fields with
  | Some (Json.Str s) -> List.filter (( <> ) "") (String.split_on_char ',' s)
  | _ -> []

type row = { workload : string; cells : (string * verdict option) list }

let rows ~bounds ~base ~now =
  List.map
    (fun workload ->
      { workload;
        cells =
          List.map
            (fun (name, b) ->
              let key = workload ^ "/" ^ name in
              let v =
                match (Metrics.kind_of name, reading base key, reading now key) with
                | Some kind, Some rb, Some rn -> Some (judge kind b ~base:rb ~now:rn)
                | _ -> None
              in
              (name, v))
            bounds })
    (workloads_of base)

let regressions rows =
  List.concat_map
    (fun r ->
      List.filter_map
        (function name, Some (Regressed s) -> Some (r.workload, name, s) | _ -> None)
        r.cells)
    rows

let unresolved rows =
  List.concat_map
    (fun r ->
      List.filter_map
        (function name, Some (Unresolved _) -> Some (r.workload, name) | _ -> None)
        r.cells)
    rows

let print_rows ppf rows =
  List.iter
    (fun r ->
      Format.fprintf ppf "%-18s %s@." r.workload
        (String.concat "  "
           (List.map
              (fun (name, v) ->
                name ^ " " ^ match v with Some v -> cell v | None -> "missing")
              r.cells)))
    rows
