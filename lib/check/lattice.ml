module Mode = Dtx_locks.Mode

(* The set of modes a mode conflicts with, as a bitmask computed from the
   compatibility predicate alone (never from [conflict_mask], which is one
   of the things under test). *)
let conflict_set compat m =
  List.fold_left
    (fun acc m' -> if compat m m' then acc else acc lor Mode.bit m')
    0 Mode.all

let subset a b = a land lnot b = 0

let pp_mask ppf mask =
  let names =
    List.filter_map
      (fun m -> if mask land Mode.bit m <> 0 then Some (Mode.to_string m) else None)
      Mode.all
  in
  Format.fprintf ppf "{%s}" (String.concat "," names)

let check_with ~compat ~conflict_mask ~intention_for () =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  (* 1. Symmetry: lock compatibility is an undirected relation. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if compat a b <> compat b a then
            err "compat not symmetric on (%s, %s): %b vs %b" (Mode.to_string a)
              (Mode.to_string b) (compat a b) (compat b a))
        Mode.all)
    Mode.all;
  (* 2. The derived bitmasks agree with the predicate on all 64 pairs —
     the lock table's fast path answers exactly what the slow path would. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let masked = conflict_mask a land Mode.bit b <> 0 in
          if masked = compat a b then
            err "conflict_mask disagrees with compat on (%s, %s)"
              (Mode.to_string a) (Mode.to_string b))
        Mode.all)
    Mode.all;
  (* 3. Exclusive modes conflict with everything (XDGL: X guards a modified
     node, XT a modified subtree). *)
  List.iter
    (fun x ->
      List.iter
        (fun m ->
          if compat x m then
            err "%s must conflict with every mode, but is compatible with %s"
              (Mode.to_string x) (Mode.to_string m))
        Mode.all)
    [ Mode.X; Mode.XT ];
  (* 4. IS is the weakest mode: compatible with everything except X/XT. *)
  List.iter
    (fun m ->
      let expected = m <> Mode.X && m <> Mode.XT in
      if compat Mode.IS m <> expected then
        err "IS vs %s: expected %s" (Mode.to_string m)
          (if expected then "compatible" else "conflicting"))
    Mode.all;
  (* 5. Intention hierarchy. IS <= IX (an IX holder announces at least as
     much as an IS holder), and every mode's required ancestor intention is
     no stronger than the mode itself: conflicts(intention_for m) is a
     subset of conflicts(m), otherwise escorting a lock up the DataGuide
     could block where the lock itself would not. *)
  let conflicts m = conflict_set compat m in
  if not (subset (conflicts Mode.IS) (conflicts Mode.IX)) then
    err "hierarchy: conflicts(IS)=%a not within conflicts(IX)=%a" pp_mask
      (conflicts Mode.IS) pp_mask (conflicts Mode.IX);
  List.iter
    (fun m ->
      let i = intention_for m in
      if not (Mode.is_intention i) then
        err "intention_for %s = %s is not an intention mode" (Mode.to_string m)
          (Mode.to_string i);
      if not (subset (conflicts i) (conflicts m)) then
        err "hierarchy: conflicts(%s)=%a not within conflicts(%s)=%a"
          (Mode.to_string i) pp_mask (conflicts i) (Mode.to_string m) pp_mask
          (conflicts m))
    Mode.all;
  match List.rev !errors with [] -> Ok () | es -> Error es

let check () =
  check_with ~compat:Mode.compatible ~conflict_mask:Mode.conflict_mask
    ~intention_for:Mode.intention_for ()

let st_ix_flipped a b =
  match (a, b) with
  | Mode.ST, Mode.IX | Mode.IX, Mode.ST -> true
  | _ -> Mode.compatible a b
