type t = IS | IX | SI | SA | SB | ST | X | XT

let all = [ IS; IX; SI; SA; SB; ST; X; XT ]

(* The matrix is symmetric; [compat a b] is spelled out for one triangular
   half and mirrored in [compatible]. Rationale per pair family:
   - X and XT conflict with everything (exclusive node / exclusive tree).
   - ST conflicts with IX (an update intends below the protected subtree)
     and with the insertion-shared locks SI/SA/SB (an insertion updates the
     subtree the ST protects), per the XDGL rules.
   - the shared family (IS, SI, SA, SB) are mutually compatible and
     compatible with IX (intent alone does not touch this node's content). *)
let compat a b =
  match (a, b) with
  | X, _ | _, X | XT, _ | _, XT -> false
  | ST, IX | IX, ST -> false
  | ST, (SI | SA | SB) | (SI | SA | SB), ST -> false
  | ST, (IS | ST) | IS, ST -> true
  | (IS | IX | SI | SA | SB), (IS | IX | SI | SA | SB) -> true

let compatible a b = compat a b

let index = function
  | IS -> 0 | IX -> 1 | SI -> 2 | SA -> 3 | SB -> 4 | ST -> 5 | X -> 6 | XT -> 7

let of_index = function
  | 0 -> IS | 1 -> IX | 2 -> SI | 3 -> SA | 4 -> SB | 5 -> ST | 6 -> X | 7 -> XT
  | i -> invalid_arg (Printf.sprintf "Mode.of_index: %d" i)

let bit m = 1 lsl index m

(* conflict_masks.(index m) has the bit of every mode incompatible with [m]
   set, so "does [m] conflict with any mode in this union of held modes?" is
   one AND against the union mask. Derived from [compat] at module load, so
   the two representations cannot drift apart. *)
let conflict_masks =
  let masks = Array.make 8 0 in
  List.iter
    (fun a ->
      List.iter (fun b -> if not (compat a b) then
          masks.(index a) <- masks.(index a) lor bit b)
        all)
    all;
  masks

let conflict_mask m = conflict_masks.(index m)

let mask_compatible m ~held_mask = conflict_masks.(index m) land held_mask = 0

let is_intention = function IS | IX -> true | _ -> false

let is_exclusive = function X | XT | IX -> true | _ -> false

let intention_for = function
  | X | XT | IX -> IX
  | IS | SI | SA | SB | ST -> IS

let to_string = function
  | IS -> "IS"
  | IX -> "IX"
  | SI -> "SI"
  | SA -> "SA"
  | SB -> "SB"
  | ST -> "ST"
  | X -> "X"
  | XT -> "XT"

let of_string = function
  | "IS" -> Some IS
  | "IX" -> Some IX
  | "SI" -> Some SI
  | "SA" -> Some SA
  | "SB" -> Some SB
  | "ST" -> Some ST
  | "X" -> Some X
  | "XT" -> Some XT
  | _ -> None

let pp ppf m = Format.pp_print_string ppf (to_string m)
