(** The one JSON string escaper every report in the repository writes
    through (checker verdicts, the certifier report, bench snapshots). *)

val string : string -> string
(** [string s] is [s] as a quoted JSON string literal: double quote and
    backslash are backslash-escaped, newline becomes [\n], and every other
    control character becomes a [\uXXXX] escape. *)

val strings : string list -> string
(** A JSON array of {!string} literals, separated by a comma and a space. *)
