(* Shared Cmdliner plumbing: protocol selection, driven entirely by
   {!Dtx_protocol.Protocol.all} and its name lookup so every protocol shows
   up in every subcommand (workload/scale/explore pick one; analyze/chaos
   sweep a matrix) without touching this file, and the range-checked
   numeric arguments the subcommands share. *)

open Cmdliner
module Protocol = Dtx_protocol.Protocol
module Generator = Dtx_xmark.Generator

(* Counts and sizes are checked where they are parsed, so an out-of-range
   value ends in a usage error naming the option rather than an uncaught
   exception deep in the run. *)

let int_where ok what =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.int s with
        | Ok n when ok n -> Ok n
        | Ok n -> Error (`Msg (Printf.sprintf "%d is not %s" n what))
        | Error _ as e -> e),
      Format.pp_print_int )

let count = int_where (fun n -> n > 0) "a positive count"
let non_negative = int_where (fun n -> n >= 0) "a non-negative count"

let percent =
  int_where (fun n -> n >= 0 && n <= 100) "a percentage between 0 and 100"

(* A sweep over an empty list would pass having checked nothing. *)
let seeds =
  let ints = Arg.list Arg.int in
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser ints s with
        | Ok [] -> Error (`Msg "expected at least one seed")
        | r -> r),
      Arg.conv_printer ints )

let positive_ms =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.float s with
        | Ok ms when Float.is_finite ms && ms > 0.0 -> Ok ms
        | Ok _ ->
          Error (`Msg (Printf.sprintf "%s is not a positive duration in ms" s))
        | Error _ as e -> e),
      Format.pp_print_float )

let mb =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.float s with
        | Ok mb when Float.is_finite mb && mb >= Generator.min_mb -> Ok mb
        | Ok _ ->
          Error
            (`Msg
               (Printf.sprintf "%s is not a size of at least %g paper-MB" s
                  Generator.min_mb))
        | Error _ as e -> e),
      Format.pp_print_float )

let names () =
  List.map
    (fun k -> String.lowercase_ascii (Protocol.kind_to_string k))
    Protocol.all

let kind_conv =
  Arg.conv
    ( (fun s ->
        match Protocol.kind_of_string s with
        | Some k -> Ok k
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown protocol %s (expected one of %s)" s
                  (String.concat ", " (names ())))) ),
      fun ppf k -> Format.pp_print_string ppf (Protocol.kind_to_string k) )

let arg =
  let doc =
    Printf.sprintf "Concurrency-control protocol: %s."
      (String.concat ", " (names ()))
  in
  Arg.(value & opt kind_conv Protocol.xdgl & info [ "protocol" ] ~docv:"PROTO" ~doc)

(* A config is a protocol plus the commit flavour. The sweep default is every
   protocol one-phase, plus the two 2PC flavours the test matrix has always
   certified (XDGL) or that need 2PC coverage most (Commute's
   validate-then-prepare ordering). *)

type config = Protocol.kind * bool

let default_configs () =
  List.map (fun k -> (k, false)) Protocol.all
  @ [ (Protocol.xdgl, true); (Protocol.commute, true) ]

let config_to_string (k, two_phase) =
  Protocol.kind_to_string k ^ if two_phase then "+2pc" else ""

let parse_config s =
  (* "+2pc" is a case-insensitive suffix check: protocol names themselves
     may contain '+' ("XDGL+VL"). *)
  let suffix = "+2pc" in
  let n = String.length s - String.length suffix in
  let base, two_phase =
    if
      n > 0
      && String.lowercase_ascii (String.sub s n (String.length suffix)) = suffix
    then (String.sub s 0 n, true)
    else (s, false)
  in
  match Protocol.kind_of_string base with
  | None ->
    Error
      (`Msg
         (Printf.sprintf "unknown protocol %s (expected one of %s)" base
            (String.concat ", " (names ()))))
  | Some k -> Ok (k, two_phase)

let parse_configs s =
  if String.lowercase_ascii (String.trim s) = "all" then
    Ok (default_configs ())
  else
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.fold_left
         (fun acc spec ->
           match (acc, parse_config spec) with
           | Error _, _ -> acc
           | _, (Error _ as e) -> e
           | Ok cs, Ok c ->
             (* A duplicated config would silently double a sweep's runs
                (and its runtime); refuse rather than dedup, so a typo in a
                long --protocols list is visible. *)
             if List.mem c cs then
               Error
                 (`Msg
                    (Printf.sprintf "duplicate protocol config %s"
                       (config_to_string c)))
             else Ok (cs @ [ c ]))
         (Ok [])
    |> function
    | Ok [] -> Error (`Msg "expected at least one protocol config")
    | r -> r

let configs_conv =
  Arg.conv
    ( parse_configs,
      fun ppf cs ->
        Format.pp_print_string ppf
          (String.concat "," (List.map config_to_string cs)) )

let configs_arg =
  let doc =
    Printf.sprintf
      "Protocol configurations to sweep: comma-separated $(i,NAME)[+2pc] \
       specs (%s), or $(b,all) for every protocol plus the 2PC \
       flavours."
      (String.concat ", " (names ()))
  in
  Arg.(
    value
    & opt configs_conv (default_configs ())
    & info [ "protocols" ] ~docv:"CONFIGS" ~doc)
