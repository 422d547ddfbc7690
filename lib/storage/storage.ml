module Doc = Dtx_xml.Doc
module Printer = Dtx_xml.Printer
module Xml_parser = Dtx_xml.Parser

type t =
  | Memory of (string, Doc.t) Hashtbl.t
  | Filesystem of string  (* directory *)

let memory () = Memory (Hashtbl.create 16)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Document names may contain characters unfit for file names; hex-escape
   everything outside [A-Za-z0-9._-]. *)
let encode_name name =
  let buf = Buffer.create (String.length name) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' ->
        Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    name;
  Buffer.contents buf

(* The inverse of [encode_name] on the names it produces; [None] for any
   other file name (a stray file in the store's directory). *)
let decode_name enc =
  let n = String.length enc in
  let buf = Buffer.create n in
  let rec loop i =
    if i >= n then Some (Buffer.contents buf)
    else if enc.[i] <> '%' then begin
      Buffer.add_char buf enc.[i];
      loop (i + 1)
    end
    else if i + 2 < n then
      match int_of_string_opt ("0x" ^ String.sub enc (i + 1) 2) with
      | Some code ->
        Buffer.add_char buf (Char.chr code);
        loop (i + 3)
      | _ -> None
    else None
  in
  match loop 0 with
  | Some name when encode_name name = enc -> Some name
  | _ -> None

let path_of dir name = Filename.concat dir (encode_name name ^ ".xml")

let filesystem ~dir =
  mkdir_p dir;
  Filesystem dir

let list t =
  match t with
  | Memory tbl -> Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare
  | Filesystem dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if Filename.check_suffix f ".xml" then
             decode_name (Filename.chop_suffix f ".xml")
           else None)
    |> List.sort compare

let load t name =
  match t with
  | Memory tbl -> (
    match Hashtbl.find_opt tbl name with
    | Some doc -> Some (Doc.clone doc)
    | None -> None)
  | Filesystem dir ->
    let file = path_of dir name in
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let content = really_input_string ic len in
      close_in ic;
      Some (Xml_parser.parse ~name content)
    end
    else None

let store t doc =
  match t with
  | Memory tbl -> Hashtbl.replace tbl doc.Doc.name (Doc.clone doc)
  | Filesystem dir ->
    let file = path_of dir doc.Doc.name in
    let oc = open_out_bin file in
    output_string oc (Printer.to_string ~indent:true doc);
    close_out oc

let remove t name =
  match t with
  | Memory tbl -> Hashtbl.remove tbl name
  | Filesystem dir ->
    let file = path_of dir name in
    if Sys.file_exists file then Sys.remove file

let mem t name =
  match t with
  | Memory tbl -> Hashtbl.mem tbl name
  | Filesystem dir -> Sys.file_exists (path_of dir name)
