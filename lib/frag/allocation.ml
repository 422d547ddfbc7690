module Doc = Dtx_xml.Doc

type replication = Total | Partial of { copies : int }

let replication_to_string = function
  | Total -> "total"
  | Partial { copies } -> Printf.sprintf "partial(x%d)" copies

type placement = {
  doc : Doc.t;
  sites : int list;
}

let allocate ~n_sites replication docs =
  if n_sites < 1 then invalid_arg "Allocation.allocate: n_sites < 1";
  let all_sites = List.init n_sites (fun i -> i) in
  match replication with
  | Total -> List.map (fun doc -> { doc; sites = all_sites }) docs
  | Partial { copies } ->
    if copies < 1 || copies > n_sites then
      invalid_arg "Allocation.allocate: copies out of range";
    List.mapi
      (fun i doc ->
        let sites =
          List.init copies (fun k -> (i + k) mod n_sites) |> List.sort_uniq compare
        in
        { doc; sites })
      docs

type catalog = {
  by_doc : (string, int list) Hashtbl.t;
  by_site : (int, string list ref) Hashtbl.t;
}

let catalog placements =
  let c = { by_doc = Hashtbl.create 16; by_site = Hashtbl.create 8 } in
  List.iter
    (fun p ->
      Hashtbl.replace c.by_doc p.doc.Doc.name p.sites;
      List.iter
        (fun s ->
          match Hashtbl.find_opt c.by_site s with
          | Some l -> l := p.doc.Doc.name :: !l
          | None -> Hashtbl.replace c.by_site s (ref [ p.doc.Doc.name ]))
        p.sites)
    placements;
  c

let sites_of c name =
  match Hashtbl.find_opt c.by_doc name with Some l -> l | None -> []

let docs_at c site =
  match Hashtbl.find_opt c.by_site site with
  | Some l -> List.sort compare !l
  | None -> []

let all_docs c =
  Hashtbl.fold (fun name _ acc -> name :: acc) c.by_doc [] |> List.sort compare

