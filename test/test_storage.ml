(* Tests for the storage backends: memory and filesystem behave identically
   through the STORE interface; loads are private copies. *)

module Storage = Dtx_storage.Storage
module Doc = Dtx_xml.Doc
module Node = Dtx_xml.Node
module Xml_parser = Dtx_xml.Parser
module Generator = Dtx_xmark.Generator

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let sample () =
  Xml_parser.parse ~name:"doc one"
    "<people><person id=\"1\"><name>Ana</name></person></people>"

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dtx_storage_test_%d_%d" (Unix.getpid ()) (Random.int 100000))
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let backends f =
  f (Storage.memory ());
  with_tmp_dir (fun dir -> f (Storage.filesystem ~dir))

let test_store_load_roundtrip () =
  backends (fun s ->
      let doc = sample () in
      Storage.store s doc;
      match Storage.load s doc.Doc.name with
      | Some loaded ->
        checkb "roundtrip" true (Doc.equal_structure doc loaded)
      | None -> Alcotest.fail "load failed")

let test_load_missing () =
  backends (fun s ->
      checkb "missing" true (Storage.load s "nope" = None);
      checkb "mem" false (Storage.mem s "nope"))

let test_list_sorted () =
  backends (fun s ->
      Storage.store s (Doc.create ~name:"b" ~root_label:"r");
      Storage.store s (Doc.create ~name:"a" ~root_label:"r");
      Storage.store s (Doc.create ~name:"c" ~root_label:"r");
      Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (Storage.list s))

let test_overwrite () =
  backends (fun s ->
      let d1 = Doc.create ~name:"x" ~root_label:"v1" in
      let d2 = Doc.create ~name:"x" ~root_label:"v2" in
      Storage.store s d1;
      Storage.store s d2;
      match Storage.load s "x" with
      | Some d -> Alcotest.(check string) "latest wins" "v2" d.Doc.root.Node.label
      | None -> Alcotest.fail "load failed")

let test_remove () =
  backends (fun s ->
      Storage.store s (sample ());
      Storage.remove s "doc one";
      checkb "gone" true (Storage.load s "doc one" = None);
      (* Removing again is harmless. *)
      Storage.remove s "doc one")

let test_load_is_private_copy () =
  backends (fun s ->
      let doc = sample () in
      Storage.store s doc;
      (match Storage.load s doc.Doc.name with
       | Some copy ->
         copy.Doc.root.Node.label <- "mutated";
         (match Storage.load s doc.Doc.name with
          | Some again ->
            Alcotest.(check string) "store unaffected" "people"
              again.Doc.root.Node.label
          | None -> Alcotest.fail "second load failed")
       | None -> Alcotest.fail "load failed"))

let test_awkward_names () =
  backends (fun s ->
      (* Fragment names contain '#'; also test slashes and unicode-ish. *)
      List.iter
        (fun name ->
          let d = Doc.create ~name ~root_label:"r" in
          Storage.store s d;
          checkb ("load " ^ name) true (Storage.load s name <> None))
        [ "xmark#0"; "a/b"; "weird name!"; "d1" ];
      check "all listed" 4 (List.length (Storage.list s)))

let test_filesystem_persists_across_handles () =
  with_tmp_dir (fun dir ->
      let s1 = Storage.filesystem ~dir in
      Storage.store s1 (sample ());
      (* A second handle over the same directory sees the document. *)
      let s2 = Storage.filesystem ~dir in
      match Storage.load s2 "doc one" with
      | Some d -> checkb "persisted" true (Doc.equal_structure d (sample ()))
      | None -> Alcotest.fail "not persisted")

let test_filesystem_roundtrip_xmark () =
  with_tmp_dir (fun dir ->
      let s = Storage.filesystem ~dir in
      let doc = Generator.generate (Generator.params_of_nodes 600) in
      Storage.store s doc;
      match Storage.load s doc.Doc.name with
      | Some loaded -> checkb "xmark roundtrip" true (Doc.equal_structure doc loaded)
      | None -> Alcotest.fail "load failed")

(* A store's directory may hold files it never wrote: a bad escape, an
   escape [encode_name] would not produce, a character it would escape, a
   non-XML file. [list] skips them instead of failing, since recovery
   lists the store on restart. *)
let test_filesystem_ignores_foreign_files () =
  with_tmp_dir (fun dir ->
      let s = Storage.filesystem ~dir in
      Storage.store s (sample ());
      List.iter
        (fun f -> close_out (open_out (Filename.concat dir f)))
        [ "x%zz.xml"; "y%4.xml"; "%61.xml"; "a b.xml"; "notes.txt" ];
      Alcotest.(check (list string)) "only the stored document" [ "doc one" ]
        (Storage.list s))

let () =
  Alcotest.run "storage"
    [ ( "interface",
        [ Alcotest.test_case "roundtrip" `Quick test_store_load_roundtrip;
          Alcotest.test_case "missing" `Quick test_load_missing;
          Alcotest.test_case "list sorted" `Quick test_list_sorted;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "private copies" `Quick test_load_is_private_copy;
          Alcotest.test_case "awkward names" `Quick test_awkward_names ] );
      ( "filesystem",
        [ Alcotest.test_case "persists across handles" `Quick
            test_filesystem_persists_across_handles;
          Alcotest.test_case "xmark roundtrip" `Quick test_filesystem_roundtrip_xmark;
          Alcotest.test_case "foreign files ignored" `Quick
            test_filesystem_ignores_foreign_files ] ) ]
