(** Pluggable XML document stores — DTX's DataManager talks to one of these.

    The paper's DTX "supports communication with any XML document storage
    method" (its experiments use the Sedna native XML DBMS; its example
    deployment mixes a DBMS and a plain file system, Fig. 2). Two backends
    are provided:
    - {!memory}: an in-memory store standing in for Sedna — documents are
      kept as parsed trees; this is what the simulated experiments use.
    - {!filesystem}: serialized XML files in a directory, demonstrating the
      same interface over durable storage.

    Loads hand out {e copies} so the caller's in-memory working tree never
    aliases the persisted one (DTX processes data in main memory and writes
    back on commit). *)

type t

val memory : unit -> t
(** A fresh empty in-memory store. *)

val filesystem : dir:string -> t
(** A store over [dir] (created if missing). Document names are encoded into
    safe file names, so any name works.
    @raise Sys_error if [dir] cannot be created. *)

val list : t -> string list
(** Stored document names, sorted. A filesystem store lists only the files
    whose names it could have written itself; other files in its directory
    are ignored. *)

val load : t -> string -> Dtx_xml.Doc.t option
(** [load s name] is a private copy of the stored document. *)

val store : t -> Dtx_xml.Doc.t -> unit
(** [store s doc] persists a copy of [doc] under [doc.name] (overwrites). *)

val remove : t -> string -> unit

val mem : t -> string -> bool
