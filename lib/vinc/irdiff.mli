(** Structural differ over {!Vir.Ast} programs.

    Classifies every function of a new program version as unchanged,
    modified, added or removed relative to an old version, by comparing
    {e content keys}: digests of an address-free canonical rendering of
    each function.  Builder-assigned synthetic addresses (function start
    addresses, call-site return addresses) are excluded on purpose — they
    shift wholesale when any earlier function grows, and a function whose
    code did not change must keep its key.

    Keys are the unit of persistence: a baseline manifest stores
    [(fname, key)] pairs, so diffing a new version against a baseline
    needs no old program in memory. *)

type t = {
  unchanged : string list;
  modified : string list;  (** same name, different content key *)
  added : string list;  (** in the new version only *)
  removed : string list;  (** in the old version only *)
}
(** All four lists are sorted by function name.  A removed function needs
    no transitive treatment of its own: any surviving caller necessarily
    lost its call statement and therefore classifies as modified. *)

val func_key : Vir.Ast.func -> string
(** Content key (md5 hex) of one function: name, parameters and the
    canonical rendering of its body — statements, expressions, operator
    structure — with every synthetic address zeroed out.  Library
    functions render their effect class, cost vector and the semantics
    function's outputs on a fixed probe grid (closures cannot be compared
    structurally). *)

val program_keys : Vir.Ast.program -> (string * string) list
(** [(fname, content key)] for every function, sorted by name — the form
    a baseline manifest persists. *)

val diff : old_keys:(string * string) list -> Vir.Ast.program -> t
(** Classify the new program's functions against a persisted key list. *)

val diff_programs : old_program:Vir.Ast.program -> Vir.Ast.program -> t
(** Convenience: [diff ~old_keys:(program_keys old_program)]. *)

val dirty_functions : t -> string list
(** [modified @ added], sorted: the functions whose bodies the old
    analysis cannot have accounted for.  A slice is invalidated iff its
    recorded dynamic coverage intersects this set (entry {e into} changed
    code is decided by call sites in unchanged callers, so an analysis
    that never entered a dirty function explores identically under the
    new version). *)
