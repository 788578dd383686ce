(** Symbolic program store: a stack of local frames plus globals.

    Values are {!Vsmt.Expr} expressions — concrete values are just constant
    expressions, so a location silently becomes symbolic when a symbolic
    value is assigned to it ("tainting", in the paper's terms).  Persistent
    maps make state forking O(1). *)

type t

val empty : t
val with_globals : (string * int) list -> t

val push_frame : t -> t
val pop_frame : t -> t

val set_local : t -> string -> Vsmt.Expr.t -> t
val get_local : t -> string -> Vsmt.Expr.t option
val set_global : t -> string -> Vsmt.Expr.t -> t
val get_global : t -> string -> Vsmt.Expr.t option

val substitute_everywhere : t -> (Vsmt.Expr.var -> Vsmt.Expr.t option) -> t
(** Apply a substitution to every stored value, in every frame and in the
    globals.  This is the repository-side of [concretizeAll] (Section 5.4):
    concretizing a symbolic variable also concretizes the locations it
    tainted. *)

val map_exprs : (Vsmt.Expr.t -> Vsmt.Expr.t) -> t -> t
(** Apply a function to every stored value verbatim (no simplification) —
    the snapshot-load rehash hook. *)
