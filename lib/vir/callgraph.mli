(** Whole-program call graph, used by Algorithm 2 to extract the call chains
    from the entry function to a parameter's usage function. *)

type t

val build : Ast.program -> t

val callees : t -> string -> string list
(** Direct callees of a function (no duplicates, call order). *)

val paths_to : ?max_paths:int -> t -> entry:string -> string -> string list list
(** Simple (cycle-free) call chains [entry; ...; target], each ending at
    [target].  Bounded by [max_paths] (default 256). *)

val reachable : t -> from:string -> string list
(** Functions reachable from [from], including itself. *)
