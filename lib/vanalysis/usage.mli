(** Configuration-usage analysis: where parameters are read, directly or
    through simple data flow, and which branch conditions guard each read.

    The paper's analysis "also captures control dependency that involves
    simple data flow" (Section 4.3) — e.g. a branch on
    [m_cache_is_disabled], a variable assigned from [query_cache_type], is a
    usage of [query_cache_type].  This module computes, by a whole-program
    taint fixpoint, which configuration parameters flow into each global,
    each local, and each function's return value, and from that the
    {e guard set} (parameters read by enclosing branch conditions) of every
    call site and usage site.

    The guard set is the paper's {e broadened} control dependency: lexical
    nesting under a branch condition.  In

    {[
      if (a) { if (b) { if (c) { if (d) {} } } }   (* snippet 1 *)
      if (a) { if (b) {} if (c) {} if (d) {} }     (* snippet 2 *)
    ]}

    the classic postdominator definition does not make the [d] test of
    snippet 1 control dependent on [a] (only on [c]); here the usage of [d]
    is guarded by [a], [b] and [c] in snippet 1, and by [a] but not by its
    sibling [c] in snippet 2. *)

type t

val analyze : Vir.Ast.program -> t

val usage_functions : t -> string -> string list
(** Functions containing at least one usage (read, tainted read, or guarded
    branch) of the parameter. *)

val usage_guards : t -> func:string -> param:string -> string list list
(** For each usage site of [param] inside [func], the set of {e other}
    parameters appearing in enclosing branch conditions (the broadened
    control-dependency guards). *)

val call_site_guards : t -> func:string -> callee:string -> string list list
(** For each call site of [callee] inside [func], the parameters of the
    enclosing branch conditions. *)

val all_params : t -> string list
(** Every configuration parameter read anywhere in the program. *)
