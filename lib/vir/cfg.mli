(** Per-function control-flow graphs.

    Used by the classic (postdominator-based) control-dependency analysis.
    Each statement of a defined function becomes one node; [If]/[While]
    conditions are branch nodes with two successors.  Synthetic entry and
    exit nodes bracket the function. *)

type node = {
  id : int;
  stmt : Ast.stmt option;  (** [None] for the synthetic entry/exit *)
  label : string;
  mutable succs : int list;
  mutable preds : int list;
}

type t = { func_name : string; nodes : node array; entry_id : int; exit_id : int }

val of_func : Ast.func -> t
(** CFG of a defined function; library functions yield entry→exit only. *)

val node : t -> int -> node
val branch_nodes : t -> node list
(** Nodes whose statement is an [If] or [While] (two successors). *)
