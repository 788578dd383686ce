(** Control dependency, classic and broadened (paper Section 4.3).

    The classic Ferrante–Ottenstein–Warren definition is computed from
    postdominators on the function CFG.  The paper broadens it: in

    {[
      if (a) { if (b) { if (c) { if (d) {} } } }   (* snippet 1 *)
      if (a) { if (b) {} if (c) {} if (d) {} }     (* snippet 2 *)
    ]}

    the classic definition does not make the [d] test of snippet 1 control
    dependent on [a] (only on [c]); Violet's broadened notion — lexical
    nesting — makes every inner test dependent on every enclosing one in
    both snippets.  The broadened relation is what {!Related_config} uses;
    the classic one is exposed for comparison and tests. *)

val classic : Vir.Cfg.t -> on:int -> int -> bool
(** [classic cfg ~on:x y] — node [y] is control dependent on branch node [x]
    by the postdominator criterion. *)

val broadened_pairs : Vir.Ast.func -> (int * int) list
(** All [(branch, dependent)] pairs under lexical nesting, using the same
    node numbering as {!Vir.Cfg.of_func} (pre-order of statement nodes). *)
