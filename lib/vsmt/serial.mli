(** S-expression serialization of domains and expressions.

    Impact models are produced by one process (the analyzer) and consumed by
    another (the checker, deployed at user sites), so constraints must
    survive a file round-trip.  [of_sexp] functions return [Error] with a
    description rather than raising. *)

val dom_to_sexp : Dom.t -> Sexp.t
val dom_of_sexp : Sexp.t -> (Dom.t, string) result

val var_to_sexp : Expr.var -> Sexp.t
val var_of_sexp : Sexp.t -> (Expr.var, string) result

val expr_to_sexp : Expr.t -> Sexp.t
val expr_of_sexp : Sexp.t -> (Expr.t, string) result

val binop_atom : Expr.binop -> string
val binop_of_atom : string -> (Expr.binop, string) result
(** The operator atoms of {!expr_to_sexp}, e.g. ["<="] for [Le]. *)
