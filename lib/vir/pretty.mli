(** Human-readable rendering of IR programs, for reports and debugging. *)

val pp_expr : Ast.expr Fmt.t
val pp_func : Ast.func Fmt.t
val pp_program : Ast.program Fmt.t
