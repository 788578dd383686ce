(** Discovery of control-dependent related parameters (paper Section 4.3,
    Algorithms 1 and 2).

    For a target parameter [p], two kinds of related parameters are put in
    its symbolic set:

    - {e enabler parameters}: parameters [q] such that some usage of [p] is
      control dependent on a use of [q] — either inside the same function,
      or because a call site on the chain from the entry function to [p]'s
      usage function is guarded by [q];
    - {e influenced parameters}: parameters whose own enabler set contains
      [p].

    The control-dependency notion is the paper's {e broadened} one: lexical
    nesting under a branch condition, closed over simple data flow
    ({!Usage}).  The result over-approximates, which is the safe direction —
    a spurious related parameter costs some exploration time but does not
    change conclusions (Section 4.3). *)

type result = {
  target : string;
  enablers : string list;
  influenced : string list;
  related : string list;  (** enablers ∪ influenced, sorted, without target *)
}

val analyze : ?usage:Usage.t -> Vir.Ast.program -> string -> result
(** Algorithm 1 for one target parameter, with Algorithm 2
    ([GetEnablerConfig]) finding each parameter's enablers.  [usage] is
    [Usage.analyze program], computed when absent. *)
