(** Per-state performance profiles.

    One profile per explored path: the path constraints (split into the
    configuration constraint and the input predicate), the cost vector, the
    root latency measured from the tracer's matched signals, and the
    reconstructed call tree.  The trace analyzer ({!Vmodel}) consumes
    profiles to build the cost table. *)

type t = {
  state_id : int;
  status : Vsymexec.Sym_state.status;
  pc : Vsmt.Expr.t list;
  config_constraints : Vsmt.Expr.t list;
  workload_constraints : Vsmt.Expr.t list;
  cost : Vruntime.Cost.t;
  traced_latency_us : float;
      (** root-call latency from the matched signal records — the inflated
          symbolic-execution clock, what the paper's tracer measures *)
  nodes : Callpath.node list;
}

val mentions_origin : Vsmt.Expr.origin -> Vsmt.Expr.t -> bool
(** Some variable of the expression has the origin: the test that puts a
    conjunct in {!t.config_constraints}.  Origin tests read each
    variable's own [origin] field. *)

val only_origin : Vsmt.Expr.origin -> Vsmt.Expr.t -> bool
(** Every variable of the expression has the origin (true on a var-free
    expression). *)

val make :
  state_id:int ->
  status:Vsymexec.Sym_state.status ->
  pc:Vsmt.Expr.t list ->
  cost:Vruntime.Cost.t ->
  clock:float ->
  records:Vsymexec.Signals.record list ->
  t
(** Build a profile from raw trace material (used for traces loaded from
    disk as well as live states). *)

val of_state : Vsymexec.Sym_state.t -> t
(** Deferred computation (Section 5.3, optimization 2): record matching,
    latency calculation and call-path reconstruction happen here, at path
    termination, not during execution. *)

val of_result : Vsymexec.Executor.result -> t list
(** Profiles of all terminated states (killed states are skipped — they
    have no complete path). *)
