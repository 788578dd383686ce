(** One row of the configuration cost table (paper Table 1).

    A row summarizes one explored state: the configuration constraint that
    selects it, the input (workload) predicate that triggers it, its cost
    metrics, and its call-chain information for differential critical-path
    analysis. *)

type t = {
  state_id : int;
  config_constraints : Vsmt.Expr.t list;
  workload_pred : Vsmt.Expr.t list;
  cost : Vruntime.Cost.t;
  traced_latency_us : float;
  chain : string list;  (** call-chain function names in cid order *)
  nodes : Vtrace.Callpath.node list;
  critical_ops : string list;
      (** root-to-hottest-node path, root excluded — the "{log_write_buf →
          fil_flush}" column of Table 1 *)
}

val of_profile : Vtrace.Profile.t -> t

val satisfied_by : ?max_nodes:int -> t -> (string * int) list -> bool
(** Does a concrete configuration assignment satisfy the row's configuration
    constraints?  Variables missing from the assignment make the row not
    satisfied.  [max_nodes] bounds the residual-feasibility solver call
    (default 2_000 — residual predicates are one row's open conjuncts). *)

val workload_satisfied_by : ?max_nodes:int -> t -> (string * int) list -> bool

val mentions : t -> string list -> bool
(** Whether any of the row's configuration constraints mentions one of the
    given parameter names. *)

val pp_constraint : Vsmt.Expr.t Fmt.t
(** Friendly constraint rendering, parenthesizing disjunctions so lists can
    be joined with [&&]. *)

val pp : t Fmt.t
val constraint_string : t -> string

val content_key : t -> string
(** Deterministic rendering of everything but [state_id] and the call tree:
    two rows with equal keys are interchangeable as checker witnesses.  The
    checker sorts candidate pools by this key, so which of two equally
    similar rows it reports depends on their content, not on their place in
    the model. *)
